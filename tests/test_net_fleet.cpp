// Distributed front-end fleet: fleet hashing, the cache partition law
// (aggregate footprint exactly c, single-copy ownership, REDIRECT from
// non-owners), the router's owner-first rule, and the edge router end to
// end (clients never see a fleet REDIRECT, nor a member that dies or
// stalls). Labeled slow + net + fleet — the serving cases spin up real TCP
// fleets.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/partition.h"
#include "common/hash.h"
#include "net/backend_server.h"
#include "net/fleet.h"
#include "net/frontend_server.h"
#include "net/router_server.h"
#include "net/socket.h"
#include "net/sync_client.h"
#include "obs/metrics.h"

namespace scp::net {
namespace {

constexpr std::uint64_t kPartitionSeed = 77;
constexpr std::uint64_t kFleetSeed = 4242;

// ---------------------------------------------------------------------------
// Unit: slice_capacity and the fleet hashes (no sockets).

TEST(SliceCapacity, PartitionsSumExactlyToTotal) {
  // The fleet split and the nested shard split must conserve the paper's c
  // exactly — a lost or duplicated slot changes the provisioning bound.
  for (std::size_t total : {0u, 1u, 7u, 64u, 1000u, 1001u}) {
    for (std::size_t parts : {1u, 2u, 3u, 5u, 8u}) {
      std::size_t sum = 0;
      for (std::size_t index = 0; index < parts; ++index) {
        sum += slice_capacity(total, parts, index);
      }
      EXPECT_EQ(sum, total) << "total=" << total << " parts=" << parts;
      // Slices differ by at most one entry (even split).
      EXPECT_LE(slice_capacity(total, parts, 0) -
                    slice_capacity(total, parts, parts - 1),
                1u);
    }
  }
}

TEST(SliceCapacity, NestedFleetThenShardSplitConservesC) {
  // Exactly the nesting FrontendServer::start() performs: c across the
  // fleet, then each member's slice across its reactor shards.
  constexpr std::size_t kC = 103;
  constexpr std::size_t kFleet = 3;
  constexpr std::size_t kShards = 4;
  std::size_t sum = 0;
  for (std::size_t member = 0; member < kFleet; ++member) {
    const std::size_t member_capacity = slice_capacity(kC, kFleet, member);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      sum += slice_capacity(member_capacity, kShards, shard);
    }
  }
  EXPECT_EQ(sum, kC);
}

TEST(FleetHash, OwnerDeterministicInRangeAndSeedSensitive) {
  for (std::uint64_t key = 0; key < 512; ++key) {
    const std::uint32_t owner = fleet_owner(key, kFleetSeed, 5);
    EXPECT_LT(owner, 5u);
    EXPECT_EQ(owner, fleet_owner(key, kFleetSeed, 5)) << "must be pure";
  }
  // A different fleet seed reshuffles the mapping.
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 512; ++key) {
    if (fleet_owner(key, kFleetSeed, 5) != fleet_owner(key, kFleetSeed + 1, 5)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 256u);
  // Degenerate fleets: everything belongs to member 0.
  EXPECT_EQ(fleet_owner(123, kFleetSeed, 1), 0u);
  EXPECT_EQ(fleet_owner(123, kFleetSeed, 0), 0u);
}

TEST(FleetHash, IndependentOfShardAndBackendMappings) {
  // DistCache's requirement: the fleet partition must be independent of the
  // other layers' partitions, or the layers correlate and hot keys pile up.
  // Check against the intra-process shard split (unkeyed mix64) and a
  // same-seed backend-style hash: each (fleet member, other-layer bucket)
  // cell must be populated — a dependent mapping leaves cells empty.
  constexpr std::uint32_t kFleet = 3;
  constexpr std::uint32_t kOther = 3;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> shard_cells;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> hash_cells;
  const SipKey backend_style = sip_key_from_seed(kFleetSeed);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const std::uint32_t member = fleet_owner(key, kFleetSeed, kFleet);
    shard_cells[{member, static_cast<std::uint32_t>(mix64(key) % kOther)}]++;
    hash_cells[{member, static_cast<std::uint32_t>(siphash24(backend_style,
                                                             key) %
                                                   kOther)}]++;
  }
  EXPECT_EQ(shard_cells.size(), kFleet * kOther);
  EXPECT_EQ(hash_cells.size(), kFleet * kOther);
  for (const auto& [cell, count] : shard_cells) {
    EXPECT_GT(count, 4096u / (kFleet * kOther) / 4) << "sparse cell";
  }
}

TEST(FleetHash, CandidatesDistinctAndCoverTheFleet) {
  constexpr std::uint32_t kFleet = 4;
  std::set<std::uint32_t> alternates_seen;
  for (std::uint64_t key = 0; key < 1024; ++key) {
    const FleetCandidates candidates =
        fleet_candidates(key, kFleetSeed, kFleet);
    EXPECT_LT(candidates.owner, kFleet);
    EXPECT_LT(candidates.alternate, kFleet);
    EXPECT_NE(candidates.owner, candidates.alternate)
        << "the alternate must be another member (key " << key << ")";
    alternates_seen.insert(candidates.alternate);
  }
  EXPECT_EQ(alternates_seen.size(), kFleet) << "alternates must cover fleet";
  // Single-member fleet: the pair collapses.
  const FleetCandidates solo = fleet_candidates(9, kFleetSeed, 1);
  EXPECT_EQ(solo.owner, solo.alternate);
}

TEST(FleetRouterUnit, RoutesAroundDownMembers) {
  const FleetCandidates candidates = fleet_candidates(5, kFleetSeed, 3);
  std::vector<bool> up(3, true);
  const auto route = [&] {
    return fleet_route(candidates, [&](std::uint32_t m) { return up[m]; });
  };
  EXPECT_EQ(route(), candidates.owner) << "a live owner takes its key";

  up[candidates.owner] = false;
  EXPECT_EQ(route(), candidates.alternate) << "owner down: the alternate";
  up[candidates.owner] = true;
  up[candidates.alternate] = false;
  EXPECT_EQ(route(), candidates.owner) << "alternate down: still the owner";
  up[candidates.owner] = false;
  EXPECT_EQ(route(), kNoFleetMember);

  // A single-member fleet has one candidate.
  const FleetCandidates solo = fleet_candidates(5, kFleetSeed, 1);
  EXPECT_EQ(fleet_route(solo, [](std::uint32_t) { return true; }), 0u);
  EXPECT_EQ(fleet_route(solo, [](std::uint32_t) { return false; }),
            kNoFleetMember);
}

// ---------------------------------------------------------------------------
// Serving tier: the cache partition law across a real fleet.

struct Backends {
  std::vector<std::unique_ptr<BackendServer>> servers;
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
};

Backends start_backends(std::uint32_t nodes, std::uint32_t replication,
                        std::uint64_t items) {
  Backends backends;
  for (std::uint32_t node = 0; node < nodes; ++node) {
    BackendConfig config;
    config.node_id = node;
    config.nodes = nodes;
    config.replication = replication;
    config.partition_seed = kPartitionSeed;
    config.items = items;
    auto backend = std::make_unique<BackendServer>(config);
    EXPECT_TRUE(backend->start());
    backends.endpoints.emplace_back("127.0.0.1", backend->port());
    backends.servers.push_back(std::move(backend));
  }
  return backends;
}

FrontendConfig member_config(const Backends& backends, std::uint32_t nodes,
                             std::uint32_t replication, std::uint64_t items,
                             std::size_t cache_capacity, std::uint32_t fleet,
                             std::uint32_t fleet_index) {
  FrontendConfig config;
  config.nodes = nodes;
  config.replication = replication;
  config.partition_seed = kPartitionSeed;
  config.backends = backends.endpoints;
  config.cache_policy = "perfect";
  config.cache_capacity = cache_capacity;
  config.items = items;
  config.fleet_size = fleet;
  config.fleet_index = fleet_index;
  config.fleet_seed = kFleetSeed;
  config.seed = 1 + fleet_index;
  return config;
}

struct FeFleet {
  std::vector<std::unique_ptr<FrontendServer>> members;
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
};

FeFleet start_fe_fleet(const Backends& backends, std::uint32_t nodes,
                       std::uint32_t replication, std::uint64_t items,
                       std::size_t cache_capacity, std::uint32_t fleet,
                       const std::string& policy = "perfect") {
  FeFleet fe;
  for (std::uint32_t member = 0; member < fleet; ++member) {
    FrontendConfig config = member_config(backends, nodes, replication, items,
                                          cache_capacity, fleet, member);
    config.cache_policy = policy;
    auto frontend = std::make_unique<FrontendServer>(config);
    EXPECT_TRUE(frontend->start());
    EXPECT_TRUE(frontend->wait_backends_up(5.0));
    fe.endpoints.emplace_back("127.0.0.1", frontend->port());
    fe.members.push_back(std::move(frontend));
  }
  return fe;
}

TEST(FleetPartition, AggregateFootprintIsExactlyCSingleCopy) {
  // The partition law: across the whole fleet the cached set is exactly the
  // c-entry prefix with a single copy each — the owner hits, every other
  // member answers kRedirect naming the owner, and a full sweep of all
  // members over all keys yields exactly c hits fleet-wide.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 96;
  constexpr std::size_t kCache = 24;
  constexpr std::uint32_t kFleet = 3;

  Backends backends = start_backends(kNodes, kReplication, kItems);
  FeFleet fe = start_fe_fleet(backends, kNodes, kReplication, kItems, kCache,
                              kFleet);

  for (std::uint32_t member = 0; member < kFleet; ++member) {
    SyncClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fe.endpoints[member].second, 3.0));
    for (std::uint64_t key = 0; key < kItems; ++key) {
      const std::uint32_t owner = fleet_owner(key, kFleetSeed, kFleet);
      const auto reply = client.get(key, 5.0);
      ASSERT_TRUE(reply.has_value()) << "member " << member << " key " << key;
      if (key < kCache && member != owner) {
        ASSERT_EQ(reply->type, MsgType::kRedirect)
            << "non-owner must bounce cached key " << key << " to its owner";
        EXPECT_EQ(reply->node, owner) << "redirect must name the fleet owner";
      } else {
        ASSERT_EQ(reply->type, MsgType::kValue)
            << "member " << member << " key " << key;
        EXPECT_EQ(reply->payload, make_value(key, 64));
      }
    }
  }

  // Fleet-wide accounting over the sweep: every member saw every key once;
  // hits total exactly c (single copy), redirects 2 per cached key, and the
  // fleet-mode invariant holds per member.
  std::uint64_t total_hits = 0;
  std::uint64_t total_fleet_redirects = 0;
  for (std::uint32_t member = 0; member < kFleet; ++member) {
    const ServerStats stats = fe.members[member]->stats();
    EXPECT_EQ(stats.requests, kItems);
    const obs::MetricsSnapshot snap = fe.members[member]->metrics_snapshot();
    const std::uint64_t fleet_redirects =
        snap.counters.at("frontend.fleet_redirects");
    EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                  stats.failures + fleet_redirects)
        << "fleet-mode counter invariant, member " << member;
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(snap.gauges.at("frontend.fleet_index"),
              static_cast<std::int64_t>(member));
    EXPECT_EQ(snap.gauges.at("frontend.fleet_size"),
              static_cast<std::int64_t>(kFleet));
    total_hits += stats.hits;
    total_fleet_redirects += fleet_redirects;
  }
  EXPECT_EQ(total_hits, kCache)
      << "aggregate cache footprint must be exactly c, single copy";
  EXPECT_EQ(total_fleet_redirects, (kFleet - 1) * kCache);

  for (auto& member : fe.members) member->stop();
  for (auto& backend : backends.servers) backend->stop();
}

TEST(FleetPartition, PolicyCacheNonOwnerRedirectsInsteadOfCaching) {
  // Policy tiers (here LRU) can't inspect a sibling's contents, so a
  // non-owner redirects *every* non-owned key — and repeated access must
  // never warm a duplicate copy into the non-owner.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  constexpr std::size_t kCache = 32;
  constexpr std::uint32_t kFleet = 2;

  Backends backends = start_backends(kNodes, kReplication, kItems);
  FeFleet fe = start_fe_fleet(backends, kNodes, kReplication, kItems, kCache,
                              kFleet, "lru");

  // A key owned by member 1, queried repeatedly at member 0.
  std::uint64_t foreign = kItems;
  for (std::uint64_t key = 0; key < kItems; ++key) {
    if (fleet_owner(key, kFleetSeed, kFleet) == 1) {
      foreign = key;
      break;
    }
  }
  ASSERT_LT(foreign, kItems);

  SyncClient non_owner;
  ASSERT_TRUE(non_owner.connect("127.0.0.1", fe.endpoints[0].second, 3.0));
  for (int round = 0; round < 3; ++round) {
    const auto reply = non_owner.get(foreign, 5.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kRedirect)
        << "round " << round << ": repeat access must keep redirecting, "
        << "never warm a duplicate copy";
    EXPECT_EQ(reply->node, 1u);
  }
  EXPECT_EQ(fe.members[0]->stats().hits, 0u);

  // The owner serves and warms it: second access is a local hit.
  SyncClient owner;
  ASSERT_TRUE(owner.connect("127.0.0.1", fe.endpoints[1].second, 3.0));
  for (int round = 0; round < 2; ++round) {
    const auto reply = owner.get(foreign, 5.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    EXPECT_EQ(reply->payload, make_value(foreign, 64));
  }
  EXPECT_EQ(fe.members[1]->stats().hits, 1u)
      << "owner warms on miss, hits on repeat";

  for (auto& member : fe.members) member->stop();
  for (auto& backend : backends.servers) backend->stop();
}

TEST(FleetPartition, SingleMemberFleetMatchesPlainFrontendByteForByte) {
  // --fleet 1 must be the plain front end: same replies byte-for-byte and
  // the same counters on the same key sequence (the fleet gate is compiled
  // out of the hot path at N == 1).
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 128;
  constexpr std::size_t kCache = 16;

  Backends backends = start_backends(kNodes, kReplication, kItems);

  FrontendConfig plain_config = member_config(backends, kNodes, kReplication,
                                              kItems, kCache, /*fleet=*/1,
                                              /*fleet_index=*/0);
  plain_config.fleet_size = 1;  // explicit: the classic configuration
  FrontendConfig fleet_config = plain_config;
  fleet_config.fleet_size = 1;
  fleet_config.fleet_seed = kFleetSeed;

  std::vector<Message> plain_replies;
  std::vector<Message> fleet_replies;
  ServerStats plain_stats;
  ServerStats fleet_stats;
  for (int which = 0; which < 2; ++which) {
    FrontendServer frontend(which == 0 ? plain_config : fleet_config);
    ASSERT_TRUE(frontend.start());
    ASSERT_TRUE(frontend.wait_backends_up(5.0));
    SyncClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", frontend.port(), 3.0));
    std::vector<Message>& replies =
        which == 0 ? plain_replies : fleet_replies;
    // Mixed sweep: every key once, cached prefix twice (hit path) — same
    // deterministic order both runs.
    for (std::uint64_t key = 0; key < kItems; ++key) {
      const auto reply = client.get(key, 5.0);
      ASSERT_TRUE(reply.has_value());
      replies.push_back(*reply);
      if (key < kCache) {
        const auto again = client.get(key, 5.0);
        ASSERT_TRUE(again.has_value());
        replies.push_back(*again);
      }
    }
    (which == 0 ? plain_stats : fleet_stats) = frontend.stats();
    frontend.stop();
  }

  ASSERT_EQ(plain_replies.size(), fleet_replies.size());
  for (std::size_t i = 0; i < plain_replies.size(); ++i) {
    EXPECT_EQ(plain_replies[i].type, fleet_replies[i].type) << "reply " << i;
    EXPECT_EQ(plain_replies[i].key, fleet_replies[i].key) << "reply " << i;
    EXPECT_EQ(plain_replies[i].payload, fleet_replies[i].payload)
        << "reply " << i;
  }
  EXPECT_EQ(plain_stats.requests, fleet_stats.requests);
  EXPECT_EQ(plain_stats.hits, fleet_stats.hits);
  EXPECT_EQ(plain_stats.misses, fleet_stats.misses);
  EXPECT_EQ(plain_stats.forwarded, fleet_stats.forwarded);
  EXPECT_EQ(plain_stats.retries, fleet_stats.retries);
  EXPECT_EQ(plain_stats.failures, fleet_stats.failures);
  EXPECT_EQ(plain_stats.attempts, fleet_stats.attempts);

  for (auto& backend : backends.servers) backend->stop();
}

// ---------------------------------------------------------------------------
// Edge router end to end.

TEST(FleetRouterE2E, ClientsNeverSeeRedirectsAndLoadSpreads) {
  // Full stack: backends <- fleet of 3 front ends <- RouterServer <- client.
  // The router sends every key to its owner, so no member answers a fleet
  // REDIRECT and no hop is spent on one; clients see only kValue, and each
  // member serves the keys it owns.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 96;
  constexpr std::size_t kCache = 24;
  constexpr std::uint32_t kFleet = 3;
  constexpr int kSweeps = 3;

  Backends backends = start_backends(kNodes, kReplication, kItems);
  FeFleet fe = start_fe_fleet(backends, kNodes, kReplication, kItems, kCache,
                              kFleet);

  RouterConfig router_config;
  router_config.frontends = fe.endpoints;
  router_config.fleet_seed = kFleetSeed;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), 3.0));
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::uint64_t key = 0; key < kItems; ++key) {
      const auto reply = client.get(key, 5.0);
      ASSERT_TRUE(reply.has_value()) << "key " << key;
      ASSERT_EQ(reply->type, MsgType::kValue)
          << "key " << key << ": the router must hide fleet redirects";
      EXPECT_EQ(reply->key, key);
      EXPECT_EQ(reply->payload, make_value(key, 64));
    }
  }

  const ServerStats router_stats = router.stats();
  EXPECT_EQ(router_stats.requests, kSweeps * kItems);
  EXPECT_EQ(router_stats.failures, 0u);
  EXPECT_EQ(router_stats.forwarded, router_stats.requests)
      << "every GET relayed exactly one terminal reply";
  EXPECT_EQ(router_stats.redirects, 0u) << "every GET went to its owner";
  EXPECT_EQ(router_stats.attempts, router_stats.requests);

  // Each member owns some keys, so each gets traffic, answers no redirect
  // and keeps its fleet-mode invariant.
  std::uint64_t member_requests_total = 0;
  for (std::uint32_t member = 0; member < kFleet; ++member) {
    const ServerStats stats = fe.members[member]->stats();
    EXPECT_GT(stats.requests, 0u) << "member " << member << " starved";
    const obs::MetricsSnapshot snap = fe.members[member]->metrics_snapshot();
    EXPECT_EQ(snap.counters.at("frontend.fleet_redirects"), 0u)
        << "member " << member;
    EXPECT_EQ(stats.requests,
              stats.hits + stats.forwarded + stats.coalesced + stats.failures)
        << "member " << member;
    member_requests_total += stats.requests;
  }
  // Conservation across the tier: the fleet saw every router dispatch.
  EXPECT_EQ(member_requests_total, router_stats.attempts);
  // Every dispatch got a member reply, and each reply timed its round trip.
  EXPECT_EQ(router.metrics_snapshot().timers.at("router.fe_rtt_us").count(),
            router_stats.attempts);

  router.stop();
  for (auto& member : fe.members) member->stop();
  for (auto& backend : backends.servers) backend->stop();
}

TEST(FleetRouterE2E, RouterMetricsExposeDispatchSpread) {
  // The router's own observability: per-member dispatch counters and the
  // frontends_up gauge, scraped in-process the same way scp_stats would.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 48;
  constexpr std::uint32_t kFleet = 2;

  Backends backends = start_backends(kNodes, kReplication, kItems);
  FeFleet fe = start_fe_fleet(backends, kNodes, kReplication, kItems,
                              /*cache=*/0, kFleet, "none");

  RouterConfig router_config;
  router_config.frontends = fe.endpoints;
  router_config.fleet_seed = kFleetSeed;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), 3.0));
  for (std::uint64_t key = 0; key < kItems; ++key) {
    const auto reply = client.get(key, 5.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
  }

  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("router.requests"), kItems);
  EXPECT_EQ(snap.counters.at("router.failures"), 0u);
  EXPECT_EQ(snap.gauges.at("router.frontends_up"),
            static_cast<std::int64_t>(kFleet));
  EXPECT_EQ(snap.gauges.at("router.fleet_size"),
            static_cast<std::int64_t>(kFleet));
  std::uint64_t dispatches = 0;
  for (std::uint32_t member = 0; member < kFleet; ++member) {
    dispatches +=
        snap.counters.at("router.dispatches.fe" + std::to_string(member));
  }
  EXPECT_EQ(dispatches, snap.counters.at("router.attempts_total"));

  router.stop();
  for (auto& member : fe.members) member->stop();
  for (auto& backend : backends.servers) backend->stop();
}

// ---------------------------------------------------------------------------
// Edge router under member failure.

/// Deadline-polls `predicate` every millisecond. False on timeout.
bool poll_until(double timeout_s, const std::function<bool()>& predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

std::int64_t router_gauge(const RouterServer& router, const std::string& name) {
  return router.metrics_snapshot().gauges.at(name);
}

std::uint64_t router_counter(const RouterServer& router,
                             const std::string& name) {
  return router.metrics_snapshot().counters.at(name);
}

/// A fleet member that accepts the router's connection, reads every frame
/// and never answers: GETs sent to it stay in flight until the router's
/// deadline resets the link. Counts accepted connections and GET keys.
class SilentMember {
 public:
  ~SilentMember() { stop(); }

  bool start() {
    listener_ = listen_tcp("127.0.0.1", 0, 16, &port_);
    if (!listener_.valid()) return false;
    thread_ = std::thread([this] { run(); });
    return true;
  }

  void stop() {
    stopping_.store(true);
    if (thread_.joinable()) thread_.join();
    listener_.reset();
  }

  std::uint16_t port() const noexcept { return port_; }
  std::uint64_t accepted() const { return accepted_.load(); }
  std::uint64_t get_keys() const { return get_keys_.load(); }

 private:
  void run() {
    while (!stopping_.load()) {
      pollfd pfd{listener_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      Socket conn(::accept(listener_.fd(), nullptr, nullptr));
      if (!conn.valid()) continue;
      accepted_.fetch_add(1);
      swallow(conn);
    }
  }

  /// Reads and counts frames until the peer closes the connection.
  void swallow(const Socket& conn) {
    FrameReader reader;
    std::uint8_t buffer[16384];
    while (!stopping_.load()) {
      pollfd pfd{conn.fd(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 20);
      if (ready < 0) return;
      if (ready == 0) continue;
      const ssize_t n = ::recv(conn.fd(), buffer, sizeof(buffer), 0);
      if (n <= 0) return;
      reader.append({buffer, static_cast<std::size_t>(n)});
      while (auto payload = reader.next_payload()) {
        const auto message = decode_payload(*payload);
        if (!message.has_value()) return;
        if (message->type == MsgType::kGet) get_keys_.fetch_add(1);
        if (message->type == MsgType::kBatchGet) {
          get_keys_.fetch_add(message->batch_keys.size());
        }
      }
      if (reader.corrupted()) return;
    }
  }

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> get_keys_{0};
};

TEST(FleetRouterFailure, MemberStoppedMidTrafficIsRoutedAroundAndRejoins) {
  // Two members with no cache, so either candidate can serve every key.
  // Member 0 stops while clients keep GETs in flight: whatever it held goes
  // back to the router, which re-dispatches to member 1, so no client sees
  // anything but kValue. Restarted on the same port, it rejoins.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  constexpr std::uint32_t kFleet = 2;
  constexpr int kClients = 3;

  Backends backends = start_backends(kNodes, kReplication, kItems);
  FeFleet fe = start_fe_fleet(backends, kNodes, kReplication, kItems,
                              /*cache=*/0, kFleet, "none");

  RouterConfig router_config;
  router_config.frontends = fe.endpoints;
  router_config.fleet_seed = kFleetSeed;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SyncClient client;
      if (!client.connect("127.0.0.1", router.port(), 3.0)) {
        wrong.fetch_add(1);
        return;
      }
      for (std::uint64_t i = 0; !done.load(); ++i) {
        const std::uint64_t key = (i * kClients + c) % kItems;
        const auto reply = client.get(key, 5.0);
        if (!reply.has_value() || reply->type != MsgType::kValue ||
            reply->payload != make_value(key, 64)) {
          wrong.fetch_add(1);
          return;
        }
        answered.fetch_add(1);
      }
    });
  }

  ASSERT_TRUE(poll_until(5.0, [&] { return answered.load() >= 200; }));
  const std::uint16_t member0_port = fe.endpoints[0].second;
  fe.members[0]->stop(0.0);
  EXPECT_TRUE(poll_until(5.0, [&] {
    return router_gauge(router, "router.frontends_up") == 1;
  }));
  const std::uint64_t before_down = answered.load();
  EXPECT_TRUE(
      poll_until(5.0, [&] { return answered.load() >= before_down + 200; }))
      << "traffic must keep flowing through the surviving member";

  FrontendConfig restarted = member_config(backends, kNodes, kReplication,
                                           kItems, /*cache=*/0, kFleet, 0);
  restarted.cache_policy = "none";
  restarted.port = member0_port;
  fe.members[0] = std::make_unique<FrontendServer>(restarted);
  ASSERT_TRUE(fe.members[0]->start());
  ASSERT_TRUE(fe.members[0]->wait_backends_up(5.0));
  EXPECT_TRUE(router.wait_frontends_up(5.0));
  EXPECT_EQ(router_gauge(router, "router.frontends_up"), 2);
  const std::uint64_t fe0_before =
      router_counter(router, "router.dispatches.fe0");
  EXPECT_TRUE(poll_until(5.0, [&] {
    return router_counter(router, "router.dispatches.fe0") > fe0_before;
  })) << "dispatches must reach the restarted member";

  done.store(true);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(wrong.load(), 0u) << "every GET must be answered kValue";
  EXPECT_EQ(router_counter(router, "router.failures"), 0u);

  router.stop();
  for (auto& member : fe.members) member->stop();
  for (auto& backend : backends.servers) backend->stop();
}

TEST(FleetRouterFailure, SilentMemberTimesOutAndItsGetIsServedElsewhere) {
  // Member 0 accepts and never replies. The first GET for a key it owns
  // outlives the router's deadline, the sweep resets the link, and the GET
  // is re-dispatched to member 1, the key's alternate, which answers
  // kValue.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  constexpr std::uint32_t kFleet = 2;

  Backends backends = start_backends(kNodes, kReplication, kItems);
  SilentMember silent;
  ASSERT_TRUE(silent.start());
  FrontendConfig member = member_config(backends, kNodes, kReplication,
                                        kItems, /*cache=*/0, kFleet, 1);
  member.cache_policy = "none";
  FrontendServer frontend(member);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  RouterConfig router_config;
  router_config.frontends = {{"127.0.0.1", silent.port()},
                             {"127.0.0.1", frontend.port()}};
  router_config.fleet_seed = kFleetSeed;
  router_config.timeout_s = 0.2;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), 3.0));
  for (std::uint64_t key = 0; key < kItems && silent.get_keys() == 0; ++key) {
    const auto reply = client.get(key, 5.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    ASSERT_EQ(reply->type, MsgType::kValue) << "key " << key;
    EXPECT_EQ(reply->payload, make_value(key, 64));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(silent.get_keys(), 0u)
      << "no GET was dispatched to the silent member";

  // The reset link is counted and re-dialed. Only the GET that reached the
  // silent member waited out the deadline: it is the one re-dispatch.
  EXPECT_TRUE(poll_until(5.0, [&] { return silent.accepted() >= 2; }));
  EXPECT_GE(router_counter(router, "router.link_resets"), 1u);
  EXPECT_EQ(router_counter(router, "router.retries"), 1u);
  EXPECT_EQ(router_counter(router, "router.failures"), 0u);

  router.stop();
  frontend.stop();
  silent.stop();
  for (auto& backend : backends.servers) backend->stop();
}

TEST(FleetRouterFailure, RestartedMemberGetsOnlyItsOwnKeys) {
  // Two members with no cache, and a key cycle that alternates between the
  // keys each one owns. After ~20k GETs member 0 stops and restarts on the
  // same port. Routing reads only the key and link state, so from the
  // moment its link is back the restarted member takes its own keys, half
  // of every 100 ms window, and no history it lost in the restart.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 256;
  constexpr std::uint32_t kFleet = 2;
  constexpr int kClients = 3;
  constexpr std::uint64_t kGetsBeforeRestart = 20'000;
  constexpr int kWindows = 10;

  std::vector<std::uint64_t> owned[kFleet];
  for (std::uint64_t key = 0; key < kItems; ++key) {
    owned[fleet_owner(key, kFleetSeed, kFleet)].push_back(key);
  }
  std::vector<std::uint64_t> cycle;
  for (std::size_t i = 0; i < std::min(owned[0].size(), owned[1].size());
       ++i) {
    cycle.push_back(owned[0][i]);
    cycle.push_back(owned[1][i]);
  }
  ASSERT_GE(cycle.size(), 64u);

  Backends backends = start_backends(kNodes, kReplication, kItems);
  FeFleet fe = start_fe_fleet(backends, kNodes, kReplication, kItems,
                              /*cache=*/0, kFleet, "none");

  RouterConfig router_config;
  router_config.frontends = fe.endpoints;
  router_config.fleet_seed = kFleetSeed;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SyncClient client;
      if (!client.connect("127.0.0.1", router.port(), 3.0)) {
        wrong.fetch_add(1);
        return;
      }
      for (std::size_t i = 7 * static_cast<std::size_t>(c); !done.load();
           ++i) {
        const std::uint64_t key = cycle[i % cycle.size()];
        const auto reply = client.get(key, 5.0);
        if (!reply.has_value() || reply->type != MsgType::kValue ||
            reply->payload != make_value(key, 64)) {
          wrong.fetch_add(1);
          return;
        }
        answered.fetch_add(1);
      }
    });
  }

  ASSERT_TRUE(poll_until(60.0, [&] {
    return answered.load() >= kGetsBeforeRestart;
  }));
  const std::uint16_t member0_port = fe.endpoints[0].second;
  fe.members[0]->stop(0.0);
  ASSERT_TRUE(poll_until(5.0, [&] {
    return router_gauge(router, "router.frontends_up") == 1;
  }));
  FrontendConfig restarted = member_config(backends, kNodes, kReplication,
                                           kItems, /*cache=*/0, kFleet, 0);
  restarted.cache_policy = "none";
  restarted.port = member0_port;
  fe.members[0] = std::make_unique<FrontendServer>(restarted);
  ASSERT_TRUE(fe.members[0]->start());
  ASSERT_TRUE(fe.members[0]->wait_backends_up(5.0));
  ASSERT_TRUE(poll_until(5.0, [&] {
    return router_gauge(router, "router.frontends_up") == 2;
  }));

  std::uint64_t fe0 = router_counter(router, "router.dispatches.fe0");
  std::uint64_t fe1 = router_counter(router, "router.dispatches.fe1");
  for (int window = 0; window < kWindows; ++window) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t now0 = router_counter(router, "router.dispatches.fe0");
    const std::uint64_t now1 = router_counter(router, "router.dispatches.fe1");
    const std::uint64_t total = (now0 - fe0) + (now1 - fe1);
    ASSERT_GE(total, 20u) << "window " << window << ": too few dispatches";
    const double share =
        static_cast<double>(now0 - fe0) / static_cast<double>(total);
    EXPECT_GE(share, 0.35) << "window " << window;
    EXPECT_LE(share, 0.65) << "window " << window;
    fe0 = now0;
    fe1 = now1;
  }

  done.store(true);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(wrong.load(), 0u) << "every GET must be answered kValue";
  EXPECT_EQ(router_counter(router, "router.failures"), 0u);

  router.stop();
  for (auto& member : fe.members) member->stop();
  for (auto& backend : backends.servers) backend->stop();
}

TEST(FleetRouterFailure, RedirectToDownOwnerFailsAtOnce) {
  // A policy cache may hold only its owner's keys, so while the owner is
  // down its alternate answers kRedirect toward it and nobody can serve the
  // key. The router fails the GET on that first redirect instead of
  // bouncing it off the surviving member until the hop budget is spent.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  constexpr std::uint32_t kFleet = 2;

  Backends backends = start_backends(kNodes, kReplication, kItems);
  FeFleet fe = start_fe_fleet(backends, kNodes, kReplication, kItems,
                              /*cache=*/32, kFleet, "lru");

  RouterConfig router_config;
  router_config.frontends = fe.endpoints;
  router_config.fleet_seed = kFleetSeed;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  std::uint64_t key = kItems;
  for (std::uint64_t k = 0; k < kItems; ++k) {
    if (fleet_owner(k, kFleetSeed, kFleet) == 0) {
      key = k;
      break;
    }
  }
  ASSERT_LT(key, kItems);
  fe.members[0]->stop(0.0);
  ASSERT_TRUE(poll_until(5.0, [&] {
    return router_gauge(router, "router.frontends_up") == 1;
  }));

  const std::uint64_t attempts_before =
      router_counter(router, "router.attempts_total");
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), 3.0));
  const auto reply = client.get(key, 5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(reply->payload, "no live front end");
  EXPECT_EQ(router_counter(router, "router.attempts_total"),
            attempts_before + 1)
      << "one dispatch to the alternate, and no redirect followed";
  EXPECT_EQ(router_counter(router, "router.redirects_followed"), 0u);
  EXPECT_EQ(router_counter(router, "router.failures"), 1u);

  router.stop();
  for (auto& member : fe.members) member->stop();
  for (auto& backend : backends.servers) backend->stop();
}

}  // namespace
}  // namespace scp::net
