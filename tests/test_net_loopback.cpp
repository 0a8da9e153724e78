// Loopback integration tests for the live serving tier: real TCP servers on
// kernel-assigned ports, stood up by net::LocalTier and driven by the
// blocking SyncClient, plus the bare FrameLoop reactor echoing raw frame
// streams. A case builds a server by hand only to restart one on its port
// or to put a stand-in in a backend's place: the silent-backend cases pin
// the front end's liveness rule, that a backend reset for silence gets no
// forward until it answers a ping. Labeled slow — each case spins up
// servers and sleeps on real sockets.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/partitioner.h"
#include "fake_peer.h"
#include "loopback_tier.h"
#include "net/frame_loop.h"
#include "net/local_tier.h"
#include "net/socket.h"
#include "net/sync_client.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace scp::net {
namespace {

TEST(BackendLoopback, ServesOwnedKeysAndRedirectsOthers) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  BackendServer server(backend_template(kNodes, kReplication, kItems));
  ASSERT_TRUE(server.start());

  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::uint64_t owned = 0;
  std::uint64_t redirected = 0;
  for (std::uint64_t key = 0; key < kItems; ++key) {
    partitioner->replica_group(key, group);
    const bool owner = std::find(group.begin(), group.end(), NodeId{0}) !=
                       group.end();
    const auto reply = client.get(key);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    if (owner) {
      EXPECT_EQ(reply->type, MsgType::kValue);
      EXPECT_EQ(reply->payload, make_value(key, 64));
      ++owned;
    } else {
      ASSERT_EQ(reply->type, MsgType::kRedirect);
      EXPECT_EQ(reply->node, group[0]);
      ++redirected;
    }
  }
  EXPECT_GT(owned, 0u);
  EXPECT_GT(redirected, 0u);

  // Absent key on an owning node: MISS, not redirect. Find one we own.
  for (std::uint64_t key = kItems; key < kItems + 64; ++key) {
    partitioner->replica_group(key, group);
    if (std::find(group.begin(), group.end(), NodeId{0}) != group.end()) {
      const auto reply = client.get(key);
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(reply->type, MsgType::kMiss);
      break;
    }
  }

  Message metrics_request;
  metrics_request.type = MsgType::kMetricsRequest;
  const auto metrics = client.call(metrics_request);
  ASSERT_TRUE(metrics.has_value());
  ASSERT_EQ(metrics->type, MsgType::kMetricsReply);
  const auto& counters = metrics->metrics.counters;
  EXPECT_EQ(counters.at("backend.requests"), owned + redirected + 1);
  EXPECT_EQ(counters.at("backend.hits"), owned);
  EXPECT_EQ(counters.at("backend.redirects"), redirected);

  Message ping;
  ping.type = MsgType::kPing;
  const auto pong = client.call(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, MsgType::kPong);

  server.stop();
  EXPECT_FALSE(server.running());
}

// backend.keys is the live key count at scrape time: deleting a stored key
// and writing a new one both move it.
TEST(BackendLoopback, KeysGaugeFollowsWrites) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;  // d = n: node 0 owns every key
  constexpr std::uint64_t kItems = 32;
  BackendServer server(backend_template(kNodes, kReplication, kItems));
  ASSERT_TRUE(server.start());

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto keys_gauge = [&client]() -> std::int64_t {
    Message request;
    request.type = MsgType::kMetricsRequest;
    const auto reply = client.call(request, 2.0);
    if (!reply.has_value()) return -1;
    const auto it = reply->metrics.gauges.find("backend.keys");
    return it != reply->metrics.gauges.end() ? it->second : -1;
  };
  const auto write = [&client](MsgType type, std::uint64_t key) {
    Message request;
    request.type = type;
    request.key = key;
    if (type == MsgType::kPut) request.payload = "fresh";
    const auto reply = client.call(request, 2.0);
    return reply.has_value() && reply->type == MsgType::kWriteReply;
  };
  const auto items = static_cast<std::int64_t>(kItems);
  EXPECT_EQ(keys_gauge(), items);
  ASSERT_TRUE(write(MsgType::kDelete, 3));
  EXPECT_EQ(keys_gauge(), items - 1);
  ASSERT_TRUE(write(MsgType::kPut, kItems + 5));
  EXPECT_EQ(keys_gauge(), items);

  server.stop();
}

// The preload holds exactly the node's replica-group keys, each at the
// deterministic value and version 1 — for a key space scanned inline (one
// chunk) and one whose ownership scan is split across workers.
TEST(BackendPreload, StoresExactlyTheOwnedKeys) {
  constexpr std::uint32_t kNodes = 8;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint32_t kValueBytes = 48;
  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);
  for (const std::uint64_t items :
       {std::uint64_t{5'000}, std::uint64_t{100'000}}) {
    for (const NodeId node : {NodeId{0}, NodeId{5}}) {
      BackendConfig config = backend_template(kNodes, kReplication, items);
      config.node_id = node;
      config.value_bytes = kValueBytes;
      BackendServer server(config);
      ASSERT_TRUE(server.start());
      std::uint64_t owned = 0;
      for (std::uint64_t key = 0; key < items; ++key) {
        partitioner->replica_group(key, group);
        const bool owner =
            std::find(group.begin(), group.end(), node) != group.end();
        const auto entry = server.storage_entry(key);
        ASSERT_EQ(entry.has_value(), owner) << "m " << items << " key " << key;
        if (!owner) continue;
        ++owned;
        EXPECT_EQ(entry->value, make_value(key, kValueBytes));
        EXPECT_EQ(entry->version, 1u);
        EXPECT_FALSE(entry->tombstone);
      }
      EXPECT_GT(owned, 0u);
      EXPECT_FALSE(server.storage_entry(items).has_value());
      server.stop();
    }
  }
}

TEST(FrontendLoopback, ServesHitsLocallyAndForwardsMisses) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 128;
  constexpr std::size_t kCache = 16;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("perfect", kCache));
  ASSERT_TRUE(tier.start());
  for (const auto& backend : tier.backends) {
    EXPECT_NE(backend->port(), 0) << "port 0 must become kernel-assigned";
  }
  FrontendServer& frontend = *tier.frontends[0];
  EXPECT_NE(frontend.port(), 0) << "port 0 must become kernel-assigned";

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));

  // Every stored key resolves to its canonical value, cached or not.
  for (std::uint64_t key = 0; key < kItems; ++key) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    ASSERT_EQ(reply->type, MsgType::kValue) << "key " << key;
    EXPECT_EQ(reply->payload, make_value(key, 64));
  }
  // A key beyond the store is a clean MISS end to end.
  const auto miss = client.get(kItems + 5, 2.0);
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->type, MsgType::kMiss);

  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kItems + 1);
  EXPECT_EQ(stats.hits, kCache);  // the perfect cache serves exactly its head
  EXPECT_EQ(stats.misses, kItems + 1 - kCache);
  EXPECT_EQ(stats.forwarded, stats.misses);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.redirects, 0u);  // matching seeds: no bouncing
  // Healthy path: every forward is answered on the first wire send, and the
  // sequential client never has two fetches of one key in flight.
  EXPECT_EQ(stats.attempts, stats.forwarded);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                stats.failures);

  // Backend request counters account for every wire send.
  std::uint64_t backend_requests = 0;
  for (const auto& backend : tier.backends) {
    backend_requests += backend->stats().requests;
  }
  EXPECT_EQ(backend_requests, stats.attempts);
}

TEST(FrontendLoopback, FailsOverWhenAReplicaDies) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;

  FrontendConfig config = frontend_template("perfect", /*cache=*/0);
  config.retry.timeout_s = 0.2;  // keep the dead-replica detour quick
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  // Kill node 0; every key still resolves through the surviving replica.
  tier.backends[0]->stop(0.0);

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);
  std::uint64_t through_survivor = 0;
  for (std::uint64_t key = 0; key < kItems; ++key) {
    partitioner->replica_group(key, group);
    const auto reply = client.get(key, 3.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    ASSERT_EQ(reply->type, MsgType::kValue) << "key " << key;
    EXPECT_EQ(reply->payload, make_value(key, 64));
    if (std::find(group.begin(), group.end(), NodeId{0}) != group.end()) {
      ++through_survivor;
    }
  }
  EXPECT_GT(through_survivor, 0u)
      << "partition should give node 0 some keys for the test to mean much";
  EXPECT_EQ(frontend.stats().failures, 0u);
}

TEST(FrontendLoopback, ReportsErrorWhenEveryReplicaIsDead) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 16;

  FrontendConfig config = frontend_template("perfect", /*cache=*/4);
  config.retry.max_retries = 1;
  config.retry.timeout_s = 0.2;
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  for (auto& backend : tier.backends) backend->stop(0.0);

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  // Cached keys still serve from the front end with the whole fleet down.
  const auto cached = client.get(0, 2.0);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->type, MsgType::kValue);
  // Uncached keys exhaust the retry budget and fail loudly, not silently.
  const auto reply = client.get(10, 5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  EXPECT_GE(frontend.stats().failures, 1u);
}

TEST(FrontendLoopback, AdmitEvictsInSyncWithTier) {
  // Regression: a GET whose backend fetch comes back empty (kMiss) must
  // release the tier slot the lookup admitted. Before the fix the slot
  // stayed resident value-less: it consumed cache capacity, evicted real
  // entries, and its "hits" carried no bytes — silently turning cache hits
  // into forwards.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 8;
  constexpr std::size_t kCache = 4;

  // LRU: deterministic eviction order.
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("lru", kCache));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));

  // Fill the cache: keys 0..3 (LRU order: 0 oldest).
  for (std::uint64_t key = 0; key < 4; ++key) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
  }
  // An absent key: the lookup admits a tier slot (evicting key 0), the
  // backend answers kMiss — the fix releases that slot.
  const auto miss = client.get(100, 2.0);
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->type, MsgType::kMiss);
  // A new real key must fill the released slot WITHOUT evicting key 1.
  const auto fresh = client.get(4, 2.0);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_EQ(fresh->type, MsgType::kValue);
  // Key 1 is still resident with its bytes: this must be a cache hit.
  const auto hit = client.get(1, 2.0);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->type, MsgType::kValue);
  EXPECT_EQ(hit->payload, make_value(1, 64));

  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.hits, 1u)
      << "the kMiss-admitted slot leaked and evicted a resident entry";
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                stats.failures);
}

TEST(FrontendLoopback, StartRejectsAnUnknownCachePolicy) {
  // Checked before anything binds or dials, whatever the capacity.
  for (const std::size_t capacity : {0, 8}) {
    FrontendConfig config;
    config.nodes = 1;
    config.replication = 1;
    config.backends = {{"127.0.0.1", 1}};
    config.cache_policy = "bogus";
    config.cache_capacity = capacity;
    FrontendServer frontend(config);
    EXPECT_FALSE(frontend.start()) << "capacity " << capacity;
  }
  EXPECT_TRUE(known_cache_policy("perfect"));
  EXPECT_TRUE(known_cache_policy("none"));
  EXPECT_TRUE(known_cache_policy("slru"));
}

TEST(FrontendLoopback, CounterInvariantsUnderFailover) {
  // requests == hits + forwarded + coalesced + failures must hold through
  // replica death: orphaned in-flight requests are retried (attempts grows,
  // retries counts the re-sends) but each client GET is accounted exactly
  // once.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;

  FrontendConfig config = frontend_template("perfect", /*cache=*/0);
  config.retry.timeout_s = 0.2;
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  for (std::uint64_t key = 0; key < 16; ++key) {
    const auto reply = client.get(key, 3.0);
    ASSERT_TRUE(reply.has_value());
  }
  // Kill a replica mid-workload and keep querying: some keys detour.
  tier.backends[0]->stop(0.0);
  for (std::uint64_t key = 16; key < kItems; ++key) {
    const auto reply = client.get(key, 3.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
  }

  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kItems);
  EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                stats.failures)
      << "every GET must resolve to exactly one of "
         "hit/forwarded/coalesced/failure";
  EXPECT_GE(stats.attempts, stats.forwarded)
      << "attempts counts wire sends; answered requests can't exceed them";
  EXPECT_LE(stats.retries, stats.attempts);
  EXPECT_EQ(stats.failures, 0u) << "d=2 keeps every key available";

  // After the workload drains, no request may be stuck pending: a pinned
  // pending_total_ would burn stop()'s whole drain budget (the stop-drain
  // regression this PR fixes).
  const obs::MetricsSnapshot snap = frontend.metrics_snapshot();
  EXPECT_EQ(snap.gauges.at("frontend.pending_requests"), 0);

  const auto stop_started = std::chrono::steady_clock::now();
  frontend.stop(5.0);
  const double stop_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stop_started)
          .count();
  EXPECT_LT(stop_s, 4.0) << "stop() must not burn the full drain budget";
}

TEST(FrontendLoopback, CoalescedWaitersFailOverWithTheLead) {
  // Replica-death failover under single-flight coalescing: clients parked
  // on an in-flight forward must ride the *lead's* retries — one forward
  // fails over, not one per waiter — and settle with exactly one coalesced
  // ledger entry each, no double-counted RTT samples.
  //
  // Deterministic setup: the whole cluster is down, and the front end knows
  // it, when the GETs arrive, so the lead parks on the no-live-replica
  // backoff timer and every later GET for the key parks as a waiter. The
  // backends then come back on their old ports; the lead's next retry
  // forwards once and the reply fans out.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 32;
  constexpr std::uint64_t kKey = 5;
  constexpr std::size_t kClients = 4;

  FrontendConfig config = frontend_template("perfect", /*cache=*/0);
  // The lead must keep retrying across the reconnect window (backoff cap
  // 1 s) without exhausting its attempt budget.
  config.retry.max_retries = 30;
  config.retry.backoff_base_s = 0.050;
  config.retry.backoff_cap_s = 0.200;
  config.retry.timeout_s = 8.0;
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  for (auto& backend : tier.backends) backend->stop(0.0);
  ASSERT_TRUE(eventually([&frontend] {
    return frontend.metrics_snapshot().gauges.at("frontend.backends_up") == 0;
  }));

  std::atomic<std::uint64_t> values{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&frontend, &values] {
      SyncClient client;
      if (!client.connect("127.0.0.1", frontend.port(), 3.0)) return;
      const auto reply = client.get(kKey, 10.0);
      if (reply.has_value() && reply->type == MsgType::kValue &&
          reply->payload == make_value(kKey, 64)) {
        values.fetch_add(1);
      }
    });
  }
  // Wait until all four GETs are inside the front end (one lead in backoff,
  // three parked waiters) before reviving the cluster.
  ASSERT_TRUE(eventually(
      [&frontend] { return frontend.stats().requests >= kClients; }));
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    BackendConfig restarted = tier.backends[node]->config();
    restarted.port = tier.endpoints[node].second;
    tier.backends[node] = std::make_unique<BackendServer>(restarted);
    ASSERT_TRUE(tier.backends[node]->start());
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(values.load(), kClients) << "every parked client must get the "
                                        "value after the cluster returns";

  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.forwarded, 1u)
      << "one lead forward serves the key; waiters must not fail over "
         "individually";
  EXPECT_EQ(stats.coalesced, kClients - 1);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                stats.failures);

  // No double counting: the one answered forward contributes exactly one
  // RTT/attempt sample; the waiters only tick the end-to-end request timer.
  const obs::MetricsSnapshot snap = frontend.metrics_snapshot();
  EXPECT_EQ(snap.timers.at("frontend.forward_rtt_us").count(), 1u);
  EXPECT_EQ(snap.timers.at("frontend.attempts").count(), 1u);
  EXPECT_EQ(snap.timers.at("frontend.request_us").count(), stats.requests);
  EXPECT_EQ(snap.gauges.at("frontend.pending_requests"), 0);
}

TEST(FrontendLoopback, ReconnectAfterFlappingBackend) {
  // A backend that dies and returns on the same port must be re-adopted:
  // wait_backends_up succeeds again after each flap, requests flow, and the
  // conn -> node map does not leak stale entries.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 32;

  FrontendConfig config = frontend_template("perfect", /*cache=*/0);
  config.retry.timeout_s = 0.2;
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));

  for (int flap = 0; flap < 3; ++flap) {
    tier.backends[0]->stop(0.0);
    // Give the front end a moment to notice the close and begin its backoff
    // (a failed connect attempt must not wedge the reconnect loop).
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    BackendConfig restarted = tier.backends[0]->config();
    restarted.port = tier.endpoints[0].second;
    tier.backends[0] = std::make_unique<BackendServer>(restarted);
    ASSERT_TRUE(tier.backends[0]->start()) << "flap " << flap;
    ASSERT_TRUE(frontend.wait_backends_up(10.0))
        << "flap " << flap
        << ": reconnect backoff must reset after a successful connect";

    for (std::uint64_t key = 0; key < kItems; ++key) {
      const auto reply = client.get(key, 3.0);
      ASSERT_TRUE(reply.has_value()) << "flap " << flap << " key " << key;
      ASSERT_EQ(reply->type, MsgType::kValue);
    }
  }

  // One live connection per backend — flapping must not leak stale
  // conn -> node entries. (Read after the loop settles; the map only
  // changes on connect/close events, none of which are in flight now.)
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(frontend.backend_conn_entries(), kNodes);
  EXPECT_EQ(frontend.stats().failures, 0u);
}

/// A d = n = 2 tier whose node 0 is silent and node 1 a real backend, in
/// front of it a front end without a cache and with a 0.2 s deadline.
constexpr std::uint64_t kSilentTierItems = 4096;
constexpr double kSilentTierTimeoutS = 0.2;

struct SilentTier {
  FakePeer silent;
  std::unique_ptr<BackendServer> live;
  std::unique_ptr<FrontendServer> frontend;

  std::int64_t backends_up() const {
    return frontend->metrics_snapshot().gauges.at("frontend.backends_up");
  }
};

void start_silent_tier(SilentTier& tier) {
  ASSERT_TRUE(tier.silent.start());
  BackendConfig live = backend_template(2, 2, kSilentTierItems);
  live.node_id = 1;
  tier.live = std::make_unique<BackendServer>(live);
  ASSERT_TRUE(tier.live->start());
  FrontendConfig config = frontend_template("perfect", /*cache=*/0);
  config.nodes = 2;
  config.replication = 2;
  config.partition_seed = kPartitionSeed;
  config.backends = {{"127.0.0.1", tier.silent.port()},
                     {"127.0.0.1", tier.live->port()}};
  config.retry.timeout_s = kSilentTierTimeoutS;
  tier.frontend = std::make_unique<FrontendServer>(config);
  ASSERT_TRUE(tier.frontend->start());
  ASSERT_TRUE(tier.frontend->wait_backends_up(5.0));
}

/// GETs keys first, first+1, ... through `client` until `done()` holds,
/// each answered kValue; returns how many waited out the deadline.
int get_until(SyncClient& client, std::uint64_t first,
              const std::function<bool()>& done) {
  using Clock = std::chrono::steady_clock;
  int slow = 0;
  for (std::uint64_t key = first; !done(); ++key) {
    const auto sent = Clock::now();
    const auto reply = client.get(key % kSilentTierItems, 5.0);
    EXPECT_TRUE(reply.has_value() && reply->type == MsgType::kValue)
        << "key " << key % kSilentTierItems;
    if (std::chrono::duration<double>(Clock::now() - sent).count() >=
        kSilentTierTimeoutS) {
      ++slow;
    }
  }
  return slow;
}

TEST(FrontendLoopback, SilentBackendStaysOutOfRoutingUntilItAnswers) {
  // Backend 0 accepts and never replies. The first fresh key pinned to it
  // waits out the deadline; its link is then reset and re-dialed, but stays
  // down until backend 0 answers a ping. So the least-loaded pick, which
  // would favour the backend that got the fewest forwards, never sends it
  // another key.
  SilentTier tier;
  ASSERT_NO_FATAL_FAILURE(start_silent_tier(tier));
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", tier.frontend->port()));
  const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  const int slow = get_until(client, 0, [&] {
    return std::chrono::steady_clock::now() >= end;
  });
  EXPECT_LE(slow, 1) << "GETs that waited out the deadline";
  EXPECT_EQ(tier.silent.get_keys(), 1u) << "keys sent to the silent backend";
  EXPECT_GE(tier.silent.pings(), 1u) << "the reset link was never probed";
  EXPECT_EQ(tier.backends_up(), 1);
  EXPECT_EQ(tier.frontend->stats().failures, 0u);
  tier.frontend->stop();
}

TEST(FrontendLoopback, SilentBackendRejoinsOnceABackendAnswersOnItsPort) {
  SilentTier tier;
  ASSERT_NO_FATAL_FAILURE(start_silent_tier(tier));
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", tier.frontend->port()));
  get_until(client, 0, [&] { return tier.silent.get_keys() > 0; });
  ASSERT_TRUE(eventually([&] { return tier.silent.pings() > 0; }))
      << "the reset link was never probed";
  EXPECT_EQ(tier.backends_up(), 1);

  // A real backend 0 takes over the silent one's port and answers the next
  // probe: the link comes up, and fresh keys are forwarded to it again.
  const std::uint16_t port = tier.silent.port();
  tier.silent.stop();
  BackendConfig config = backend_template(2, 2, kSilentTierItems);
  config.port = port;
  BackendServer revived(config);
  ASSERT_TRUE(revived.start());
  EXPECT_TRUE(eventually([&] { return tier.backends_up() == 2; }));
  const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  get_until(client, kSilentTierItems / 2, [&] {
    return revived.stats().requests > 0 ||
           std::chrono::steady_clock::now() >= end;
  });
  EXPECT_GT(revived.stats().requests, 0u) << "no forward reached node 0";
  EXPECT_EQ(tier.frontend->stats().failures, 0u);
  tier.frontend->stop();
  revived.stop();
}

TEST(FrontendLoopback, ProbesAreNeverPendingAndStopDoesNotWaitOnThem) {
  // A probe belongs to the link module: it is not a pending request, so
  // neither the gauge nor a draining stop() ever waits on one.
  SilentTier tier;
  ASSERT_NO_FATAL_FAILURE(start_silent_tier(tier));
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", tier.frontend->port()));
  get_until(client, 0, [&] { return tier.silent.get_keys() > 0; });
  const auto pending = [&] {
    return tier.frontend->metrics_snapshot().gauges.at(
        "frontend.pending_requests");
  };
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  while (std::chrono::steady_clock::now() < end) {
    ASSERT_EQ(pending(), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Stop right after a probe went out, while it awaits its reply.
  const std::uint64_t pings = tier.silent.pings();
  ASSERT_GE(pings, 1u) << "the reset link was never probed";
  ASSERT_TRUE(eventually([&] { return tier.silent.pings() > pings; }));
  const auto start = std::chrono::steady_clock::now();
  tier.frontend->stop(/*drain_s=*/5.0);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0);
}

TEST(FrontendLoopback, ServesMetricsSnapshotOverTheWire) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  constexpr std::size_t kCache = 8;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("perfect", kCache));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  for (std::uint64_t key = 0; key < kItems; ++key) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
  }

  Message request;
  request.type = MsgType::kMetricsRequest;
  const auto reply = client.call(request, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kMetricsReply);
  const obs::MetricsSnapshot& m = reply->metrics;

  // Counters mirror ServerStats, field by field.
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(m.counters.at("frontend.requests"), stats.requests);
  EXPECT_EQ(m.counters.at("frontend.hits"), stats.hits);
  EXPECT_EQ(m.counters.at("frontend.misses"), stats.misses);
  EXPECT_EQ(m.counters.at("frontend.redirects"), stats.redirects);
  EXPECT_EQ(m.counters.at("frontend.forwarded"), stats.forwarded);
  EXPECT_EQ(m.counters.at("frontend.coalesced"), stats.coalesced);
  EXPECT_EQ(m.counters.at("frontend.retries"), stats.retries);
  EXPECT_EQ(m.counters.at("frontend.failures"), stats.failures);
  EXPECT_EQ(m.counters.at("frontend.attempts_total"), stats.attempts);
  EXPECT_EQ(m.counters.at("frontend.puts"), stats.puts);
  EXPECT_EQ(m.counters.at("frontend.deletes"), stats.deletes);
  EXPECT_EQ(m.counters.at("frontend.invalidations"), stats.invalidations);
  EXPECT_EQ(stats.requests, kItems);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.attempts, 0u);
  EXPECT_EQ(m.gauges.at("frontend.backends_up"),
            static_cast<std::int64_t>(kNodes));

  // Histograms: one request_us sample per answered GET, one forward RTT per
  // backend-served miss, and the attempts distribution (all 1 here).
  ASSERT_EQ(m.timers.count("frontend.request_us"), 1u);
  EXPECT_EQ(m.timers.at("frontend.request_us").count(), stats.requests);
  ASSERT_EQ(m.timers.count("frontend.forward_rtt_us"), 1u);
  EXPECT_EQ(m.timers.at("frontend.forward_rtt_us").count(), stats.forwarded);
  ASSERT_EQ(m.timers.count("frontend.attempts"), 1u);
  EXPECT_EQ(m.timers.at("frontend.attempts").value_at_quantile(1.0), 1u);

  // Backends answer the same protocol message.
  SyncClient backend_client;
  ASSERT_TRUE(backend_client.connect("127.0.0.1", tier.endpoints[0].second));
  const auto be_reply = backend_client.call(request, 2.0);
  ASSERT_TRUE(be_reply.has_value());
  ASSERT_EQ(be_reply->type, MsgType::kMetricsReply);
  EXPECT_EQ(be_reply->metrics.counters.at("backend.requests"),
            tier.backends[0]->stats().requests);
  EXPECT_EQ(be_reply->metrics.timers.at("backend.service_us").count(),
            tier.backends[0]->stats().requests);
}

// A frame of an unknown type is a protocol error: the reactor drops the
// connection, counts it, and the count is exported as loop.protocol_errors
// next to loop.accepted.
TEST(FrontendLoopback, ExportsProtocolErrorsAndAccepts) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 16;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("perfect", /*cache=*/4));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  // Length 5, then type 0x7f (unassigned) and request id 0.
  const std::uint8_t bad_frame[] = {0, 0, 0, 5, 0x7f, 0, 0, 0, 0};
  Socket raw = connect_tcp("127.0.0.1", frontend.port(), 2.0);
  ASSERT_TRUE(raw.valid());
  ASSERT_EQ(::send(raw.fd(), bad_frame, sizeof(bad_frame), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(bad_frame)));
  // The server hangs up once it has counted the error.
  pollfd pfd{raw.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1);
  std::uint8_t byte = 0;
  EXPECT_LE(::recv(raw.fd(), &byte, 1, 0), 0);

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  Message request;
  request.type = MsgType::kMetricsRequest;
  const auto reply = client.call(request, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kMetricsReply);
  const auto& counters = reply->metrics.counters;
  ASSERT_EQ(counters.count("loop.protocol_errors"), 1u);
  EXPECT_GE(counters.at("loop.protocol_errors"), 1u);
  ASSERT_EQ(counters.count("loop.accepted"), 1u);
  EXPECT_GE(counters.at("loop.accepted"), 2u);
  EXPECT_EQ(counters.at("loop.protocol_errors"),
            frontend.loop_totals().protocol_errors);
}

TEST(FrontendLoopback, GracefulStopAnswersInFlightRequests) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 256;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("perfect", /*cache=*/0));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  for (std::uint64_t key = 0; key < 32; ++key) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MsgType::kValue);
  }
  frontend.stop(2.0);
  EXPECT_FALSE(frontend.running());
}

/// Makes `loop` an echo server: every decoded message is sent straight back.
void make_echo(FrameLoop& loop) {
  Reactor::Callbacks callbacks;
  callbacks.on_message = [&loop](ConnId conn, Message&& message) {
    loop.send(conn, message);
  };
  loop.set_callbacks(std::move(callbacks));
}

TEST(FrameLoopEcho, BackToBackFramesEchoInOrder) {
  // A multi-kilobyte blast written back to back arrives in arbitrary read
  // chunks; the loop must reassemble and echo every frame, in order,
  // without losing a byte of the stream.
  FrameLoop loop;
  make_echo(loop);
  ASSERT_TRUE(loop.listen("127.0.0.1", 0));
  ASSERT_TRUE(loop.start());

  // Raw socket so the whole blast goes out back to back instead of the
  // one-frame-at-a-time cadence a sync call() would produce.
  Socket sock = connect_tcp("127.0.0.1", loop.port(), /*timeout_s=*/2.0);
  ASSERT_TRUE(sock.valid());

  constexpr int kFrames = 200;
  std::vector<std::uint8_t> blast;
  for (int i = 0; i < kFrames; ++i) {
    Message message;
    message.type = MsgType::kValue;
    message.key = static_cast<std::uint64_t>(i);
    message.payload.assign(512, static_cast<char>('a' + (i % 26)));
    const std::vector<std::uint8_t> frame = encode(message);
    blast.insert(blast.end(), frame.begin(), frame.end());
  }
  std::size_t sent = 0;
  while (sent < blast.size()) {
    const ssize_t n =
        ::send(sock.fd(), blast.data() + sent, blast.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }

  FrameReader reader;
  std::vector<Message> replies;
  std::uint8_t chunk[4096];
  while (replies.size() < kFrames) {
    const ssize_t n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "peer closed after " << replies.size() << " replies";
    reader.append({chunk, static_cast<std::size_t>(n)});
    while (auto frame = reader.next_frame()) {
      auto reply = decode_payload(*frame);
      ASSERT_TRUE(reply.has_value());
      replies.push_back(std::move(*reply));
    }
  }

  // Stream-exact echo: every frame back, in order, payloads intact.
  ASSERT_EQ(replies.size(), kFrames);
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(replies[i].key, static_cast<std::uint64_t>(i));
    EXPECT_EQ(replies[i].payload.size(), 512u);
    EXPECT_EQ(replies[i].payload[0], static_cast<char>('a' + (i % 26)));
  }
  EXPECT_EQ(loop.counters().frames_in.load(), kFrames);
  EXPECT_EQ(loop.counters().frames_out.load(), kFrames);
  EXPECT_EQ(loop.counters().protocol_errors.load(), 0u);

  sock.reset();
  loop.stop(0.5);
}

TEST(FrameLoopEcho, ServesSequentialClients) {
  // The listener keeps accepting after each connection: N sequential
  // clients must all get served.
  FrameLoop loop;
  make_echo(loop);
  ASSERT_TRUE(loop.listen("127.0.0.1", 0));
  ASSERT_TRUE(loop.start());

  constexpr int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    SyncClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", loop.port(), 2.0))
        << "client " << i << " could not connect";
    // kGet, not kPing: the wire format only carries `key` for key-bearing
    // message types, and the echoed key is how we tell replies apart.
    Message request;
    request.type = MsgType::kGet;
    request.key = static_cast<std::uint64_t>(i);
    const auto reply = client.call(request, 2.0);
    ASSERT_TRUE(reply.has_value()) << "client " << i;
    EXPECT_EQ(reply->type, MsgType::kGet);
    EXPECT_EQ(reply->key, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(loop.counters().accepted.load(), kClients);
  loop.stop(0.5);
}

}  // namespace
}  // namespace scp::net
