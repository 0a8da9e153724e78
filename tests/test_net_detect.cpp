// Loopback tests for hot-key attack detection and mitigation, plus the
// front-end cache regressions fixed alongside it:
//
//   * cache_lookup must not refresh (or re-admit) a value-less tier slot —
//     pre-fix, every request for an in-flight key kept its empty slot
//     maximally fresh, evicting real entries (exactly what a miss-flood
//     exploits).
//   * a forwarded MISS must settle a dirty perfect-oracle key, or deleted
//     keys leak dirty entries and forward forever.
//   * the values side-map holds only the bytes of keys the policy holds
//     (its eviction listener erases the rest), so it never outgrows c.
//   * perfect-oracle re-provisioning swaps keys within each shard's slice
//     of [0, c), so the shards together never serve more than c keys, and
//     a write reaches a re-provisioned key, in a fleet too: a member that
//     does not own it bounces the write to the owner.
//   * the detection pipeline end to end: backends sketch their served GETs,
//     gossip kHotKeyReports over the replica mesh, push them to subscribed
//     front ends; the front end flags keys hot at the backends but absent
//     from its cache and warms them; an adaptive shift of the attacked key
//     set is re-detected and re-mitigated.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/partitioner.h"
#include "net/backend_server.h"
#include "net/fleet.h"
#include "net/frontend_server.h"
#include "net/router_server.h"
#include "net/sync_client.h"
#include "obs/metrics.h"

namespace scp::net {
namespace {

constexpr std::uint64_t kPartitionSeed = 77;

BackendConfig backend_config(std::uint32_t node_id, std::uint32_t nodes,
                             std::uint32_t replication, std::uint64_t items) {
  BackendConfig config;
  config.node_id = node_id;
  config.nodes = nodes;
  config.replication = replication;
  config.partition_seed = kPartitionSeed;
  config.items = items;
  return config;
}

struct Fleet {
  std::vector<std::unique_ptr<BackendServer>> backends;
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
};

Fleet start_fleet(std::uint32_t nodes, std::uint32_t replication,
                  std::uint64_t items, bool detect = false,
                  double detect_interval_s = 0.05,
                  std::uint64_t detect_min_samples = 256) {
  Fleet fleet;
  for (std::uint32_t node = 0; node < nodes; ++node) {
    BackendConfig config = backend_config(node, nodes, replication, items);
    config.detect = detect;
    config.detect_interval_s = detect_interval_s;
    config.detect_min_samples = detect_min_samples;
    auto backend = std::make_unique<BackendServer>(config);
    EXPECT_TRUE(backend->start());
    fleet.endpoints.emplace_back("127.0.0.1", backend->port());
    fleet.backends.push_back(std::move(backend));
  }
  return fleet;
}

void mesh_fleet(Fleet& fleet) {
  for (auto& backend : fleet.backends) backend->set_peers(fleet.endpoints);
  for (auto& backend : fleet.backends) {
    ASSERT_TRUE(backend->wait_peers_up(5.0));
  }
}

FrontendConfig frontend_config(const Fleet& fleet, std::uint32_t nodes,
                               std::uint32_t replication,
                               std::uint64_t items) {
  FrontendConfig config;
  config.nodes = nodes;
  config.replication = replication;
  config.partition_seed = kPartitionSeed;
  config.backends = fleet.endpoints;
  config.items = items;
  return config;
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : 0;
}

std::int64_t gauge(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it != snap.gauges.end() ? it->second : 0;
}

/// Sends GETs for `keys` straight to their replicas for `seconds`: hot at
/// the backends, never seen by the front end — the miss-flood signature
/// the front-end mitigation keys on.
void hammer_backends(const Fleet& fleet, std::uint32_t replication,
                     const std::vector<std::uint64_t>& keys, double seconds) {
  const auto nodes = static_cast<std::uint32_t>(fleet.backends.size());
  auto partitioner =
      make_partitioner("hash", nodes, replication, kPartitionSeed);
  std::vector<NodeId> group(replication);
  std::vector<SyncClient> to_backend(nodes);
  for (std::uint32_t node = 0; node < nodes; ++node) {
    ASSERT_TRUE(to_backend[node].connect("127.0.0.1",
                                         fleet.backends[node]->port()));
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  for (std::size_t turn = 0; std::chrono::steady_clock::now() < deadline;
       ++turn) {
    for (const std::uint64_t key : keys) {
      partitioner->replica_group(key, group);
      const auto reply = to_backend[group[turn % group.size()]].get(key, 2.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
    }
  }
}

void expect_consistent(const ServerStats& stats) {
  EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                stats.failures)
      << "requests=" << stats.requests << " hits=" << stats.hits
      << " forwarded=" << stats.forwarded << " coalesced=" << stats.coalesced
      << " failures=" << stats.failures;
}

// --- regression: lookup must not refresh a value-less slot ----------------

TEST(DetectLoopback, LookupDoesNotRefreshValuelessSlots) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 64;

  // Node 1 exists only long enough to claim a real port, then dies: its
  // keys can never be fetched, so their admitted slots stay value-less.
  Fleet fleet = start_fleet(kNodes, kReplication, kItems);
  fleet.backends[1]->stop(0.0);

  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);
  const auto owner = [&](std::uint64_t key) {
    partitioner->replica_group(key, group);
    return group[0];
  };
  // Three live keys (node 0) and one dead key (node 1).
  std::vector<std::uint64_t> live;
  std::uint64_t dead = kItems;
  for (std::uint64_t key = 0; key < kItems; ++key) {
    if (owner(key) == 0 && live.size() < 3) live.push_back(key);
    if (owner(key) == 1 && dead == kItems) dead = key;
  }
  ASSERT_EQ(live.size(), 3u);
  ASSERT_LT(dead, kItems);
  const std::uint64_t a = live[0], b = live[1], d = live[2];

  FrontendConfig config =
      frontend_config(fleet, kNodes, kReplication, kItems);
  config.cache_policy = "lru";
  config.cache_capacity = 2;
  // Keep the dead key's request retrying (slot value-less) for the whole
  // sequence instead of failing fast.
  config.retry.max_retries = 20;
  config.retry.backoff_base_s = 0.3;
  config.retry.backoff_cap_s = 0.3;
  config.retry.timeout_s = 10.0;
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  // wait_backends_up counts every node and node 1 is dead by design: wait
  // for node 0 by retrying the first fetch until its connection is up.

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  SyncClient impatient;
  ASSERT_TRUE(impatient.connect("127.0.0.1", frontend.port()));

  // LRU capacity 2. GET a → [a]. GET dead admits a value-less slot → [a,
  // dead]. GET b evicts a → [dead, b]. GET dead again: pre-fix the lookup's
  // access() refreshed the value-less slot ([b, dead]); fixed, it leaves
  // recency alone ([dead, b]). GET d evicts the LRU head: fixed → dead goes
  // ([b, d]); pre-fix → b goes. The final GET b is a cache hit only with
  // the fix.
  std::optional<Message> reply;
  const auto warm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < warm_deadline) {
    reply = client.get(a, /*timeout_s=*/2.0);
    if (reply.has_value()) break;
    ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);

  EXPECT_FALSE(impatient.get(dead, /*timeout_s=*/0.2).has_value());
  ASSERT_TRUE(impatient.connect("127.0.0.1", frontend.port()));

  reply = client.get(b, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);

  EXPECT_FALSE(impatient.get(dead, /*timeout_s=*/0.2).has_value());

  reply = client.get(d, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);

  const std::uint64_t hits_before = frontend.stats().hits;
  reply = client.get(b, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);
  EXPECT_EQ(reply->payload, make_value(b, 64));
  EXPECT_EQ(frontend.stats().hits, hits_before + 1)
      << "value-less slot refresh evicted a resident entry";

  frontend.stop(0.0);
}

// --- regression: forwarded MISS settles a dirty oracle key ----------------

TEST(DetectLoopback, ForwardedMissCleansDirtyOracleKey) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 64;
  constexpr std::size_t kCapacity = 8;

  Fleet fleet = start_fleet(kNodes, kReplication, kItems);
  FrontendConfig config =
      frontend_config(fleet, kNodes, kReplication, kItems);
  config.cache_policy = "perfect";
  config.cache_capacity = kCapacity;
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const std::uint64_t key = 3;  // < kCapacity: oracle-cached
  auto reply = client.get(key, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);  // oracle hit

  Message erase;
  erase.type = MsgType::kDelete;
  erase.key = key;
  reply = client.call(erase, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kWriteReply);
  EXPECT_EQ(gauge(frontend.metrics_snapshot(), "frontend.dirty_keys"), 1);

  // The delete dirtied the oracle slot; the fetch relays the backend's
  // authoritative MISS — which must also settle the dirty marker.
  reply = client.get(key, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kMiss);
  EXPECT_EQ(gauge(frontend.metrics_snapshot(), "frontend.dirty_keys"), 0)
      << "forwarded MISS left the key dirty forever";

  // Pinned semantics of the trade: once settled, the oracle synthesizes
  // again (Assumption 2 models capacity, not deletions).
  reply = client.get(key, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);
  EXPECT_EQ(reply->payload, make_value(key, 64));

  const ServerStats stats = frontend.stats();
  expect_consistent(stats);
  EXPECT_EQ(stats.hits, 2u);       // first and last GET
  EXPECT_EQ(stats.forwarded, 2u);  // the DELETE and the MISS fetch
  frontend.stop(0.0);
}

// --- regression: the values side-map holds only what the policy holds ------

TEST(DetectLoopback, ValuesSideMapStaysBounded) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 256;
  constexpr std::size_t kCapacity = 16;

  Fleet fleet = start_fleet(kNodes, kReplication, kItems);
  FrontendConfig config =
      frontend_config(fleet, kNodes, kReplication, kItems);
  config.cache_policy = "lru";
  config.cache_capacity = kCapacity;
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  // Every GET is a new key: once the LRU is full each one evicts a key,
  // whose bytes must leave with it.
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const auto entries = [&] {
    return gauge(frontend.metrics_snapshot(), "frontend.values_entries");
  };
  for (std::uint64_t key = 0; key < 200; ++key) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    ASSERT_EQ(reply->type, MsgType::kValue);
    ASSERT_LE(entries(), static_cast<std::int64_t>(kCapacity))
        << "after key " << key;
  }
  EXPECT_EQ(entries(), static_cast<std::int64_t>(kCapacity));
  frontend.stop(0.0);
}

// --- detection + mitigation, adaptive adversary ---------------------------

TEST(DetectLoopback, DetectsMissFloodMitigatesAndTracksShift) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 512;

  Fleet fleet = start_fleet(kNodes, kReplication, kItems, /*detect=*/true,
                            /*detect_interval_s=*/0.05,
                            /*detect_min_samples=*/128);
  mesh_fleet(fleet);

  FrontendConfig config =
      frontend_config(fleet, kNodes, kReplication, kItems);
  config.cache_policy = "lru";
  config.cache_capacity = 24;
  config.detect = true;
  config.detect_min_samples = 128;
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);

  // The "attack" hammers backends directly: hot at the backends, absent
  // from the front end — the miss-flood signature the FE mitigation keys
  // on. (Real attack traffic reaches backends through FE misses; skipping
  // the FE keeps its cache provably cold until mitigation warms it.)
  std::vector<SyncClient> to_backend(kNodes);
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    ASSERT_TRUE(to_backend[node].connect("127.0.0.1",
                                         fleet.backends[node]->port()));
  }
  const auto hammer = [&](const std::vector<std::uint64_t>& keys,
                          double seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    std::size_t turn = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const std::uint64_t key : keys) {
        partitioner->replica_group(key, group);
        const NodeId node = group[turn % group.size()];
        const auto reply = to_backend[node].get(key, 2.0);
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(reply->type, MsgType::kValue);
      }
      ++turn;
    }
  };

  const std::vector<std::uint64_t> phase1 = {3, 17, 42, 99, 123, 200};
  hammer(phase1, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Backends: every node sketched its slice, gossiped it, aggregated the
  // cluster view and flagged the attack keys.
  const obs::MetricsSnapshot be = fleet.backends[0]->metrics_snapshot();
  EXPECT_GT(counter(be, "detect.observed"), 0u);
  EXPECT_GT(counter(be, "detect.reports_sent"), 0u);
  EXPECT_GT(counter(be, "detect.reports_received"), 0u);
  EXPECT_GT(counter(be, "detect.flagged_keys"), 0u);
  EXPECT_GE(gauge(be, "detect.hot_keys"), 1);

  // Front end: subscribed pushes arrived, keys were flagged and warmed.
  obs::MetricsSnapshot fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.reports_received"), 0u);
  const std::uint64_t flagged_phase1 = counter(fe, "detect.flagged_keys");
  EXPECT_GT(flagged_phase1, 0u);
  EXPECT_GT(counter(fe, "detect.prefetches"), 0u);

  // Mitigation converged: the attacked keys now hit the FE cache.
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const auto fe_hits = [&] { return frontend.stats().hits; };
  std::uint64_t hits_before = fe_hits();
  for (const std::uint64_t key : phase1) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    EXPECT_EQ(reply->payload, make_value(key, 64));
  }
  EXPECT_GT(fe_hits(), hits_before)
      << "no flagged key was served from the warmed cache";

  // Adaptive adversary: shift the attacked key set. The aged sketches
  // retire the old phase; the new keys must be re-detected and re-warmed.
  const std::vector<std::uint64_t> phase2 = {301, 333, 377, 401, 444, 480};
  hammer(phase2, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.flagged_keys"), flagged_phase1)
      << "shifted attack set was never re-detected";
  hits_before = fe_hits();
  for (const std::uint64_t key : phase2) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
  }
  EXPECT_GT(fe_hits(), hits_before);

  expect_consistent(frontend.stats());
  frontend.stop(0.0);
}

// --- perfect provision: flagged keys re-provision the cached set ----------

TEST(DetectLoopback, PerfectCacheReprovisionsForFlaggedKeys) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 512;
  constexpr std::uint64_t kCapacity = 8;

  Fleet fleet = start_fleet(kNodes, kReplication, kItems, /*detect=*/true,
                            /*detect_interval_s=*/0.05,
                            /*detect_min_samples=*/128);
  mesh_fleet(fleet);

  FrontendConfig config =
      frontend_config(fleet, kNodes, kReplication, kItems);
  config.cache_policy = "perfect";
  config.cache_capacity = kCapacity;
  config.detect = true;
  config.detect_min_samples = 128;
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  // Attack keys far outside the provisioned oracle prefix [0, 8): a static
  // perfect provision forwards every one of these, forever.
  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);
  std::vector<SyncClient> to_backend(kNodes);
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    ASSERT_TRUE(to_backend[node].connect("127.0.0.1",
                                         fleet.backends[node]->port()));
  }
  const std::vector<std::uint64_t> attack = {100, 217, 350, 470};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  std::size_t turn = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const std::uint64_t key : attack) {
      partitioner->replica_group(key, group);
      const auto reply = to_backend[group[turn % group.size()]].get(key, 2.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
    }
    ++turn;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const obs::MetricsSnapshot fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.flagged_keys"), 0u);
  EXPECT_GT(counter(fe, "detect.reprovisioned"), 0u);
  // No tier to warm: re-provision synthesizes locally, no prefetches.
  EXPECT_EQ(counter(fe, "detect.prefetches"), 0u);

  // The flagged keys now hit the re-provisioned cache instead of
  // forwarding; prefix keys displaced by them simply forward (the cached
  // set never exceeds the provisioned capacity).
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const std::uint64_t hits_before = frontend.stats().hits;
  for (const std::uint64_t key : attack) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    EXPECT_EQ(reply->payload, make_value(key, 64));
  }
  EXPECT_GT(frontend.stats().hits, hits_before)
      << "no flagged key was served from the re-provisioned set";
  expect_consistent(frontend.stats());
  frontend.stop(0.0);
}

// --- perfect provision: re-provisioning stays inside each shard's slice ---

/// A perfect-oracle front end with detection over 3 meshed detecting
/// backends (d = 2, m = 512, c = 8), as in
/// PerfectCacheReprovisionsForFlaggedKeys.
constexpr std::uint32_t kOracleNodes = 3;
constexpr std::uint32_t kOracleReplication = 2;
constexpr std::uint64_t kOracleItems = 512;
constexpr std::uint64_t kOracleCapacity = 8;
const std::vector<std::uint64_t> kOracleAttack = {100, 217, 350, 470};

Fleet start_oracle_fleet() {
  Fleet fleet = start_fleet(kOracleNodes, kOracleReplication, kOracleItems,
                            /*detect=*/true, /*detect_interval_s=*/0.05,
                            /*detect_min_samples=*/128);
  mesh_fleet(fleet);
  return fleet;
}

FrontendConfig oracle_config(const Fleet& fleet) {
  FrontendConfig config = frontend_config(fleet, kOracleNodes,
                                          kOracleReplication, kOracleItems);
  config.cache_policy = "perfect";
  config.cache_capacity = kOracleCapacity;
  config.detect = true;
  config.detect_min_samples = 128;
  return config;
}

TEST(DetectLoopback, ReprovisioningStaysInsideEachShardsSlice) {
  Fleet fleet = start_oracle_fleet();
  FrontendConfig config = oracle_config(fleet);
  config.shards = 2;
  // The fallback acceptor round-robins connections: client i lands on
  // shard i, so each client sees exactly one shard's cache.
  config.force_fallback_accept = true;
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));
  std::vector<SyncClient> clients(2);
  for (SyncClient& client : clients) {
    ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  }

  // Keys the two shards answer from cache: each client asks for every key.
  const auto cached_keys = [&] {
    const std::uint64_t before = frontend.stats().hits;
    for (SyncClient& client : clients) {
      for (std::uint64_t key = 0; key < kOracleItems; ++key) {
        const auto reply = client.get(key, 2.0);
        EXPECT_TRUE(reply.has_value() && reply->type == MsgType::kValue)
            << "key " << key;
      }
    }
    return frontend.stats().hits - before;
  };
  EXPECT_EQ(cached_keys(), kOracleCapacity);

  hammer_backends(fleet, kOracleReplication, kOracleAttack, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(counter(frontend.metrics_snapshot(), "detect.reprovisioned"), 0u);
  EXPECT_LE(cached_keys(), kOracleCapacity)
      << "re-provisioned keys were added to the cached set, not swapped in";
  expect_consistent(frontend.stats());
  frontend.stop(0.0);
}

TEST(DetectLoopback, WritesReachReprovisionedKeys) {
  Fleet fleet = start_oracle_fleet();
  FrontendServer frontend(oracle_config(fleet));
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const auto put = [&](std::uint64_t key, const std::string& bytes) {
    Message write;
    write.type = MsgType::kPut;
    write.key = key;
    write.payload = bytes;
    const auto reply = client.call(write, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kWriteReply);
  };

  put(217, "written before it was flagged");
  hammer_backends(fleet, kOracleReplication, kOracleAttack, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(counter(frontend.metrics_snapshot(), "detect.reprovisioned"), 0u);
  // An unwritten attack key is now served from the cache.
  const std::uint64_t hits_before = frontend.stats().hits;
  auto reply = client.get(350, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);
  ASSERT_EQ(frontend.stats().hits, hits_before + 1)
      << "key 350 was not re-provisioned";

  put(100, "written after it was re-provisioned");
  for (const auto& [key, bytes] :
       {std::pair<std::uint64_t, std::string>{217,
                                              "written before it was flagged"},
        {100, "written after it was re-provisioned"}}) {
    for (int i = 0; i < 3; ++i) {
      reply = client.get(key, 2.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
      EXPECT_EQ(reply->payload, bytes) << "key " << key << " GET " << i;
    }
  }
  expect_consistent(frontend.stats());
  frontend.stop(0.0);
}

TEST(DetectLoopback, FleetWriteReachesTheMemberThatMayCacheItsKey) {
  // Two oracle members split c = 8. Member 0 re-provisions hot keys >= c
  // that it owns, so a write to one must reach member 0, which dirties the
  // slot: member 1 bounces it there instead of forwarding it itself.
  constexpr std::uint64_t kFleetSeed = 4242;
  constexpr std::uint32_t kMembers = 2;
  Fleet fleet = start_oracle_fleet();
  std::vector<std::unique_ptr<FrontendServer>> members;
  std::vector<std::pair<std::string, std::uint16_t>> member_endpoints;
  for (std::uint32_t index = 0; index < kMembers; ++index) {
    FrontendConfig config = oracle_config(fleet);
    config.fleet_size = kMembers;
    config.fleet_index = index;
    config.fleet_seed = kFleetSeed;
    members.push_back(std::make_unique<FrontendServer>(config));
    ASSERT_TRUE(members.back()->start());
    ASSERT_TRUE(members.back()->wait_backends_up(5.0));
    member_endpoints.emplace_back("127.0.0.1", members.back()->port());
  }
  std::vector<std::uint64_t> attack;
  for (std::uint64_t key = 100; attack.size() < kOracleAttack.size(); ++key) {
    if (fleet_owner(key, kFleetSeed, kMembers) == 0) attack.push_back(key);
  }
  hammer_backends(fleet, kOracleReplication, attack, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_GT(counter(members[0]->metrics_snapshot(), "detect.reprovisioned"),
            0u);

  // A key member 0 now answers from its cache.
  SyncClient to_owner;
  ASSERT_TRUE(to_owner.connect("127.0.0.1", members[0]->port()));
  std::optional<std::uint64_t> cached;
  for (const std::uint64_t key : attack) {
    const std::uint64_t hits_before = members[0]->stats().hits;
    const auto reply = to_owner.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    if (members[0]->stats().hits == hits_before + 1) {
      cached = key;
      break;
    }
  }
  ASSERT_TRUE(cached.has_value()) << "member 0 re-provisioned no attack key";

  Message write;
  write.type = MsgType::kPut;
  write.key = *cached;
  write.payload = "written while re-provisioned";
  SyncClient to_other;
  ASSERT_TRUE(to_other.connect("127.0.0.1", members[1]->port()));
  auto reply = to_other.call(write, 2.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kRedirect)
      << "member 1 took a write for a key member 0 may cache";
  EXPECT_EQ(reply->node, 0u);

  // Through a router the write reaches member 0, whose GETs then see it.
  RouterConfig router_config;
  router_config.frontends = member_endpoints;
  router_config.fleet_seed = kFleetSeed;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));
  SyncClient via_router;
  ASSERT_TRUE(via_router.connect("127.0.0.1", router.port()));
  reply = via_router.call(write, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kWriteReply) << reply->payload;
  for (int i = 0; i < 3; ++i) {
    reply = to_owner.get(*cached, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    EXPECT_EQ(reply->payload, write.payload) << "GET " << i;
  }
  router.stop();
  expect_consistent(members[0]->stats());
  EXPECT_EQ(counter(members[1]->metrics_snapshot(), "frontend.fleet_redirects"),
            1u);
  for (auto& member : members) member->stop(0.0);
}

// --- benign traffic: zero false positives ---------------------------------

TEST(DetectLoopback, BenignUniformTrafficFlagsNothing) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 512;

  Fleet fleet = start_fleet(kNodes, kReplication, kItems, /*detect=*/true,
                            /*detect_interval_s=*/0.05,
                            /*detect_min_samples=*/256);
  mesh_fleet(fleet);

  FrontendConfig config =
      frontend_config(fleet, kNodes, kReplication, kItems);
  config.cache_policy = "lru";
  config.cache_capacity = 24;
  config.detect = true;
  config.detect_min_samples = 256;
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(i) * 2654435761u) % kItems;
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value()) << "i=" << i;
    ASSERT_EQ(reply->type, MsgType::kValue);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  for (const auto& backend : fleet.backends) {
    const obs::MetricsSnapshot be = backend->metrics_snapshot();
    EXPECT_GT(counter(be, "detect.observed"), 0u);
    EXPECT_EQ(counter(be, "detect.flagged_keys"), 0u)
        << "benign uniform traffic flagged a key on node "
        << backend->config().node_id;
    EXPECT_EQ(gauge(be, "detect.hot_keys"), 0);
  }
  const obs::MetricsSnapshot fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.reports_received"), 0u);
  EXPECT_EQ(counter(fe, "detect.flagged_keys"), 0u);
  EXPECT_EQ(counter(fe, "detect.prefetches"), 0u);
  expect_consistent(frontend.stats());
  frontend.stop(0.0);
}

}  // namespace
}  // namespace scp::net
