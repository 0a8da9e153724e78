// Replicated KV substrate: storage engine, quorum replication, coherence,
// failure handling, anti-entropy.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "kvstore/kv_cluster.h"

namespace scp {
namespace {

// --- StorageEngine -------------------------------------------------------

TEST(StorageEngine, PutGetRoundTrip) {
  StorageEngine storage;
  EXPECT_TRUE(storage.apply_put(1, "hello", 1));
  EXPECT_EQ(storage.get(1), "hello");
  EXPECT_EQ(storage.live_count(), 1u);
  EXPECT_EQ(storage.bytes_used(), 5u);
}

TEST(StorageEngine, StaleWritesAreRejected) {
  StorageEngine storage;
  EXPECT_TRUE(storage.apply_put(1, "new", 5));
  EXPECT_FALSE(storage.apply_put(1, "old", 3));
  EXPECT_FALSE(storage.apply_put(1, "same", 5));  // idempotent replay
  EXPECT_EQ(storage.get(1), "new");
}

TEST(StorageEngine, NewerWriteReplaces) {
  StorageEngine storage;
  storage.apply_put(1, "v1", 1);
  EXPECT_TRUE(storage.apply_put(1, "v2", 2));
  EXPECT_EQ(storage.get(1), "v2");
  EXPECT_EQ(storage.live_count(), 1u);
  EXPECT_EQ(storage.bytes_used(), 2u);
}

TEST(StorageEngine, TombstoneHidesAndBlocksStale) {
  StorageEngine storage;
  storage.apply_put(1, "value", 1);
  EXPECT_TRUE(storage.apply_erase(1, 2));
  EXPECT_EQ(storage.get(1), std::nullopt);
  EXPECT_EQ(storage.live_count(), 0u);
  // The tombstone's version must beat late writes.
  EXPECT_FALSE(storage.apply_put(1, "zombie", 1));
  EXPECT_EQ(storage.get(1), std::nullopt);
  // But a genuinely newer write resurrects.
  EXPECT_TRUE(storage.apply_put(1, "reborn", 3));
  EXPECT_EQ(storage.get(1), "reborn");
}

TEST(StorageEngine, EraseAbsentCreatesTombstone) {
  StorageEngine storage;
  EXPECT_TRUE(storage.apply_erase(9, 4));
  EXPECT_EQ(storage.get(9), std::nullopt);
  EXPECT_EQ(storage.entry_count(), 1u);
  EXPECT_EQ(storage.live_count(), 0u);
}

TEST(StorageEngine, ForEachVisitsEverything) {
  StorageEngine storage;
  storage.apply_put(1, "a", 1);
  storage.apply_put(2, "b", 2);
  storage.apply_erase(3, 3);
  std::set<KeyId> seen;
  storage.for_each_entry([&](KeyId key, const StorageEngine::Entry&) {
    seen.insert(key);
  });
  EXPECT_EQ(seen, (std::set<KeyId>{1, 2, 3}));
}

TEST(StorageEngine, ClearWipes) {
  StorageEngine storage;
  storage.apply_put(1, "a", 1);
  storage.clear();
  EXPECT_EQ(storage.entry_count(), 0u);
  EXPECT_EQ(storage.bytes_used(), 0u);
  EXPECT_EQ(storage.get(1), std::nullopt);
}

// --- KvCluster basics ------------------------------------------------------

KvClusterOptions small_options() {
  KvClusterOptions options;
  options.nodes = 10;
  options.replication = 3;
  options.write_quorum = 2;
  options.read_quorum = 2;
  options.seed = 42;
  return options;
}

/// `prefix` followed by the key's digits. Appended rather than written as
/// "literal" + std::to_string(key), for which GCC 12 reports a false
/// -Wrestrict.
std::string tagged(const char* prefix, KeyId key) {
  std::string value = prefix;
  value += std::to_string(key);
  return value;
}

TEST(KvCluster, PutGetEraseLifecycle) {
  KvCluster kv(small_options());
  EXPECT_EQ(kv.get(7), std::nullopt);
  EXPECT_TRUE(kv.put(7, "value"));
  EXPECT_EQ(kv.get(7), "value");
  EXPECT_TRUE(kv.erase(7));
  EXPECT_EQ(kv.get(7), std::nullopt);
  EXPECT_EQ(kv.stats().puts, 1u);
  EXPECT_EQ(kv.stats().gets, 3u);
  EXPECT_EQ(kv.stats().erases, 1u);
}

TEST(KvCluster, OverwriteReturnsLatest) {
  KvCluster kv(small_options());
  kv.put(1, "v1");
  kv.put(1, "v2");
  kv.put(1, "v3");
  EXPECT_EQ(kv.get(1), "v3");
}

TEST(KvCluster, WritesLandOnExactlyTheReplicaGroup) {
  KvCluster kv(small_options());
  kv.put(5, "data");
  const auto group = kv.partitioner().replica_group(5);
  std::uint32_t holders = 0;
  for (NodeId node = 0; node < kv.node_count(); ++node) {
    const bool has = kv.storage(node).get(5).has_value();
    const bool in_group =
        std::find(group.begin(), group.end(), node) != group.end();
    EXPECT_EQ(has, in_group) << "node " << node;
    holders += has ? 1 : 0;
  }
  EXPECT_EQ(holders, 3u);
}

TEST(KvCluster, ReplicasConvergeAfterWrite) {
  KvCluster kv(small_options());
  for (KeyId key = 0; key < 100; ++key) {
    kv.put(key, tagged("v", key));
    EXPECT_TRUE(kv.replicas_converged(key)) << "key " << key;
  }
}

// --- quorums and failures ----------------------------------------------------

TEST(KvCluster, ReadYourWritesAfterFailures) {
  // R + W > d (2 + 2 > 3): any read quorum intersects any write quorum, so
  // reads see the latest write even after d - W node failures.
  KvCluster kv(small_options());
  kv.put(11, "before");
  const auto group = kv.partitioner().replica_group(11);
  kv.fail_node(group[0]);  // d - W = 1 failure tolerated
  EXPECT_TRUE(kv.put(11, "after"));
  EXPECT_EQ(kv.get(11), "after");
}

TEST(KvCluster, QuorumFailureWhenTooFewReplicas) {
  KvCluster kv(small_options());
  const auto group = kv.partitioner().replica_group(3);
  kv.fail_node(group[0]);
  kv.fail_node(group[1]);  // only one alive < W = 2
  EXPECT_FALSE(kv.put(3, "nope"));
  EXPECT_EQ(kv.get(3), std::nullopt);
  EXPECT_GE(kv.stats().quorum_failures, 2u);
}

TEST(KvCluster, RecoveredStaleNodeIsReadRepaired) {
  KvCluster kv(small_options());
  kv.put(20, "v1");
  const auto group = kv.partitioner().replica_group(20);
  kv.fail_node(group[0]);
  kv.put(20, "v2");          // misses the failed node
  kv.recover_node(group[0]);  // stale now
  // Reads (quorum 2, starting from group[0]) must still return v2 and fix
  // the stale replica.
  EXPECT_EQ(kv.get(20), "v2");
  EXPECT_GE(kv.stats().read_repairs, 1u);
  EXPECT_EQ(kv.storage(group[0]).get(20), "v2");
}

TEST(KvCluster, AntiEntropyConvergesWipedNode) {
  KvCluster kv(small_options());
  for (KeyId key = 0; key < 50; ++key) {
    kv.put(key, tagged("x", key));
  }
  kv.wipe_node(2);
  kv.anti_entropy();
  for (KeyId key = 0; key < 50; ++key) {
    EXPECT_TRUE(kv.replicas_converged(key)) << "key " << key;
  }
}

TEST(KvCluster, AntiEntropyPropagatesTombstones) {
  KvCluster kv(small_options());
  kv.put(30, "doomed");
  const auto group = kv.partitioner().replica_group(30);
  kv.fail_node(group[2]);
  kv.erase(30);               // tombstone misses group[2]
  kv.recover_node(group[2]);
  kv.anti_entropy();
  EXPECT_EQ(kv.storage(group[2]).get(30), std::nullopt);
  EXPECT_TRUE(kv.replicas_converged(30));
}

// --- front-end cache integration ----------------------------------------------

KvClusterOptions cached_options(const std::string& policy = "lru") {
  KvClusterOptions options = small_options();
  options.cache_capacity = 16;
  options.cache_policy = policy;
  return options;
}

TEST(KvCluster, RepeatedGetsHitTheCache) {
  KvCluster kv(cached_options());
  kv.put(1, "hot");
  EXPECT_EQ(kv.get(1), "hot");  // miss → admit
  EXPECT_EQ(kv.get(1), "hot");  // hit
  EXPECT_EQ(kv.get(1), "hot");  // hit
  EXPECT_GE(kv.stats().cache_hits, 2u);
}

TEST(KvCluster, WriteInvalidatesCachedCopy) {
  // The coherence property: a cached read must never return a value older
  // than the latest acknowledged write.
  KvCluster kv(cached_options());
  kv.put(1, "v1");
  EXPECT_EQ(kv.get(1), "v1");  // now cached
  kv.put(1, "v2");
  EXPECT_EQ(kv.get(1), "v2") << "stale cache copy served after write";
}

TEST(KvCluster, EraseInvalidatesCachedCopy) {
  KvCluster kv(cached_options());
  kv.put(1, "v1");
  EXPECT_EQ(kv.get(1), "v1");
  kv.erase(1);
  EXPECT_EQ(kv.get(1), std::nullopt) << "deleted key still served from cache";
}

TEST(KvCluster, CoherenceHoldsUnderEveryPolicy) {
  for (const char* policy : {"lru", "lfu", "slru", "tinylfu"}) {
    KvCluster kv(cached_options(policy));
    for (int round = 0; round < 5; ++round) {
      for (KeyId key = 0; key < 40; ++key) {
        kv.put(key, std::to_string(round) + ":" + std::to_string(key));
      }
      for (KeyId key = 0; key < 40; ++key) {
        const auto value = kv.get(key);
        ASSERT_TRUE(value.has_value()) << policy;
        EXPECT_EQ(*value, std::to_string(round) + ":" + std::to_string(key))
            << policy << " served a stale value for key " << key;
      }
    }
  }
}

TEST(KvCluster, CacheAbsorbsHotKeyTraffic) {
  KvCluster kv(cached_options());
  kv.put(99, "hot");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(kv.get(99), "hot");
  }
  // First get misses, the rest hit.
  EXPECT_EQ(kv.stats().cache_hits, 99u);
  EXPECT_EQ(kv.stats().cache_misses, 1u);
}

// --- hinted handoff -----------------------------------------------------------

KvClusterOptions hinted_options() {
  KvClusterOptions options = small_options();
  options.hinted_handoff = true;
  return options;
}

TEST(KvClusterHints, WriteToDeadReplicaLeavesAHint) {
  KvCluster kv(hinted_options());
  const auto group = kv.partitioner().replica_group(7);
  kv.fail_node(group[2]);
  kv.put(7, "value");
  EXPECT_EQ(kv.stats().hints_stored, 1u);
  // The hint sits on the first live replica of the group.
  EXPECT_EQ(kv.hints_held_by(group[0]), 1u);
}

TEST(KvClusterHints, RecoveryReplaysHintsAndConverges) {
  KvCluster kv(hinted_options());
  const auto group = kv.partitioner().replica_group(7);
  kv.fail_node(group[2]);
  kv.put(7, "fresh");
  kv.recover_node(group[2]);
  EXPECT_EQ(kv.stats().hints_replayed, 1u);
  EXPECT_EQ(kv.storage(group[2]).get(7), "fresh");
  EXPECT_TRUE(kv.replicas_converged(7));
  EXPECT_EQ(kv.hints_held_by(group[0]), 0u);  // delivered hints are dropped
}

TEST(KvClusterHints, TombstoneHintsPropagateDeletes) {
  KvCluster kv(hinted_options());
  kv.put(9, "doomed");
  const auto group = kv.partitioner().replica_group(9);
  kv.fail_node(group[1]);
  kv.erase(9);
  kv.recover_node(group[1]);
  EXPECT_EQ(kv.storage(group[1]).get(9), std::nullopt);
  EXPECT_TRUE(kv.replicas_converged(9));
}

TEST(KvClusterHints, StaleHintDoesNotRegressNewerData) {
  KvCluster kv(hinted_options());
  const auto group = kv.partitioner().replica_group(5);
  kv.fail_node(group[2]);
  kv.put(5, "v1");  // hint for group[2] at version 1
  kv.recover_node(group[2]);
  kv.put(5, "v2");  // all replicas now at v2
  // Write a second hint cycle: fail + write + recover must not bring back
  // v1 semantics; versions protect against replay disorder.
  EXPECT_EQ(kv.storage(group[2]).get(5), "v2");
  EXPECT_TRUE(kv.replicas_converged(5));
}

TEST(KvClusterHints, WipedHolderLosesItsHints) {
  KvCluster kv(hinted_options());
  const auto group = kv.partitioner().replica_group(3);
  kv.fail_node(group[2]);
  kv.put(3, "value");
  const NodeId holder = group[0];
  ASSERT_EQ(kv.hints_held_by(holder), 1u);
  kv.wipe_node(holder);  // disk loss: the hint is gone
  EXPECT_EQ(kv.hints_held_by(holder), 0u);
  kv.recover_node(group[2]);
  EXPECT_EQ(kv.stats().hints_replayed, 0u);
  // Convergence now needs read-repair or anti-entropy — and anti-entropy
  // still fixes everything.
  kv.anti_entropy();
  EXPECT_TRUE(kv.replicas_converged(3));
}

TEST(KvClusterHints, ManyKeysManyFailuresConvergeWithoutAntiEntropy) {
  KvCluster kv(hinted_options());
  const NodeId victim = 4;
  kv.fail_node(victim);
  for (KeyId key = 0; key < 200; ++key) {
    kv.put(key, tagged("x", key));
  }
  kv.recover_node(victim);
  for (KeyId key = 0; key < 200; ++key) {
    EXPECT_TRUE(kv.replicas_converged(key)) << "key " << key;
  }
  EXPECT_GT(kv.stats().hints_replayed, 0u);
}

TEST(KvClusterHints, DisabledByDefault) {
  KvCluster kv(small_options());
  const auto group = kv.partitioner().replica_group(7);
  kv.fail_node(group[2]);
  kv.put(7, "value");
  EXPECT_EQ(kv.stats().hints_stored, 0u);
}

TEST(KvCluster, RejectsBadQuorums) {
  KvClusterOptions options = small_options();
  options.write_quorum = 4;  // > d
  EXPECT_DEATH(KvCluster{options}, "quorum");
  options = small_options();
  options.read_quorum = 0;
  EXPECT_DEATH(KvCluster{options}, "quorum");
}

}  // namespace
}  // namespace scp
