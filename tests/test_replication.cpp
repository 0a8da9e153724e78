// Unit tests for the replication layer's pure state machines: version
// clocks, quorum accounting, and rebalance handoff planning. No sockets —
// the loopback suite (test_net_quorum) proves the same invariants over real
// connections, where a peer's liveness is its link state (net/upstream.h).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/partitioner.h"
#include "replication/quorum.h"
#include "replication/rebalance.h"
#include "replication/version.h"

namespace scp::replication {
namespace {

// --- VersionClock ---------------------------------------------------------

TEST(VersionClock, MintsStrictlyIncreasingVersionsTaggedWithNode) {
  VersionClock clock(7);
  std::uint64_t previous = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = clock.next();
    EXPECT_GT(v, previous);
    EXPECT_EQ(VersionClock::node_of(v), 7u);
    previous = v;
  }
  EXPECT_EQ(VersionClock::logical_of(previous), 100u);
}

TEST(VersionClock, PreloadVersionLosesToAnyMintedVersion) {
  // Backends preload owned keys at version 1 (logical 0, node 1); the first
  // version any coordinator mints must supersede it under LWW.
  const std::uint64_t preload = 1;
  for (NodeId node = 0; node <= VersionClock::kMaxNode; node += 341) {
    VersionClock clock(node);
    EXPECT_GT(clock.next(), preload) << "node=" << node;
  }
}

TEST(VersionClock, ObserveIsFetchMax) {
  VersionClock clock(2);
  clock.observe((50ULL << VersionClock::kNodeBits) | 9);
  // Next mint orders strictly after the observed logical counter.
  EXPECT_EQ(VersionClock::logical_of(clock.next()), 51u);
  // Observing something older must not move the clock backwards.
  clock.observe((10ULL << VersionClock::kNodeBits) | 9);
  EXPECT_EQ(VersionClock::logical_of(clock.next()), 52u);
}

TEST(VersionClock, EqualLogicalCountersTieBreakOnNodeId) {
  VersionClock a(1);
  VersionClock b(2);
  const std::uint64_t va = a.next();
  const std::uint64_t vb = b.next();
  EXPECT_EQ(VersionClock::logical_of(va), VersionClock::logical_of(vb));
  EXPECT_NE(va, vb);
  EXPECT_LT(va, vb);  // total order: same counter, higher node wins
}

TEST(VersionClock, ConcurrentMintsNeverCollide) {
  VersionClock clock(3);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock, &minted, t] {
      minted[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) minted[t].push_back(clock.next());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::uint64_t> unique;
  for (const auto& batch : minted) unique.insert(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

// --- WriteQuorum ----------------------------------------------------------

TEST(WriteQuorum, CommitsAtNeedAcks) {
  WriteQuorum quorum(/*need=*/2, /*outstanding=*/3);
  EXPECT_EQ(quorum.state(), QuorumState::kPending);
  EXPECT_EQ(quorum.on_ack(), QuorumState::kPending);
  EXPECT_EQ(quorum.on_ack(), QuorumState::kDone);
  EXPECT_EQ(quorum.acks(), 2u);
  // Late events after resolution are ignored.
  EXPECT_EQ(quorum.on_ack(), QuorumState::kDone);
  EXPECT_EQ(quorum.on_lost(), QuorumState::kDone);
  EXPECT_EQ(quorum.acks(), 2u);
}

TEST(WriteQuorum, FailsFastWhenQuorumUnreachable) {
  // W=2 over 3 replicas: one ack plus two losses can never reach W.
  WriteQuorum quorum(2, 3);
  EXPECT_EQ(quorum.on_ack(), QuorumState::kPending);
  EXPECT_EQ(quorum.on_lost(), QuorumState::kPending);  // 1 ack, 1 outstanding
  EXPECT_EQ(quorum.on_lost(), QuorumState::kFailed);
  EXPECT_EQ(quorum.on_ack(), QuorumState::kFailed);  // terminal
}

TEST(WriteQuorum, ImpossibleQuorumFailsImmediately) {
  WriteQuorum quorum(/*need=*/3, /*outstanding=*/2);
  EXPECT_EQ(quorum.state(), QuorumState::kFailed);
}

TEST(WriteQuorum, LocalOnlyWriteCommitsOnFirstAck) {
  // Single-node deployments: W=1, only the coordinator's local apply.
  WriteQuorum quorum(1, 1);
  EXPECT_EQ(quorum.on_ack(), QuorumState::kDone);
}

// --- ReadQuorum -----------------------------------------------------------

TEST(ReadQuorum, ResolvesAtNeedWithLastWriterWinsWinner) {
  ReadQuorum quorum(/*need=*/2, /*outstanding=*/3);
  EXPECT_EQ(quorum.on_response({.node = 1,
                                .found = true,
                                .tombstone = false,
                                .version = 100,
                                .value = "old"}),
            QuorumState::kPending);
  EXPECT_EQ(quorum.on_response({.node = 2,
                                .found = true,
                                .tombstone = false,
                                .version = 200,
                                .value = "new"}),
            QuorumState::kDone);
  const ReadResponse* winner = quorum.newest();
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->version, 200u);
  EXPECT_EQ(winner->value, "new");
  EXPECT_EQ(quorum.stale_nodes(), std::vector<NodeId>{1});
}

TEST(ReadQuorum, TombstoneWithHigherVersionWins) {
  ReadQuorum quorum(2, 2);
  quorum.on_response(
      {.node = 1, .found = true, .tombstone = false, .version = 300});
  quorum.on_response(
      {.node = 2, .found = true, .tombstone = true, .version = 400});
  const ReadResponse* winner = quorum.newest();
  ASSERT_NE(winner, nullptr);
  EXPECT_TRUE(winner->tombstone);
  EXPECT_EQ(winner->version, 400u);
}

TEST(ReadQuorum, NotFoundRespondersAreStaleWhenAWinnerExists) {
  ReadQuorum quorum(3, 3);
  quorum.on_response({.node = 5, .found = false});
  quorum.on_response(
      {.node = 6, .found = true, .tombstone = false, .version = 42});
  quorum.on_response({.node = 7, .found = false});
  ASSERT_EQ(quorum.state(), QuorumState::kDone);
  std::vector<NodeId> stale = quorum.stale_nodes();
  std::sort(stale.begin(), stale.end());
  EXPECT_EQ(stale, (std::vector<NodeId>{5, 7}));
}

TEST(ReadQuorum, AllMissesResolveWithNoWinnerAndNoRepair) {
  ReadQuorum quorum(2, 2);
  quorum.on_response({.node = 1, .found = false});
  quorum.on_response({.node = 2, .found = false});
  EXPECT_EQ(quorum.state(), QuorumState::kDone);
  EXPECT_EQ(quorum.newest(), nullptr);
  EXPECT_TRUE(quorum.stale_nodes().empty());
}

TEST(ReadQuorum, FailsFastWhenQuorumUnreachable) {
  ReadQuorum quorum(2, 3);
  EXPECT_EQ(quorum.on_lost(), QuorumState::kPending);
  EXPECT_EQ(quorum.on_lost(), QuorumState::kFailed);
  EXPECT_EQ(quorum.on_response({.node = 1, .found = true, .version = 1}),
            QuorumState::kFailed);
}

// --- plan_handoff ---------------------------------------------------------

/// Shared fixture for ring-change plans: n nodes 0..n-1, d=2, snapshot the
/// old groups, mutate, and plan from every node's perspective.
struct RingChange {
  RingChange(std::uint32_t nodes, std::uint32_t d) : ring(nodes, d, 16, 99) {}

  /// Captures the current ring as the "old" mapping for the key set.
  void snapshot(std::span<const KeyId> keys) {
    old_groups.clear();
    for (const KeyId key : keys) old_groups[key] = ring.replica_group(key);
  }

  std::function<void(KeyId, std::span<NodeId>)> old_group_of() {
    return [this](KeyId key, std::span<NodeId> out) {
      const std::vector<NodeId>& group = old_groups.at(key);
      std::copy(group.begin(), group.end(), out.begin());
    };
  }

  ConsistentHashRing ring;
  std::unordered_map<KeyId, std::vector<NodeId>> old_groups;
};

TEST(PlanHandoff, JoinStreamsEachMovedKeyExactlyOnceToTheNewNode) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kReplication = 2;
  std::vector<KeyId> keys(512);
  for (KeyId k = 0; k < keys.size(); ++k) keys[k] = k;

  RingChange change(kNodes, kReplication);
  change.snapshot(keys);
  change.ring.add_node(kNodes);  // node 4 joins

  const auto everyone_alive = [](NodeId) { return true; };
  std::vector<HandoffItem> combined;
  for (NodeId self = 0; self < kNodes; ++self) {
    const auto plan = plan_handoff(change.old_group_of(), change.ring, self,
                                   everyone_alive, keys);
    for (const HandoffItem& item : plan) {
      EXPECT_EQ(item.target, kNodes) << "join only moves keys to the joiner";
      combined.push_back(item);
    }
  }
  // The joining node streams nothing: it held nothing before the change.
  EXPECT_TRUE(plan_handoff(change.old_group_of(), change.ring, kNodes,
                           everyone_alive, keys)
                  .empty());

  // Exactly the keys whose new group contains node 4, each streamed once.
  std::set<KeyId> streamed;
  for (const HandoffItem& item : combined) {
    EXPECT_TRUE(streamed.insert(item.key).second)
        << "key " << item.key << " streamed by two nodes";
  }
  std::set<KeyId> expected;
  for (const KeyId key : keys) {
    const auto group = change.ring.replica_group(key);
    if (std::find(group.begin(), group.end(), kNodes) != group.end()) {
      expected.insert(key);
    }
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_FALSE(expected.empty());  // the change must actually move keys
}

TEST(PlanHandoff, LeaveCoversEveryReplacementMember) {
  constexpr std::uint32_t kNodes = 5;
  constexpr std::uint32_t kReplication = 2;
  constexpr NodeId kLeaver = 2;
  std::vector<KeyId> keys(512);
  for (KeyId k = 0; k < keys.size(); ++k) keys[k] = k;

  RingChange change(kNodes, kReplication);
  change.snapshot(keys);
  change.ring.remove_node(kLeaver);

  // The leaver is gone but still "alive" for streamer election (a graceful
  // leave streams its own keys out before disconnecting).
  const auto everyone_alive = [](NodeId) { return true; };
  std::set<std::pair<KeyId, NodeId>> streamed;
  for (NodeId self = 0; self < kNodes; ++self) {
    for (const HandoffItem& item : plan_handoff(
             change.old_group_of(), change.ring, self, everyone_alive, keys)) {
      EXPECT_TRUE(streamed.insert({item.key, item.target}).second);
    }
  }
  // Every (key, new member) pair absent from the old group is covered.
  std::set<std::pair<KeyId, NodeId>> expected;
  for (const KeyId key : keys) {
    const std::vector<NodeId>& old_group = change.old_groups.at(key);
    for (const NodeId target : change.ring.replica_group(key)) {
      if (std::find(old_group.begin(), old_group.end(), target) ==
          old_group.end()) {
        expected.insert({key, target});
      }
    }
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_FALSE(expected.empty());
}

TEST(PlanHandoff, DeadStreamerFallsBackToNextAliveOldHolder) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kReplication = 3;
  std::vector<KeyId> keys(256);
  for (KeyId k = 0; k < keys.size(); ++k) keys[k] = k;

  RingChange change(kNodes, kReplication);
  change.snapshot(keys);
  change.ring.add_node(kNodes);

  // Find a key whose old group's first member differs from its second so the
  // fallback is observable.
  for (const KeyId key : keys) {
    const std::vector<NodeId>& old_group = change.old_groups.at(key);
    const auto new_group = change.ring.replica_group(key);
    if (std::find(new_group.begin(), new_group.end(), kNodes) ==
        new_group.end()) {
      continue;  // key did not move
    }
    const NodeId first = old_group[0];
    const NodeId second = old_group[1];
    ASSERT_NE(first, second);

    const std::vector<KeyId> single{key};
    const auto first_dead = [first](NodeId node) { return node != first; };
    // With the elected streamer dead, it plans nothing...
    EXPECT_TRUE(plan_handoff(change.old_group_of(), change.ring, first,
                             first_dead, single)
                    .empty());
    // ...and the next alive old holder takes over.
    const auto plan = plan_handoff(change.old_group_of(), change.ring, second,
                                   first_dead, single);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], (HandoffItem{key, kNodes}));
    return;
  }
  FAIL() << "no key moved to the joining node; enlarge the key set";
}

TEST(PlanHandoff, NoAliveOldHolderMeansNobodyStreams) {
  constexpr std::uint32_t kNodes = 3;
  std::vector<KeyId> keys(64);
  for (KeyId k = 0; k < keys.size(); ++k) keys[k] = k;

  RingChange change(kNodes, 2);
  change.snapshot(keys);
  change.ring.add_node(kNodes);

  const auto nobody_alive = [](NodeId) { return false; };
  for (NodeId self = 0; self <= kNodes; ++self) {
    EXPECT_TRUE(plan_handoff(change.old_group_of(), change.ring, self,
                             nobody_alive, keys)
                    .empty());
  }
}

}  // namespace
}  // namespace scp::replication
