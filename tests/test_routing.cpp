#include "cluster/routing.h"

#include <array>
#include <vector>

#include <gtest/gtest.h>

namespace scp {
namespace {

constexpr std::array<NodeId, 3> kGroup = {4, 7, 9};

std::vector<double> make_loads(double l4, double l7, double l9) {
  std::vector<double> loads(12, 0.0);
  loads[4] = l4;
  loads[7] = l7;
  loads[9] = l9;
  return loads;
}

TEST(RandomSelector, StaysInRangeAndCoversGroup) {
  RandomSelector selector;
  Rng rng(1);
  const auto loads = make_loads(0, 0, 0);
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) {
    const std::size_t pick =
        selector.select(0, std::span<const NodeId>(kGroup), loads, rng);
    ASSERT_LT(pick, 3u);
    ++counts[pick];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 30000.0, 1.0 / 3.0, 0.02);
  }
}

TEST(RandomSelector, SplitsEvenly) {
  RandomSelector selector;
  EXPECT_TRUE(selector.splits_evenly());
}

TEST(RoundRobinSelector, CyclesPerKey) {
  RoundRobinSelector selector;
  Rng rng(2);
  const auto loads = make_loads(0, 0, 0);
  // Key 1 should cycle 0,1,2,0,1,2… independently of key 2's counter.
  EXPECT_EQ(selector.select(1, kGroup, loads, rng), 0u);
  EXPECT_EQ(selector.select(2, kGroup, loads, rng), 0u);
  EXPECT_EQ(selector.select(1, kGroup, loads, rng), 1u);
  EXPECT_EQ(selector.select(1, kGroup, loads, rng), 2u);
  EXPECT_EQ(selector.select(1, kGroup, loads, rng), 0u);
  EXPECT_EQ(selector.select(2, kGroup, loads, rng), 1u);
}

TEST(RoundRobinSelector, ResetClearsCounters) {
  RoundRobinSelector selector;
  Rng rng(3);
  const auto loads = make_loads(0, 0, 0);
  selector.select(5, kGroup, loads, rng);
  selector.select(5, kGroup, loads, rng);
  selector.reset();
  EXPECT_EQ(selector.select(5, kGroup, loads, rng), 0u);
}

TEST(RoundRobinSelector, SplitsEvenly) {
  RoundRobinSelector selector;
  EXPECT_TRUE(selector.splits_evenly());
}

TEST(LeastLoadedSelector, PicksStrictMinimum) {
  LeastLoadedSelector selector;
  Rng rng(4);
  EXPECT_EQ(selector.select(0, kGroup, make_loads(5, 1, 3), rng), 1u);
  EXPECT_EQ(selector.select(0, kGroup, make_loads(0.5, 1, 3), rng), 0u);
  EXPECT_EQ(selector.select(0, kGroup, make_loads(5, 4, 3), rng), 2u);
}

TEST(LeastLoadedSelector, BreaksTiesUniformly) {
  LeastLoadedSelector selector;
  Rng rng(5);
  const auto loads = make_loads(1, 1, 1);
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) {
    ++counts[selector.select(0, kGroup, loads, rng)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 30000.0, 1.0 / 3.0, 0.02);
  }
}

TEST(LeastLoadedSelector, PartialTieBetweenTwo) {
  LeastLoadedSelector selector;
  Rng rng(6);
  const auto loads = make_loads(2, 1, 1);  // nodes 7 and 9 tie
  std::array<int, 3> counts{};
  for (int i = 0; i < 20000; ++i) {
    ++counts[selector.select(0, kGroup, loads, rng)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 20000.0, 0.5, 0.02);
}

TEST(LeastLoadedSelector, DoesNotSplitEvenly) {
  LeastLoadedSelector selector;
  EXPECT_FALSE(selector.splits_evenly());
}

TEST(LeastLoadedSelector, SingletonGroup) {
  LeastLoadedSelector selector;
  Rng rng(7);
  const std::array<NodeId, 1> group = {3};
  EXPECT_EQ(selector.select(0, group, make_loads(0, 0, 0), rng), 0u);
}

TEST(PinnedLeastLoadedSelector, FirstPickIsLeastLoadedThenSticky) {
  PinnedLeastLoadedSelector selector;
  Rng rng(8);
  EXPECT_EQ(selector.select(7, kGroup, make_loads(5, 1, 3), rng), 1u);
  // The pin holds even when another replica becomes less loaded.
  EXPECT_EQ(selector.select(7, kGroup, make_loads(5, 9, 3), rng), 1u);
  EXPECT_EQ(selector.select(7, kGroup, make_loads(0, 9, 3), rng), 1u);
}

TEST(PinnedLeastLoadedSelector, PinsArePerKey) {
  PinnedLeastLoadedSelector selector;
  Rng rng(9);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(5, 1, 3), rng), 1u);
  EXPECT_EQ(selector.select(2, kGroup, make_loads(5, 9, 0), rng), 2u);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(0, 0, 0), rng), 1u);
  EXPECT_EQ(selector.select(2, kGroup, make_loads(0, 0, 0), rng), 2u);
}

TEST(PinnedLeastLoadedSelector, ResetForgetsPins) {
  PinnedLeastLoadedSelector selector;
  Rng rng(10);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(5, 1, 3), rng), 1u);
  selector.reset();
  EXPECT_EQ(selector.select(1, kGroup, make_loads(0, 9, 3), rng), 0u);
}

// A caller may pass only the live members of a key's group. When the pinned
// node is not among them, the key is re-picked over the members given and
// pinned to the new node.
TEST(PinnedLeastLoadedSelector, RepicksWhenThePinnedNodeLeavesTheGroup) {
  PinnedLeastLoadedSelector selector;
  Rng rng(11);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(5, 9, 1), rng), 2u);  // 9
  const std::array<NodeId, 2> without_9 = {4, 7};
  EXPECT_EQ(selector.select(1, without_9, make_loads(5, 9, 1), rng), 0u);
  // Re-pinned to node 4, which keeps the key once node 9 is back.
  EXPECT_EQ(selector.select(1, kGroup, make_loads(5, 9, 1), rng), 0u);
  EXPECT_EQ(selector.pin_count(), 1u);
}

TEST(PinnedLeastLoadedSelector, KeepsThePinnedNodeWhenAnotherLeaves) {
  PinnedLeastLoadedSelector selector;
  Rng rng(12);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(5, 1, 3), rng), 1u);  // 7
  const std::array<NodeId, 2> without_4 = {7, 9};
  EXPECT_EQ(selector.select(1, without_4, make_loads(0, 9, 0), rng), 0u);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(0, 9, 0), rng), 1u);
}

TEST(PinnedLeastLoadedSelector, UnpinForgetsOneKey) {
  PinnedLeastLoadedSelector selector;
  Rng rng(13);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(5, 1, 3), rng), 1u);
  EXPECT_EQ(selector.select(2, kGroup, make_loads(5, 1, 3), rng), 1u);
  EXPECT_EQ(selector.pin_count(), 2u);
  selector.unpin(1);
  selector.unpin(3);  // never pinned: no effect
  EXPECT_EQ(selector.pin_count(), 1u);
  EXPECT_EQ(selector.select(1, kGroup, make_loads(0, 9, 3), rng), 0u);
  EXPECT_EQ(selector.select(2, kGroup, make_loads(0, 9, 3), rng), 1u);
}

TEST(PinnedLeastLoadedSelector, DoesNotSplitEvenly) {
  PinnedLeastLoadedSelector selector;
  EXPECT_FALSE(selector.splits_evenly());
}

TEST(MakeSelector, CreatesEachKind) {
  EXPECT_EQ(make_selector("random")->name(), "random");
  EXPECT_EQ(make_selector("round-robin")->name(), "round-robin");
  EXPECT_EQ(make_selector("least-loaded")->name(), "least-loaded");
  EXPECT_EQ(make_selector("pinned")->name(), "pinned");
}

TEST(MakeSelector, RejectsUnknownKind) {
  EXPECT_DEATH(make_selector("best-effort"), "unknown selector");
}

}  // namespace
}  // namespace scp
