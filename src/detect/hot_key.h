// Hot-key detection: per-backend heavy-hitter tracking and the cross-node
// aggregation that turns the backends' top-k reports into a global hot set.
//
// The attack this detects (per the gossip-DoS paper in PAPERS.md) is a
// cache-miss flood: an adversary queries a small key set chosen to miss the
// front-end cache, so every request lands on the keys' d replicas. Each
// backend only sees its own slice of that flood; the signature — a few keys
// carrying a large fraction of the *cluster-wide* backend request stream —
// only appears once every backend's observation is merged in one place, a
// front end. Hence the split:
//
//   HotKeyDetector   — wraps a SpaceSaving sketch on one backend's serve
//                      path and periodically drains it into a HotKeyReport
//                      (the payload of the kHotKeyReport wire frame).
//   HotKeyAggregator — merges the latest report per node (everything a
//                      subscribed front end receives) and classifies keys
//                      whose aggregated share of the backend request stream
//                      crosses a threshold, with hysteresis so borderline
//                      keys don't flap.
//
// The front end combines the aggregator's hot set with its own cache state:
// globally hot at the backends *and* absent from the FE tier is precisely
// the miss-flood signature, and those keys get force-admitted (mitigation).
// Neither class is thread-safe; owners serialize access.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/types.h"
#include "detect/space_saving.h"

namespace scp::detect {

struct HotKeyEntry {
  KeyId key = 0;
  std::uint64_t count = 0;

  bool operator==(const HotKeyEntry&) const = default;
};

/// One node's windowed top-k observation — the kHotKeyReport payload.
struct HotKeyReport {
  NodeId node = 0;
  std::uint64_t seq = 0;    ///< reporter-local sequence; stale ones ignored
  std::uint64_t total = 0;  ///< requests observed in the sketch's window
  std::vector<HotKeyEntry> entries;

  bool operator==(const HotKeyReport&) const = default;
};

/// Wire sanity cap on a report's entry list (mirrors the metrics-entry cap
/// in wire.cpp; real reports carry a configured top-k of ≤ a few dozen).
inline constexpr std::uint32_t kMaxHotKeyEntries = 512;

class HotKeyDetector {
 public:
  /// `sketch_capacity` monitor slots; reports carry the top `report_k`.
  HotKeyDetector(std::size_t sketch_capacity, std::size_t report_k);

  void observe(KeyId key) { sketch_.observe(key); }

  /// Snapshot the current window as a report (monotonic seq per call).
  HotKeyReport report(NodeId node);

  /// Ages the window (SpaceSaving::halve) — called once per report tick so
  /// counts emphasize the last couple of windows and a shifted attack's old
  /// hot set decays instead of lingering.
  void age() { sketch_.halve(); }

  std::uint64_t total() const noexcept { return sketch_.total(); }
  std::size_t monitored_keys() const noexcept { return sketch_.size(); }

 private:
  SpaceSaving sketch_;
  std::size_t report_k_;
  std::uint64_t next_seq_ = 1;
};

class HotKeyAggregator {
 public:
  struct Options {
    /// A key is hot when its aggregated count ≥ hot_fraction × aggregated
    /// total. Calibration: a miss-flood over x keys gives each ~1/x of the
    /// backend stream (x is near the FE capacity c for the strongest
    /// attack), while a benign zipf residual's heaviest key carries ~1% at
    /// the preset scales — 0.02 splits the two with ~2× margin each way.
    double hot_fraction = 0.02;
    /// Hysteresis exit: an already-hot key stays flagged until its share
    /// drops below hot_fraction × drop_ratio.
    double drop_ratio = 0.5;
    /// No classification until the aggregated total reaches this floor
    /// (cold-start guard: three requests shouldn't flag anything).
    std::uint64_t min_samples = 256;
  };

  HotKeyAggregator() : HotKeyAggregator(Options{}) {}
  explicit HotKeyAggregator(Options options);

  /// Installs `report` as its node's latest observation (stale seq ignored)
  /// and reclassifies. Returns the keys that *newly* became hot.
  std::vector<KeyId> update(const HotKeyReport& report);

  /// Currently-hot keys (insertion-ordered classification is not promised;
  /// callers treat this as a set).
  const std::unordered_set<KeyId>& hot() const noexcept { return hot_; }

  /// Aggregated request total across the latest report of every node.
  std::uint64_t aggregated_total() const noexcept { return aggregated_total_; }
  std::size_t reporting_nodes() const noexcept { return reports_.size(); }

 private:
  void reclassify(std::vector<KeyId>* newly_hot);

  Options options_;
  std::unordered_map<NodeId, HotKeyReport> reports_;  ///< latest per node
  std::unordered_set<KeyId> hot_;
  std::uint64_t aggregated_total_ = 0;
  // reclassify() scratch, kept across calls to avoid re-allocation.
  std::unordered_map<KeyId, std::uint64_t> counts_;
};

}  // namespace scp::detect
