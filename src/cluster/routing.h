// Replica selection: which node of a key's replica group serves a request.
//
// The paper allows "random selection or round-robin" per query, and its
// analysis models the stable key → serving-node mapping as balls-into-bins
// with the power of d choices (each key lands on the least-loaded of its d
// replicas). The three selectors below realize those options; the routing
// ablation bench compares them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "cluster/types.h"
#include "common/rng.h"

namespace scp {

class ReplicaSelector {
 public:
  virtual ~ReplicaSelector() = default;

  /// Returns the index (into `group`) of the replica that should serve this
  /// request. `node_loads[node]` is the current load of each node (offered
  /// rate or queue depth depending on the simulator); selectors that ignore
  /// load may ignore it.
  virtual std::size_t select(KeyId key, std::span<const NodeId> group,
                             std::span<const double> node_loads, Rng& rng) = 0;

  virtual std::string name() const = 0;

  /// True when the selector spreads a key's queries evenly across its group
  /// — in expectation (random) or exactly (round-robin). The rate simulator
  /// then assigns rate/d to every replica instead of picking one member.
  virtual bool splits_evenly() const noexcept { return false; }

  /// Clears any per-trial state (e.g. round-robin counters).
  virtual void reset() {}
};

/// Uniform random replica per request. Splits a key's load evenly across its
/// group in expectation.
class RandomSelector final : public ReplicaSelector {
 public:
  std::size_t select(KeyId key, std::span<const NodeId> group,
                     std::span<const double> node_loads, Rng& rng) override;
  std::string name() const override { return "random"; }
  bool splits_evenly() const noexcept override { return true; }
};

/// Per-key round-robin across the group. Splits a key's load exactly evenly
/// over time.
class RoundRobinSelector final : public ReplicaSelector {
 public:
  std::size_t select(KeyId key, std::span<const NodeId> group,
                     std::span<const double> node_loads, Rng& rng) override;
  std::string name() const override { return "round-robin"; }
  bool splits_evenly() const noexcept override { return true; }
  void reset() override { counters_.clear(); }

 private:
  std::unordered_map<KeyId, std::uint32_t> counters_;
};

/// The least-loaded pick shared by LeastLoadedSelector and the rate
/// simulator's indexed fast path. Both must consume the RNG identically —
/// tie-breaks draw from `rng` — so the fast path stays bit-identical to the
/// virtual-dispatch path. Returns the index into `group` of the least-loaded
/// member, ties broken uniformly at random (reservoir-style, one pass).
inline std::size_t least_loaded_pick(std::span<const NodeId> group,
                                     std::span<const double> node_loads,
                                     Rng& rng) noexcept {
  std::size_t best = 0;
  std::size_t tie_count = 1;
  for (std::size_t i = 1; i < group.size(); ++i) {
    const double load = node_loads[group[i]];
    const double best_load = node_loads[group[best]];
    if (load < best_load) {
      best = i;
      tie_count = 1;
    } else if (load == best_load) {
      ++tie_count;
      if (rng.uniform_u64(tie_count) == 0) {
        best = i;
      }
    }
  }
  return best;
}

/// Least-loaded replica (power of d choices), ties broken uniformly at
/// random. This is the paper's analytical model: sending each key to the
/// least-loaded member of its group.
class LeastLoadedSelector final : public ReplicaSelector {
 public:
  std::size_t select(KeyId key, std::span<const NodeId> group,
                     std::span<const double> node_loads, Rng& rng) override;
  std::string name() const override { return "least-loaded"; }
};

/// Sticky least-loaded: the first request for a key picks the least-loaded
/// replica, and every later request for that key goes to the same node.
/// This realizes the paper's system-model property 4 ("costly to shift
/// results" — the key → serving-node mapping is stable on the timescale of
/// an attack) at the per-request level, and is the event-simulator
/// counterpart of the rate simulator's balls-into-bins placement. The front
/// end routes its misses through it too.
///
/// A pin names a node, not an index: callers may pass only the group's live
/// members. When the pinned node is not in the group given, the key is
/// re-picked with the same least-loaded draw and re-pinned to the new node.
class PinnedLeastLoadedSelector final : public ReplicaSelector {
 public:
  std::size_t select(KeyId key, std::span<const NodeId> group,
                     std::span<const double> node_loads, Rng& rng) override;
  std::string name() const override { return "pinned"; }
  void reset() override { pins_.clear(); }

  /// Forgets `key`'s pin; its next select() picks afresh.
  void unpin(KeyId key) { pins_.erase(key); }
  /// Keys pinned right now.
  std::size_t pin_count() const noexcept { return pins_.size(); }

 private:
  std::unordered_map<KeyId, NodeId> pins_;
};

/// Factory: kind ∈ {"random", "round-robin", "least-loaded", "pinned"}.
std::unique_ptr<ReplicaSelector> make_selector(const std::string& kind);

/// Front-end retry behavior when a replica is unreachable (dead node or a
/// network-dropped request): capped exponential backoff between attempts and
/// a total per-request timeout. The defaults retry twice with 1 ms → 2 ms
/// backoff and give up after 500 ms of accumulated waiting.
struct RetryPolicy {
  std::uint32_t max_retries = 2;   ///< retries after the first attempt
  double backoff_base_s = 0.001;   ///< backoff before the first retry
  double backoff_cap_s = 0.100;    ///< exponential growth is capped here
  double timeout_s = 0.500;        ///< total backoff budget per request

  /// Backoff before the (retry+1)-th attempt: min(base·2^retry, cap).
  double backoff_s(std::uint32_t retry) const noexcept;

  /// Total attempts a request may make: 1 + every retry whose cumulative
  /// backoff still fits in timeout_s (never more than 1 + max_retries).
  /// Deterministic — both simulators precompute it once per run.
  std::uint32_t max_attempts() const noexcept;
};

/// Degraded-mode filter: writes the members of `group` whose `alive` flag is
/// set into `out` (order preserved — the surviving d' < d choices the
/// selector then picks among) and returns their count. `alive` is indexed by
/// NodeId (a FaultView's alive vector); `out` must hold group.size() slots.
std::uint32_t alive_members(std::span<const NodeId> group,
                            std::span<const std::uint8_t> alive,
                            std::span<NodeId> out) noexcept;

}  // namespace scp
