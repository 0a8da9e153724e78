// Front-end cache interface.
//
// The paper assumes a *perfect* popularity cache (Assumption 2): the c most
// popular items are always cached. PerfectCache implements exactly that
// oracle; the real eviction policies in this module (LRU, LFU, SLRU,
// W-TinyLFU) let the cache-policy ablation measure what the assumption is
// worth under adversarial and Zipf workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cluster/types.h"

namespace scp {

class FrontEndCache {
 public:
  virtual ~FrontEndCache() = default;

  /// Maximum number of cached items (c in the paper). A capacity of zero
  /// means "no cache": every access misses and nothing is admitted.
  virtual std::size_t capacity() const noexcept = 0;

  /// Current number of cached items.
  virtual std::size_t size() const noexcept = 0;

  virtual std::string name() const = 0;

  /// Processes one query for `key`. Returns true on a cache hit (the
  /// front-end serves it; no back-end work). On a miss the policy may admit
  /// the key, evicting per its rules.
  virtual bool access(KeyId key) = 0;

  /// True iff the key is currently cached. Does not touch recency state.
  virtual bool contains(KeyId key) const = 0;

  /// Drops all cached items and any learned state.
  virtual void clear() = 0;

  /// When the cached set is exactly the key prefix [0, P) — true for the
  /// perfect oracle over a rank-canonical distribution — returns P, with the
  /// contract that contains(k) == (k < P) for every key. Simulator fast
  /// paths then replace the per-key virtual set lookup with one compare.
  /// Default: unknown (nullopt); policies with learned state must not claim
  /// a prefix.
  virtual std::optional<std::uint64_t> cached_prefix() const {
    return std::nullopt;
  }

  /// Removes one key if present (cache-coherence hook: a write to the
  /// backing store must not leave a stale cached copy). Returns true if the
  /// key was cached. Default: not supported, returns false — the perfect
  /// oracle ignores invalidation since it models read-only popularity.
  virtual bool invalidate(KeyId key) {
    (void)key;
    return false;
  }

  /// Eviction listener: LRU, LFU, SLRU and W-TinyLFU tell it every key
  /// they drop to make room for another, never one dropped by invalidate()
  /// or clear(). The simulators leave it unset.
  std::function<void(KeyId)> on_evict;
};

/// Factory for the eviction policies usable in the event simulator:
/// kind ∈ {"lru", "lfu", "slru", "tinylfu"}. (PerfectCache is constructed
/// directly since it needs the true distribution.) Aborts on another kind.
std::unique_ptr<FrontEndCache> make_cache(const std::string& kind,
                                          std::size_t capacity);

/// True for the kinds make_cache builds.
bool is_cache_kind(const std::string& kind);

}  // namespace scp
