// Least-recently-used cache with O(1) access.
#pragma once

#include <list>
#include <optional>
#include <unordered_map>

#include "cache/cache.h"

namespace scp {

class LruCache final : public FrontEndCache {
 public:
  explicit LruCache(std::size_t capacity);

  std::size_t capacity() const noexcept override { return capacity_; }
  std::size_t size() const noexcept override { return index_.size(); }
  std::string name() const override { return "lru"; }

  /// Hit: moves the key to the MRU position. Miss: admits the key, evicting
  /// the LRU entry when full.
  bool access(KeyId key) override;
  bool contains(KeyId key) const override;
  void clear() override;

  /// Hit-only variant: refreshes recency and returns true iff present;
  /// never admits. Building block for composite policies (W-TinyLFU).
  bool touch(KeyId key);

  /// Inserts an absent key at the MRU position; returns the evicted LRU key
  /// (also told to on_evict) when the insert overflowed capacity. Requires
  /// !contains(key) and capacity() > 0.
  std::optional<KeyId> insert(KeyId key);

  bool invalidate(KeyId key) override;

 private:
  std::size_t capacity_;
  std::list<KeyId> order_;  // front = MRU, back = LRU
  std::unordered_map<KeyId, std::list<KeyId>::iterator> index_;
};

}  // namespace scp
