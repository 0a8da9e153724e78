#include "cache/tinylfu_cache.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scp {
namespace {

std::size_t window_capacity_for(std::size_t capacity, double fraction) {
  if (capacity == 0) {
    return 0;
  }
  const auto w = static_cast<std::size_t>(
      std::ceil(static_cast<double>(capacity) * fraction));
  // Window needs at least one slot; main keeps the rest (possibly zero for
  // capacity == 1).
  return std::clamp<std::size_t>(w, 1, capacity);
}

}  // namespace

TinyLfuCache::TinyLfuCache(std::size_t capacity, Options options)
    : capacity_(capacity),
      window_capacity_(window_capacity_for(capacity, options.window_fraction)),
      sample_size_(options.sample_size != 0
                       ? options.sample_size
                       : std::max<std::uint64_t>(10 * capacity, 1024)),
      window_(std::make_unique<LruCache>(window_capacity_)),
      main_(std::make_unique<SlruCache>(capacity - window_capacity_,
                                        options.protected_fraction)),
      doorkeeper_(std::max<std::size_t>(sample_size_, 64), 0.01, options.seed),
      sketch_(CountMinSketch::for_error(
          /*epsilon=*/1.0 / std::max<double>(static_cast<double>(capacity), 8.0),
          /*delta=*/0.01, options.seed ^ 0xabcdef1234567890ULL)) {
  SCP_CHECK(options.window_fraction >= 0.0 && options.window_fraction <= 1.0);
}

std::size_t TinyLfuCache::size() const noexcept {
  return window_->size() + main_->size();
}

void TinyLfuCache::record_access(KeyId key) {
  // Doorkeeper absorbs the first occurrence; repeat occurrences go to the
  // sketch. estimated_frequency() adds the doorkeeper bit back in.
  if (doorkeeper_.maybe_contains(key)) {
    sketch_.add(key);
  } else {
    doorkeeper_.add(key);
  }
  if (++accesses_since_reset_ >= sample_size_) {
    sketch_.halve();
    doorkeeper_.clear();
    accesses_since_reset_ = 0;
  }
}

std::uint32_t TinyLfuCache::estimated_frequency(KeyId key) const {
  return sketch_.estimate(key) + (doorkeeper_.maybe_contains(key) ? 1 : 0);
}

bool TinyLfuCache::access(KeyId key) {
  if (capacity_ == 0) {
    return false;
  }
  record_access(key);
  if (window_->touch(key)) {
    return true;
  }
  if (main_->contains(key)) {
    return main_->access(key);
  }
  // Miss: the key enters the window; the window's LRU victim (if any)
  // competes for admission to main on estimated frequency.
  const std::optional<KeyId> candidate = window_->insert(key);
  if (!candidate.has_value()) {
    return false;
  }
  if (main_->size() < main_->capacity()) {
    main_->insert_probation(*candidate);
    return false;
  }
  // Main is full (or has no slots): the loser leaves the cache.
  KeyId loser = *candidate;
  if (main_->capacity() > 0 &&
      estimated_frequency(*candidate) >
          estimated_frequency(main_->eviction_victim())) {
    loser = main_->eviction_victim();
    main_->evict_one();
    main_->insert_probation(*candidate);
  }
  if (on_evict) on_evict(loser);
  return false;
}

bool TinyLfuCache::contains(KeyId key) const {
  return window_->contains(key) || main_->contains(key);
}

bool TinyLfuCache::invalidate(KeyId key) {
  // Frequency history is deliberately kept: invalidation removes the stale
  // *copy*, not the evidence of popularity.
  if (window_->invalidate(key)) {
    return true;
  }
  return main_->invalidate(key);
}

void TinyLfuCache::clear() {
  window_->clear();
  main_->clear();
  doorkeeper_.clear();
  sketch_.clear();
  accesses_since_reset_ = 0;
}

}  // namespace scp
