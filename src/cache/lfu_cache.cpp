#include "cache/lfu_cache.h"

#include "common/check.h"

namespace scp {

LfuCache::LfuCache(std::size_t capacity) : capacity_(capacity) {
  entries_.reserve(capacity * 2);
}

void LfuCache::promote(Entry& entry) {
  const auto bucket = entry.bucket;
  const std::uint64_t next_freq = bucket->frequency + 1;
  auto next = std::next(bucket);
  if (next == buckets_.end() || next->frequency != next_freq) {
    next = buckets_.insert(next, Bucket{next_freq, {}});
  }
  next->keys.splice(next->keys.begin(), bucket->keys, entry.position);
  entry.bucket = next;
  entry.position = next->keys.begin();
  if (bucket->keys.empty()) {
    buckets_.erase(bucket);
  }
}

bool LfuCache::access(KeyId key) {
  if (capacity_ == 0) {
    return false;
  }
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    promote(it->second);
    return true;
  }
  if (entries_.size() >= capacity_) {
    // Evict the least-recently-used key of the lowest-frequency bucket.
    Bucket& lowest = buckets_.front();
    SCP_DCHECK(!lowest.keys.empty());
    const KeyId victim = lowest.keys.back();
    entries_.erase(victim);
    lowest.keys.pop_back();
    if (lowest.keys.empty()) {
      buckets_.pop_front();
    }
    if (on_evict) on_evict(victim);
  }
  if (buckets_.empty() || buckets_.front().frequency != 1) {
    buckets_.push_front(Bucket{1, {}});
  }
  buckets_.front().keys.push_front(key);
  entries_.emplace(key, Entry{buckets_.begin(), buckets_.front().keys.begin()});
  return false;
}

bool LfuCache::contains(KeyId key) const {
  return entries_.find(key) != entries_.end();
}

bool LfuCache::invalidate(KeyId key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  const auto bucket = it->second.bucket;
  bucket->keys.erase(it->second.position);
  if (bucket->keys.empty()) {
    buckets_.erase(bucket);
  }
  entries_.erase(it);
  return true;
}

void LfuCache::clear() {
  buckets_.clear();
  entries_.clear();
}

std::uint64_t LfuCache::frequency(KeyId key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() ? it->second.bucket->frequency : 0;
}

}  // namespace scp
