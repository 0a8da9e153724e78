#include "cache/slru_cache.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scp {

SlruCache::SlruCache(std::size_t capacity, double protected_fraction)
    : capacity_(capacity) {
  SCP_CHECK(protected_fraction >= 0.0 && protected_fraction <= 1.0);
  protected_capacity_ = static_cast<std::size_t>(
      std::floor(static_cast<double>(capacity) * protected_fraction));
  // Keep at least one probation slot when the cache is non-trivial, so new
  // keys always have a way in.
  if (capacity >= 1 && protected_capacity_ >= capacity) {
    protected_capacity_ = capacity - 1;
  }
  index_.reserve(capacity * 2);
}

bool SlruCache::access(KeyId key) {
  if (capacity_ == 0) {
    return false;
  }
  const auto it = index_.find(key);
  if (it == index_.end()) {
    if (index_.size() >= capacity_) {
      evict_one();
    }
    insert_probation(key);
    return false;
  }
  Entry& entry = it->second;
  if (entry.segment == Segment::kProtected) {
    protected_.splice(protected_.begin(), protected_, entry.position);
    entry.position = protected_.begin();
    return true;
  }
  // Probation hit → promote to protected, demoting its LRU if full.
  probation_.erase(entry.position);
  if (protected_capacity_ == 0) {
    // Degenerate split: protected segment disabled, stay in probation.
    probation_.push_front(key);
    entry.position = probation_.begin();
    return true;
  }
  if (protected_.size() >= protected_capacity_) {
    const KeyId demoted = protected_.back();
    protected_.pop_back();
    probation_.push_front(demoted);
    auto& demoted_entry = index_.at(demoted);
    demoted_entry.segment = Segment::kProbation;
    demoted_entry.position = probation_.begin();
  }
  protected_.push_front(key);
  entry.segment = Segment::kProtected;
  entry.position = protected_.begin();
  return true;
}

bool SlruCache::contains(KeyId key) const {
  return index_.find(key) != index_.end();
}

bool SlruCache::invalidate(KeyId key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  (it->second.segment == Segment::kProbation ? probation_ : protected_)
      .erase(it->second.position);
  index_.erase(it);
  return true;
}

void SlruCache::clear() {
  probation_.clear();
  protected_.clear();
  index_.clear();
}

KeyId SlruCache::eviction_victim() const {
  SCP_CHECK_MSG(!index_.empty(), "no victim in an empty cache");
  return !probation_.empty() ? probation_.back() : protected_.back();
}

void SlruCache::evict_one() {
  SCP_CHECK_MSG(!index_.empty(), "cannot evict from an empty cache");
  std::list<KeyId>& segment = !probation_.empty() ? probation_ : protected_;
  const KeyId victim = segment.back();
  index_.erase(victim);
  segment.pop_back();
  if (on_evict) on_evict(victim);
}

void SlruCache::insert_probation(KeyId key) {
  SCP_DCHECK(index_.find(key) == index_.end());
  SCP_DCHECK(index_.size() < capacity_);
  probation_.push_front(key);
  index_.emplace(key, Entry{Segment::kProbation, probation_.begin()});
}

}  // namespace scp
