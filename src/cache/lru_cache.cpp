#include "cache/lru_cache.h"

#include "common/check.h"

namespace scp {

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {
  index_.reserve(capacity * 2);
}

bool LruCache::touch(KeyId key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  order_.splice(order_.begin(), order_, it->second);
  return true;
}

std::optional<KeyId> LruCache::insert(KeyId key) {
  SCP_DCHECK(capacity_ > 0);
  SCP_DCHECK(index_.find(key) == index_.end());
  std::optional<KeyId> evicted;
  if (index_.size() >= capacity_) {
    evicted = order_.back();
    index_.erase(order_.back());
    order_.pop_back();
    if (on_evict) on_evict(*evicted);
  }
  order_.push_front(key);
  index_.emplace(key, order_.begin());
  return evicted;
}

bool LruCache::access(KeyId key) {
  if (capacity_ == 0) {
    return false;
  }
  if (touch(key)) {
    return true;
  }
  insert(key);
  return false;
}

bool LruCache::contains(KeyId key) const {
  return index_.find(key) != index_.end();
}

bool LruCache::invalidate(KeyId key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  order_.erase(it->second);
  index_.erase(it);
  return true;
}

void LruCache::clear() {
  order_.clear();
  index_.clear();
}

}  // namespace scp
