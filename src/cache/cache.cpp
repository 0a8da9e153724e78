#include "cache/cache.h"

#include "cache/lfu_cache.h"
#include "cache/lru_cache.h"
#include "cache/slru_cache.h"
#include "cache/tinylfu_cache.h"
#include "common/check.h"

namespace scp {

std::unique_ptr<FrontEndCache> make_cache(const std::string& kind,
                                          std::size_t capacity) {
  if (kind == "lru") {
    return std::make_unique<LruCache>(capacity);
  }
  if (kind == "lfu") {
    return std::make_unique<LfuCache>(capacity);
  }
  if (kind == "slru") {
    return std::make_unique<SlruCache>(capacity);
  }
  if (kind == "tinylfu") {
    return std::make_unique<TinyLfuCache>(capacity);
  }
  SCP_CHECK_MSG(false, "unknown cache kind (use lru|lfu|slru|tinylfu)");
  return nullptr;
}

bool is_cache_kind(const std::string& kind) {
  return kind == "lru" || kind == "lfu" || kind == "slru" || kind == "tinylfu";
}

}  // namespace scp
