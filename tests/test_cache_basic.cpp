// LRU and LFU policy behaviour, plus the FrontEndCache contract that all
// policies share.
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/lfu_cache.h"
#include "cache/lru_cache.h"
#include "cache/tinylfu_cache.h"
#include "workload/distribution.h"
#include "workload/stream.h"

namespace scp {
namespace {

// --- shared contract, parameterized over every real policy ------------------

class CacheContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<FrontEndCache> make(std::size_t capacity) {
    return make_cache(GetParam(), capacity);
  }
};

TEST_P(CacheContractTest, StartsEmpty) {
  const auto cache = make(4);
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->capacity(), 4u);
  EXPECT_FALSE(cache->contains(1));
}

TEST_P(CacheContractTest, FirstAccessMissesThenHits) {
  const auto cache = make(4);
  EXPECT_FALSE(cache->access(1));
  EXPECT_TRUE(cache->contains(1));
  EXPECT_TRUE(cache->access(1));
}

TEST_P(CacheContractTest, NeverExceedsCapacity) {
  const auto cache = make(8);
  for (KeyId k = 0; k < 1000; ++k) {
    cache->access(k % 37);
    ASSERT_LE(cache->size(), 8u);
  }
}

TEST_P(CacheContractTest, ZeroCapacityNeverCaches) {
  const auto cache = make(0);
  for (KeyId k = 0; k < 20; ++k) {
    EXPECT_FALSE(cache->access(k));
    EXPECT_FALSE(cache->access(k));  // second access still misses
  }
  EXPECT_EQ(cache->size(), 0u);
}

TEST_P(CacheContractTest, ClearEmptiesTheCache) {
  const auto cache = make(4);
  cache->access(1);
  cache->access(2);
  cache->clear();
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_FALSE(cache->contains(1));
}

TEST_P(CacheContractTest, CapacityOneKeepsLastAdmittableKey) {
  const auto cache = make(1);
  cache->access(5);
  EXPECT_LE(cache->size(), 1u);
  EXPECT_TRUE(cache->access(5));
}

TEST_P(CacheContractTest, NameIsNonEmpty) {
  EXPECT_FALSE(make(2)->name().empty());
}

// The eviction listener names exactly the keys the policy drops to make
// room: a model kept from admissions and from the listener equals the
// policy's contents after every access. Capacity 1 gives W-TinyLFU a main
// cache with no slots, so every window victim is dropped.
TEST_P(CacheContractTest, EvictionListenerTracksContents) {
  for (const std::size_t capacity : {1, 2, 16, 100}) {
    SCOPED_TRACE(capacity);
    const auto cache = make(capacity);
    std::unordered_set<KeyId> model;
    std::size_t reported = 0;
    cache->on_evict = [&](KeyId key) {
      EXPECT_EQ(model.erase(key), 1u) << "reported uncached key " << key;
      ++reported;
    };
    const auto access = [&](KeyId key) -> ::testing::AssertionResult {
      if (!cache->access(key) && cache->contains(key)) model.insert(key);
      if (cache->size() != model.size()) {
        return ::testing::AssertionFailure()
               << "size " << cache->size() << ", model " << model.size();
      }
      for (const KeyId held : model) {
        if (!cache->contains(held)) {
          return ::testing::AssertionFailure() << "lost " << held;
        }
      }
      return ::testing::AssertionSuccess();
    };

    // A Zipf stream, then a scan of keys it never asked for.
    QueryStream stream(QueryDistribution::zipf(1000, 1.0), 1000.0, 7);
    for (int i = 0; i < 5000; ++i) {
      const KeyId key = stream.next().key;
      ASSERT_TRUE(access(key)) << "after key " << key;
    }
    for (KeyId key = 10'000; key < 10'000 + 3 * capacity; ++key) {
      ASSERT_TRUE(access(key)) << "after scan key " << key;
    }
    EXPECT_GT(reported, 0u);

    // Dropping a key on purpose is not an eviction.
    const std::size_t evictions = reported;
    ASSERT_FALSE(model.empty());
    EXPECT_TRUE(cache->invalidate(*model.begin()));
    cache->clear();
    EXPECT_EQ(reported, evictions);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheContractTest,
                         ::testing::Values("lru", "lfu", "slru", "tinylfu"));

// --- LRU specifics -----------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(3);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  cache.access(1);   // 1 is now MRU; LRU order: 2, 3, 1
  cache.access(4);   // evicts 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LruCache, HitRefreshesRecency) {
  LruCache cache(2);
  cache.access(1);
  cache.access(2);
  cache.access(1);  // refresh 1
  cache.access(3);  // evicts 2, not 1
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(LruCache, TouchDoesNotAdmit) {
  LruCache cache(2);
  EXPECT_FALSE(cache.touch(9));
  EXPECT_FALSE(cache.contains(9));
}

TEST(LruCache, InsertReturnsEvictedKey) {
  LruCache cache(2);
  EXPECT_EQ(cache.insert(1), std::nullopt);
  EXPECT_EQ(cache.insert(2), std::nullopt);
  const auto evicted = cache.insert(3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1u);
}

TEST(LruCache, ScanEvictsEverything) {
  // Classic LRU weakness: a one-shot scan flushes the working set.
  LruCache cache(4);
  for (KeyId k = 0; k < 4; ++k) {
    cache.access(k);
  }
  for (KeyId k = 100; k < 104; ++k) {
    cache.access(k);
  }
  for (KeyId k = 0; k < 4; ++k) {
    EXPECT_FALSE(cache.contains(k));
  }
}

// --- LFU specifics -----------------------------------------------------------

TEST(LfuCache, EvictsLeastFrequent) {
  LfuCache cache(3);
  cache.access(1);
  cache.access(1);
  cache.access(1);
  cache.access(2);
  cache.access(2);
  cache.access(3);
  cache.access(4);  // evicts 3 (frequency 1, least-recently used among f=1)
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LfuCache, FrequencyCountsAccesses) {
  LfuCache cache(4);
  cache.access(7);
  cache.access(7);
  cache.access(7);
  EXPECT_EQ(cache.frequency(7), 3u);
  EXPECT_EQ(cache.frequency(8), 0u);
}

TEST(LfuCache, TieBrokenByRecencyWithinFrequency) {
  LfuCache cache(2);
  cache.access(1);
  cache.access(2);  // both frequency 1; 1 is older
  cache.access(3);  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LfuCache, HeavyHitterSurvivesScan) {
  LfuCache cache(4);
  for (int i = 0; i < 10; ++i) {
    cache.access(42);
  }
  for (KeyId k = 100; k < 150; ++k) {
    cache.access(k);
  }
  EXPECT_TRUE(cache.contains(42));
}

TEST(LfuCache, NewKeysChurnAtFrequencyOne) {
  LfuCache cache(2);
  cache.access(1);
  cache.access(1);  // f(1) = 2
  for (KeyId k = 10; k < 20; ++k) {
    cache.access(k);  // each new key evicts the previous f=1 key
  }
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MakeCache, RejectsUnknownKind) {
  EXPECT_DEATH(make_cache("arc", 10), "unknown cache kind");
  EXPECT_FALSE(is_cache_kind("arc"));
  EXPECT_TRUE(is_cache_kind("tinylfu"));
}

// --- W-TinyLFU eviction reports -----------------------------------------------

TEST(TinyLfuCache, CandidateThatLosesAdmissionIsReported) {
  TinyLfuCache cache(10);  // a 1-slot window in front of a 9-slot main
  std::vector<KeyId> reported;
  cache.on_evict = [&](KeyId key) { reported.push_back(key); };
  // Keys 0..8 seen five times each: 0..7 in main, 8 in the window.
  for (int round = 0; round < 5; ++round) {
    for (KeyId key = 0; key < 9; ++key) cache.access(key);
  }
  ASSERT_TRUE(reported.empty());
  cache.access(100);  // 8 moves into main's last free slot
  cache.access(101);  // window victim 100 (seen once) loses to main's victim
  cache.access(102);  // and so does 101
  EXPECT_EQ(reported, (std::vector<KeyId>{100, 101}));
  for (KeyId key = 0; key < 9; ++key) EXPECT_TRUE(cache.contains(key)) << key;
  EXPECT_TRUE(cache.contains(102));
  EXPECT_EQ(cache.size(), 10u);
}

}  // namespace
}  // namespace scp
