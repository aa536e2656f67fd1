#include "storage/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <random>
#include <unordered_map>
#include <utility>

namespace hyperprof::storage {
namespace {

TEST(LruCacheTest, MissThenHit) {
  LruCache cache(1024);
  EXPECT_FALSE(cache.Touch(1));
  cache.Insert(1, 100);
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  cache.Insert(3, 100);
  cache.Touch(1);          // 1 is now MRU; 2 is LRU
  cache.Insert(4, 100);    // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, OversizedBlockNotAdmitted) {
  LruCache cache(100);
  EXPECT_FALSE(cache.Insert(1, 200));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, ReinsertUpdatesSize) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(1, 250);
  EXPECT_EQ(cache.used_bytes(), 250u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCacheTest, ReinsertLargerEvictsOthers) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  cache.Insert(2, 250);  // 1 must go
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_LE(cache.used_bytes(), 300u);
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache cache(300);
  cache.Insert(1, 100);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, ContainsDoesNotPromote) {
  LruCache cache(200);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  // Contains(1) must not promote 1; inserting 3 should evict 1 (LRU).
  EXPECT_TRUE(cache.Contains(1));
  cache.Insert(3, 100);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCacheTest, MultipleEvictionsToFit) {
  LruCache cache(300);
  cache.Insert(1, 100);
  cache.Insert(2, 100);
  cache.Insert(3, 100);
  cache.Insert(4, 300);  // evicts all three
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.evictions(), 3u);
}

TEST(LruCacheTest, ZeroCapacityAdmitsNothing) {
  LruCache cache(0);
  EXPECT_FALSE(cache.Insert(1, 1));
  EXPECT_FALSE(cache.Touch(1));
}

namespace {

// Straightforward list+map LRU with the documented semantics, used as the
// oracle for the open-addressing implementation.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Touch(uint64_t id) {
    auto it = map_.find(id);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  bool Insert(uint64_t id, uint64_t bytes) {
    if (bytes > capacity_) return false;
    auto it = map_.find(id);
    if (it != map_.end()) {
      used_ -= it->second->second;
      it->second->second = bytes;
      used_ += bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      Evict(0);
      return true;
    }
    Evict(bytes);
    lru_.emplace_front(id, bytes);
    map_[id] = lru_.begin();
    used_ += bytes;
    return true;
  }

  bool Erase(uint64_t id) {
    auto it = map_.find(id);
    if (it == map_.end()) return false;
    used_ -= it->second->second;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  bool Contains(uint64_t id) const { return map_.count(id) > 0; }
  uint64_t used() const { return used_; }
  size_t size() const { return map_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  void Evict(uint64_t incoming) {
    while (!lru_.empty() && used_ + incoming > capacity_) {
      used_ -= lru_.back().second;
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::list<std::pair<uint64_t, uint64_t>> lru_;
  std::unordered_map<uint64_t, decltype(lru_)::iterator> map_;
  uint64_t evictions_ = 0;
};

}  // namespace

TEST(LruCacheTest, MatchesReferenceModelUnderChurn) {
  // Heavy mixed workload over a small key space so hits, refreshes,
  // evictions, and erases all fire constantly; every observable must track
  // the oracle exactly, including eviction order.
  LruCache cache(4096);
  ReferenceLru ref(4096);
  std::mt19937_64 rng(1234);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t id = rng() % 512;
    switch (rng() % 4) {
      case 0:
        EXPECT_EQ(cache.Touch(id), ref.Touch(id));
        break;
      case 1:
      case 2: {
        const uint64_t bytes = 1 + rng() % 300;
        EXPECT_EQ(cache.Insert(id, bytes), ref.Insert(id, bytes));
        break;
      }
      case 3:
        EXPECT_EQ(cache.Erase(id), ref.Erase(id));
        break;
    }
    ASSERT_EQ(cache.used_bytes(), ref.used());
    ASSERT_EQ(cache.entry_count(), ref.size());
    ASSERT_EQ(cache.evictions(), ref.evictions());
  }
  for (uint64_t id = 0; id < 512; ++id) {
    ASSERT_EQ(cache.Contains(id), ref.Contains(id)) << "id " << id;
  }
}

TEST(LruCacheTest, PresizedCacheMatchesUnsized) {
  // Reserve only sizes the hash table: every return value, counter and
  // residency bit must match a cache that grew on demand, whether the
  // reservation is short, exact or generous, and made before or during use.
  for (size_t reserve : {0, 3, 64, 700, 5000}) {
    LruCache plain(8192);
    LruCache sized(8192);
    sized.Reserve(reserve);
    std::mt19937_64 rng(99 + reserve);
    for (int step = 0; step < 50000; ++step) {
      if (step == 20000) sized.Reserve(2 * reserve);
      const uint64_t id = rng() % 1024;
      switch (rng() % 4) {
        case 0:
          ASSERT_EQ(sized.Touch(id), plain.Touch(id));
          break;
        case 1:
        case 2: {
          const uint64_t bytes = 1 + rng() % 64;
          ASSERT_EQ(sized.Insert(id, bytes), plain.Insert(id, bytes));
          break;
        }
        case 3:
          ASSERT_EQ(sized.Erase(id), plain.Erase(id));
          break;
      }
      ASSERT_EQ(sized.used_bytes(), plain.used_bytes());
      ASSERT_EQ(sized.entry_count(), plain.entry_count());
    }
    EXPECT_EQ(sized.hits(), plain.hits()) << reserve;
    EXPECT_EQ(sized.misses(), plain.misses()) << reserve;
    EXPECT_EQ(sized.evictions(), plain.evictions()) << reserve;
    for (uint64_t id = 0; id < 1024; ++id) {
      ASSERT_EQ(sized.Contains(id), plain.Contains(id)) << "id " << id;
    }
    // Push fresh blocks through both: they must evict the same residents
    // in the same (LRU) order.
    for (uint64_t k = 0; k < 200; ++k) {
      const uint64_t fresh = (1 << 20) + k;
      ASSERT_EQ(sized.Insert(fresh, 64), plain.Insert(fresh, 64));
      ASSERT_EQ(sized.evictions(), plain.evictions());
      for (uint64_t id = 0; id < 1024; ++id) {
        ASSERT_EQ(sized.Contains(id), plain.Contains(id)) << "id " << id;
      }
    }
  }
}

}  // namespace
}  // namespace hyperprof::storage
