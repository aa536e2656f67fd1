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

/** Warms `cache` the eager way: one Insert per owned id, in id order. */
void EagerPrewarm(LruCache& cache, const WarmPrefix& prefix) {
  for (uint64_t id = 0; id < prefix.limit; ++id) {
    if (HomeServer(id, prefix.servers) == prefix.server) {
      cache.Insert(id, prefix.block_bytes);
    }
  }
}

uint64_t OwnedCount(uint64_t limit, uint32_t server, uint32_t servers) {
  uint64_t owned = 0;
  for (uint64_t id = 0; id < limit; ++id) {
    if (HomeServer(id, servers) == server) ++owned;
  }
  return owned;
}

void ExpectSameCounters(const LruCache& a, const LruCache& b) {
  ASSERT_EQ(a.used_bytes(), b.used_bytes());
  ASSERT_EQ(a.entry_count(), b.entry_count());
  ASSERT_EQ(a.hits(), b.hits());
  ASSERT_EQ(a.misses(), b.misses());
  ASSERT_EQ(a.evictions(), b.evictions());
}

TEST(LruCacheTest, WarmPrefixMatchesEagerInserts) {
  struct Case {
    const char* name;
    uint64_t capacity;
    uint64_t limit;
    uint32_t server;
    uint32_t servers;
    uint64_t block_bytes;
    bool used_before;  // the cache holds blocks when warmed
  };
  const Case cases[] = {
      {"fits", 64 * 400, 3000, 3, 16, 64, false},
      {"overflows at warm time", 64 * 40, 3000, 5, 16, 64, false},
      {"block larger than the cache", 100, 3000, 1, 16, 200, false},
      {"zero-byte blocks", 1000, 3000, 2, 16, 0, false},
      {"empty range", 1000, 0, 0, 16, 64, false},
      {"one server", 64 * 300, 500, 0, 1, 64, false},
      {"one server overflowing", 64 * 100, 500, 0, 1, 64, false},
      {"cache already in use", 64 * 100, 3000, 7, 16, 64, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const WarmPrefix prefix{c.limit, c.server, c.servers, c.block_bytes,
                            OwnedCount(c.limit, c.server, c.servers)};
    for (uint64_t seed = 0; seed < 4; ++seed) {
      LruCache eager(c.capacity);
      LruCache lazy(c.capacity);
      if (c.used_before) {
        for (LruCache* cache : {&eager, &lazy}) {
          cache->Insert(c.limit + 1, 64);
          cache->Insert(7, 64);
          cache->Touch(c.limit + 1);
        }
      }
      EagerPrewarm(eager, prefix);
      lazy.Prewarm(prefix);
      ASSERT_NO_FATAL_FAILURE(ExpectSameCounters(lazy, eager));
      if (!c.used_before) {
        EXPECT_EQ(lazy.memory_bytes(), 0u);
      }

      // Mostly ids inside the warm range, so hits detach warm blocks,
      // misses admit new ones that evict warm blocks, and refreshes and
      // erases land on both kinds.
      const uint64_t ids = c.limit + 64;
      std::mt19937_64 rng(seed * 7919 + c.capacity);
      for (int step = 0; step < 20000; ++step) {
        const uint64_t id = rng() % ids;
        switch (rng() % 6) {
          case 0:
          case 1:
            ASSERT_EQ(lazy.Touch(id), eager.Touch(id)) << "step " << step;
            break;
          case 2:
          case 3: {
            uint64_t bytes = c.block_bytes;
            const uint64_t pick = rng() % 8;
            if (pick == 0) bytes = c.capacity + 1;  // never admitted
            if (pick >= 5) bytes = rng() % (2 * c.block_bytes + 2);
            ASSERT_EQ(lazy.Insert(id, bytes), eager.Insert(id, bytes))
                << "step " << step;
            break;
          }
          case 4:
            ASSERT_EQ(lazy.Erase(id), eager.Erase(id)) << "step " << step;
            break;
          case 5:
            ASSERT_EQ(lazy.Contains(id), eager.Contains(id))
                << "step " << step;
            break;
        }
        ASSERT_NO_FATAL_FAILURE(ExpectSameCounters(lazy, eager));
      }
      for (uint64_t id = 0; id < ids; ++id) {
        ASSERT_EQ(lazy.Contains(id), eager.Contains(id)) << "id " << id;
      }
      // Fresh blocks must push out the same residents in the same order.
      for (uint64_t k = 0; k < 100; ++k) {
        const uint64_t fresh = ids + k;
        ASSERT_EQ(lazy.Insert(fresh, 64), eager.Insert(fresh, 64));
        ASSERT_NO_FATAL_FAILURE(ExpectSameCounters(lazy, eager));
        for (uint64_t id = 0; id < ids; id += 7) {
          ASSERT_EQ(lazy.Contains(id), eager.Contains(id)) << "id " << id;
        }
      }
    }
  }
}

TEST(LruCacheTest, WarmPrefixEvictsLowestIdsFirst) {
  // Three ids of 100 bytes fill the cache; a new block evicts the lowest
  // warm id, a touched warm id outlives the untouched ones.
  LruCache cache(300);
  cache.Prewarm({/*limit=*/3, /*server=*/0, /*servers=*/1, 100, 3});
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_TRUE(cache.Touch(0));
  cache.Insert(10, 100);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  cache.Insert(11, 100);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(cache.evictions(), 2u);
}

}  // namespace
}  // namespace hyperprof::storage
