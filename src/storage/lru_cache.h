#ifndef HYPERPROF_STORAGE_LRU_CACHE_H_
#define HYPERPROF_STORAGE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperprof::storage {

/**
 * Home fileserver of a block among `servers` fileservers. The one block
 * placement hash: the DFS routes IO by it, and a WarmPrefix names the
 * blocks a cache holds by it.
 */
inline uint32_t HomeServer(uint64_t block_id, uint32_t servers) {
  uint64_t x = block_id;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x % servers);
}

/**
 * One cache's share of a warmed id range: the ids in [0, limit) whose
 * HomeServer among `servers` is `server`, each of `block_bytes`. `owned`
 * is how many such ids there are.
 */
struct WarmPrefix {
  uint64_t limit = 0;
  uint32_t server = 0;
  uint32_t servers = 1;
  uint64_t block_bytes = 0;
  uint64_t owned = 0;
};

/**
 * Byte-capacity LRU cache over opaque block ids.
 *
 * Tracks only residency (id -> size); the simulated data itself has no
 * contents. Eviction is strict LRU by last touch. Used as the RAM read
 * cache and the SSD flash cache of the tiered store.
 *
 * Storage is a linear-probing open-addressing table over recycled slots
 * with an intrusive doubly-linked LRU list threaded through slot indices:
 * once its table and slots have grown to the working set, Touch/Insert/
 * Erase perform no heap allocation (evicted slots return to a free list;
 * the table only ever grows).
 *
 * A cache may also hold a *warm prefix* (see Prewarm): blocks described
 * by a WarmPrefix rather than stored. Warm blocks are older than every
 * stored block, so they form the LRU end of the list, lowest id oldest.
 * Eviction takes the oldest live warm id first (a cursor scanning up the
 * range) and the stored LRU tail only once no warm block is left. A
 * Touch, refreshing Insert or Erase of a warm block *detaches* it: the
 * id is remembered in a small set, and Touch and Insert store it at MRU,
 * where a stored block would have moved. Every observable — return
 * values, Contains, entry_count, used_bytes, hits, misses, evictions and
 * the eviction order — is that of the Insert loop the prefix stands for,
 * while memory grows only with the blocks the run touches.
 */
class LruCache {
 public:
  /** @param capacity_bytes Total bytes the cache may hold (>= 0). */
  explicit LruCache(uint64_t capacity_bytes);

  /**
   * Looks up a block, promoting it to MRU on hit.
   * @return true on hit.
   */
  bool Touch(uint64_t block_id);

  /**
   * Inserts (or refreshes) a block of the given size, evicting LRU entries
   * until it fits. Blocks larger than the whole cache are not admitted.
   * @return true if the block is resident after the call.
   */
  bool Insert(uint64_t block_id, uint64_t bytes);

  /** Removes a block if present; returns true if it was resident. */
  bool Erase(uint64_t block_id);

  /**
   * Leaves the cache in the state that `Insert(id, prefix.block_bytes)`
   * for every id the prefix owns, in increasing id order, would leave,
   * but stores no block: if the blocks overflow the capacity, the lowest
   * ids count as evicted. Only an empty cache takes the prefix as a
   * descriptor; one that holds blocks gets the Insert loop itself.
   */
  void Prewarm(const WarmPrefix& prefix);

  /** Residency check without LRU promotion. */
  bool Contains(uint64_t block_id) const;

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t entry_count() const { return entry_count_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /** Hit fraction over all Touch calls (0 when never touched). */
  double HitRate() const;

  /** Heap bytes held: hash table, slots, free list and detached set. */
  uint64_t memory_bytes() const;

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Slot {
    uint64_t block_id = 0;
    uint64_t bytes = 0;
    uint32_t prev = kNil;  // toward MRU
    uint32_t next = kNil;  // toward LRU
  };

  // Empty cell of `detached_`; never an id below a prefix's limit.
  static constexpr uint64_t kNoId = ~uint64_t{0};

  static uint64_t Mix(uint64_t x);
  size_t FindCell(uint64_t block_id) const;
  void Unlink(uint32_t slot);
  void LinkFront(uint32_t slot);
  void EraseCell(size_t cell);
  void AddSlot(uint64_t block_id, uint64_t bytes);
  void RemoveSlot(uint32_t slot);
  void EvictUntilFits(uint64_t incoming_bytes);
  void Rehash(size_t cells);

  bool Owned(uint64_t block_id) const;
  bool IsWarm(uint64_t block_id) const;
  bool IsDetached(uint64_t block_id) const;
  void PlaceDetached(uint64_t block_id);
  void Detach(uint64_t block_id);
  void ReleaseWarm();
  void EvictOldestWarm();

  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;
  size_t entry_count_ = 0;
  std::vector<uint32_t> table_;  // cell holds slot index + 1; 0 = empty
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint32_t head_ = kNil;  // MRU
  uint32_t tail_ = kNil;  // LRU
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;

  // Warm prefix: live warm ids are the owned ids in [warm_cursor_,
  // warm_.limit) that are not in `detached_`.
  WarmPrefix warm_;
  uint64_t warm_cursor_ = 0;
  uint64_t warm_live_ = 0;
  std::vector<uint64_t> detached_;  // open-addressing id set; kNoId = empty
  size_t detached_count_ = 0;
};

}  // namespace hyperprof::storage

#endif  // HYPERPROF_STORAGE_LRU_CACHE_H_
