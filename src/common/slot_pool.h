#ifndef HYPERPROF_COMMON_SLOT_POOL_H_
#define HYPERPROF_COMMON_SLOT_POOL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace hyperprof {

/**
 * Recycled table of records addressed by a 32-bit index.
 *
 * Continuations on the simulation hot path capture `(owner, index)` — a
 * trivially copyable pair that fits every callback's inline buffer — and
 * look their state up here instead of sharing it through a heap cell. A
 * record is handed out by Acquire, stays at a fixed address until its
 * index is Released, and then goes to the next Acquire (most recently
 * released first, so the hot records stay in cache).
 *
 * Records live in fixed-size chunks that never move: a reference to one
 * record stays valid while other records are acquired, so a continuation
 * that starts a nested operation of the same kind (an RPC handler issuing
 * an RPC) cannot invalidate the record it is running from. The table grows
 * to the in-flight high-water mark and keeps its chunks, so a steady
 * state allocates nothing. Acquire does not reset a recycled record: the
 * caller assigns every field it reads, which lets records keep the
 * capacity of their scratch vectors.
 */
template <typename T>
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  /** Index of a free record, growing the table if none is free. */
  uint32_t Acquire() {
    if (!free_.empty()) {
      uint32_t index = free_.back();
      free_.pop_back();
      return index;
    }
    if ((size_ & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
      // Every index can be on the free list at once: reserving here keeps
      // Release allocation-free.
      free_.reserve(chunks_.size() * kChunkSize);
    }
    return size_++;
  }

  /** Returns `index` to the free list; its record stays as it was. */
  void Release(uint32_t index) {
    assert(index < size_);
    free_.push_back(index);
  }

  T& operator[](uint32_t index) {
    assert(index < size_);
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

 private:
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t size_ = 0;
};

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_SLOT_POOL_H_
