#include "storage/lru_cache.h"

#include <algorithm>

namespace hyperprof::storage {

namespace {
constexpr size_t kNpos = static_cast<size_t>(-1);
constexpr size_t kInitialTableCells = 16;
}  // namespace

LruCache::LruCache(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

uint64_t LruCache::Mix(uint64_t x) {
  // splitmix64 finalizer: block ids are often sequential, so the table
  // needs real avalanche before masking down to a probe start.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t LruCache::FindCell(uint64_t block_id) const {
  if (table_.empty()) return kNpos;
  const size_t mask = table_.size() - 1;
  size_t cell = Mix(block_id) & mask;
  while (true) {
    const uint32_t v = table_[cell];
    if (v == 0) return kNpos;
    if (slots_[v - 1].block_id == block_id) return cell;
    cell = (cell + 1) & mask;
  }
}

void LruCache::Unlink(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
  s.prev = kNil;
  s.next = kNil;
}

void LruCache::LinkFront(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = head_;
  if (head_ != kNil) slots_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void LruCache::EraseCell(size_t cell) {
  // Backward-shift deletion keeps probe chains tombstone-free, so lookup
  // cost stays bounded by live load factor no matter how much churn the
  // eviction loop generates.
  const size_t mask = table_.size() - 1;
  size_t hole = cell;
  size_t probe = cell;
  while (true) {
    probe = (probe + 1) & mask;
    const uint32_t v = table_[probe];
    if (v == 0) break;
    const size_t home = Mix(slots_[v - 1].block_id) & mask;
    const bool home_in_gap = hole <= probe
                                 ? (home > hole && home <= probe)
                                 : (home > hole || home <= probe);
    if (!home_in_gap) {
      table_[hole] = v;
      hole = probe;
    }
  }
  table_[hole] = 0;
}

void LruCache::RemoveSlot(uint32_t slot) {
  const size_t cell = FindCell(slots_[slot].block_id);
  used_bytes_ -= slots_[slot].bytes;
  Unlink(slot);
  EraseCell(cell);
  free_slots_.push_back(slot);
  --entry_count_;
}

void LruCache::EvictUntilFits(uint64_t incoming_bytes) {
  // Warm blocks are older than every stored one, so they go first.
  while (used_bytes_ + incoming_bytes > capacity_bytes_) {
    if (warm_live_ > 0) {
      EvictOldestWarm();
    } else if (tail_ != kNil) {
      RemoveSlot(tail_);
    } else {
      break;
    }
    ++evictions_;
  }
}

void LruCache::Rehash(size_t cells) {
  std::vector<uint32_t> fresh(cells, 0);
  const size_t mask = cells - 1;
  for (const uint32_t v : table_) {
    if (v == 0) continue;
    size_t at = Mix(slots_[v - 1].block_id) & mask;
    while (fresh[at] != 0) at = (at + 1) & mask;
    fresh[at] = v;
  }
  table_.swap(fresh);
}

void LruCache::AddSlot(uint64_t block_id, uint64_t bytes) {
  // Max load factor 1/2: cells are 4 bytes, so doubling early buys short
  // probe chains for almost nothing.
  const size_t stored = slots_.size() - free_slots_.size();
  if ((stored + 1) * 2 > table_.size()) {
    Rehash(table_.empty() ? kInitialTableCells : table_.size() * 2);
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].block_id = block_id;
  slots_[slot].bytes = bytes;
  LinkFront(slot);
  const size_t mask = table_.size() - 1;
  size_t at = Mix(block_id) & mask;
  while (table_[at] != 0) at = (at + 1) & mask;
  table_[at] = slot + 1;
  used_bytes_ += bytes;
  ++entry_count_;
}

bool LruCache::Owned(uint64_t block_id) const {
  return block_id < warm_.limit &&
         HomeServer(block_id, warm_.servers) == warm_.server;
}

bool LruCache::IsWarm(uint64_t block_id) const {
  return warm_live_ > 0 && block_id >= warm_cursor_ && Owned(block_id) &&
         !IsDetached(block_id);
}

bool LruCache::IsDetached(uint64_t block_id) const {
  if (detached_.empty()) return false;
  const size_t mask = detached_.size() - 1;
  for (size_t at = Mix(block_id) & mask; detached_[at] != kNoId;
       at = (at + 1) & mask) {
    if (detached_[at] == block_id) return true;
  }
  return false;
}

void LruCache::ReleaseWarm() {
  --warm_live_;
  --entry_count_;
  used_bytes_ -= warm_.block_bytes;
  if (warm_live_ == 0) {
    // The prefix is spent: no id can be warm again, so drop the set (a
    // later Prewarm of the then-empty cache starts from an empty set).
    std::vector<uint64_t>().swap(detached_);
    detached_count_ = 0;
  }
}

void LruCache::PlaceDetached(uint64_t block_id) {
  const size_t mask = detached_.size() - 1;
  size_t at = Mix(block_id) & mask;
  while (detached_[at] != kNoId) at = (at + 1) & mask;
  detached_[at] = block_id;
}

void LruCache::Detach(uint64_t block_id) {
  ReleaseWarm();
  if (warm_live_ == 0) return;
  // Same load factor and growth as the slot table.
  if ((detached_count_ + 1) * 2 > detached_.size()) {
    std::vector<uint64_t> old(
        detached_.empty() ? kInitialTableCells : detached_.size() * 2, kNoId);
    old.swap(detached_);
    for (const uint64_t id : old) {
      if (id != kNoId) PlaceDetached(id);
    }
  }
  PlaceDetached(block_id);
  ++detached_count_;
}

void LruCache::EvictOldestWarm() {
  while (!Owned(warm_cursor_) || IsDetached(warm_cursor_)) ++warm_cursor_;
  ++warm_cursor_;
  ReleaseWarm();
}

void LruCache::Prewarm(const WarmPrefix& prefix) {
  if (entry_count_ > 0) {
    for (uint64_t id = 0; id < prefix.limit; ++id) {
      if (HomeServer(id, prefix.servers) == prefix.server) {
        Insert(id, prefix.block_bytes);
      }
    }
    return;
  }
  if (prefix.block_bytes > capacity_bytes_) return;  // Insert admits none
  uint64_t live = prefix.owned;
  if (prefix.block_bytes > 0) {
    live = std::min(live, capacity_bytes_ / prefix.block_bytes);
  }
  // The Insert loop would evict the lowest ids to make room for the rest.
  const uint64_t skipped = prefix.owned - live;
  evictions_ += skipped;
  warm_ = prefix;
  warm_cursor_ = 0;
  for (uint64_t seen = 0; seen < skipped; ++warm_cursor_) {
    if (Owned(warm_cursor_)) ++seen;
  }
  warm_live_ = live;
  entry_count_ += live;
  used_bytes_ += live * prefix.block_bytes;
}

bool LruCache::Touch(uint64_t block_id) {
  const size_t cell = FindCell(block_id);
  if (cell == kNpos) {
    if (!IsWarm(block_id)) {
      ++misses_;
      return false;
    }
    // The hit promotes the block to MRU, out of the warm prefix.
    ++hits_;
    Detach(block_id);
    AddSlot(block_id, warm_.block_bytes);
    return true;
  }
  ++hits_;
  const uint32_t slot = table_[cell] - 1;
  if (head_ != slot) {
    Unlink(slot);
    LinkFront(slot);
  }
  return true;
}

bool LruCache::Insert(uint64_t block_id, uint64_t bytes) {
  if (bytes > capacity_bytes_) return false;
  const size_t cell = FindCell(block_id);
  if (cell != kNpos) {
    const uint32_t slot = table_[cell] - 1;
    used_bytes_ -= slots_[slot].bytes;
    slots_[slot].bytes = bytes;
    used_bytes_ += bytes;
    if (head_ != slot) {
      Unlink(slot);
      LinkFront(slot);
    }
    EvictUntilFits(0);
    return true;
  }
  if (IsWarm(block_id)) {
    // A refresh: the block moves to MRU at its new size.
    Detach(block_id);
    AddSlot(block_id, bytes);
    EvictUntilFits(0);
    return true;
  }
  EvictUntilFits(bytes);
  AddSlot(block_id, bytes);
  return true;
}

bool LruCache::Erase(uint64_t block_id) {
  const size_t cell = FindCell(block_id);
  if (cell != kNpos) {
    RemoveSlot(table_[cell] - 1);
    return true;
  }
  if (!IsWarm(block_id)) return false;
  Detach(block_id);
  return true;
}

bool LruCache::Contains(uint64_t block_id) const {
  return FindCell(block_id) != kNpos || IsWarm(block_id);
}

double LruCache::HitRate() const {
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

uint64_t LruCache::memory_bytes() const {
  return table_.capacity() * sizeof(uint32_t) +
         slots_.capacity() * sizeof(Slot) +
         free_slots_.capacity() * sizeof(uint32_t) +
         detached_.capacity() * sizeof(uint64_t);
}

}  // namespace hyperprof::storage
