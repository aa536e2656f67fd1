#ifndef HYPERPROF_TESTS_COMMON_COUNTING_ALLOC_H_
#define HYPERPROF_TESTS_COMMON_COUNTING_ALLOC_H_

// A counting replacement of the global allocator for the steady-state
// allocation suites. It replaces every throwing and nothrow, scalar and
// array form of operator new and delete, so each new/delete pair stays on
// malloc/free: a form left to the runtime (std::stable_sort's temporary
// buffer takes the nothrow new) would hand AddressSanitizer a block its
// own allocator made and the replaced delete then frees with free(), an
// alloc-dealloc mismatch.
//
// Include it from exactly one source file of a test binary, and give that
// suite its own executable so the override can't leak into other suites.
//
// Debug aid: with HYPERPROF_TRAP_ALLOC set, CountAllocations prints a
// backtrace of every allocation inside its window (resolve the offsets
// with `addr2line -f -C -e <binary>`).

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace counting_alloc_detail {
inline std::atomic<uint64_t> allocations{0};
inline std::atomic<bool> trap{false};

inline void* Allocate(std::size_t size) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (trap.load(std::memory_order_relaxed)) {
    // Disarmed while printing: backtrace itself may allocate.
    trap.store(false, std::memory_order_relaxed);
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, STDERR_FILENO);
    trap.store(true, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
}  // namespace counting_alloc_detail

void* operator new(std::size_t size) {
  if (void* ptr = counting_alloc_detail::Allocate(size)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counting_alloc_detail::Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counting_alloc_detail::Allocate(size);
}
// GCC pairs operator new with operator delete by name and flags the free()
// below once a delete is inlined; every new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
#pragma GCC diagnostic pop

/** Heap allocations made so far through the replaced operator new. */
inline uint64_t AllocationCount() {
  return counting_alloc_detail::allocations.load(std::memory_order_relaxed);
}

/** Allocations made while `fn` runs, with the trap armed if requested. */
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  static const bool trap = std::getenv("HYPERPROF_TRAP_ALLOC") != nullptr;
  const uint64_t before = AllocationCount();
  counting_alloc_detail::trap.store(trap);
  fn();
  counting_alloc_detail::trap.store(false);
  return AllocationCount() - before;
}

#endif  // HYPERPROF_TESTS_COMMON_COUNTING_ALLOC_H_
