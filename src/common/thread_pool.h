#ifndef HYPERPROF_COMMON_THREAD_POOL_H_
#define HYPERPROF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/inline_function.h"

namespace hyperprof {

/**
 * Reusable fixed-size worker pool.
 *
 * The fleet harness and the sweep runners push coarse-grained jobs (an
 * entire platform simulation, one sweep point) through this pool, so the
 * design favors simplicity over lock-free throughput: one mutex-guarded
 * queue, workers parked on a condition variable. Exceptions thrown by a
 * Submit job are captured in the returned future and rethrown at
 * Get/Wait, never swallowed. A pool outlives any number of Submit
 * batches; the destructor drains remaining work before joining.
 *
 * The queue element is an InlineFunction rather than std::function so
 * that the per-task closures ParallelFor enqueues (a control-block
 * pointer plus an index) never touch the heap: a ParallelFor over n
 * indices performs zero allocations beyond what fn itself does.
 */
class ThreadPool {
 public:
  /** Spawns `num_threads` workers (minimum 1). */
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /** Finishes all queued work, then joins the workers. */
  ~ThreadPool();

  /** Number of worker threads. */
  size_t size() const { return workers_.size(); }

  /**
   * Enqueues `job`; the future resolves when it finishes and carries any
   * exception it threw.
   */
  std::future<void> Submit(std::function<void()> job);

  /**
   * Runs fn(0..n-1) across the pool and blocks until all complete.
   * Rethrows the lowest-index exception after every job finished.
   *
   * Safe to call from inside a pool worker: while any job is unfinished
   * the caller help-runs queued tasks instead of parking, so a nested
   * ParallelFor (e.g. a platform job fanning out shard epochs) cannot
   * deadlock a pool that is at capacity.
   */
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /**
   * Worker count for a `parallelism` knob: 0 means "all hardware
   * threads" (minimum 1), anything else is taken literally.
   */
  static size_t ResolveParallelism(size_t parallelism);

 private:
  // 48 bytes comfortably holds a packaged_task (one shared-state
  // pointer) and the ParallelFor closures (control pointer + index).
  using Task = InlineFunction<void(), 48>;

  /** Bookkeeping for one ParallelFor call, on the caller's stack. */
  struct ForControl;

  void WorkerLoop();
  /** Pops and runs one queued task if any; returns false when idle. */
  bool TryRunOneQueued();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/**
 * fn(0..n-1) across `pool`, or inline in index order when `pool` is null.
 * For set-up work whose results must not depend on whether it ran
 * parallel: each index has to write only state no other index touches.
 */
void ForEachIndex(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& fn);

/**
 * fn(begin, end) over contiguous ranges covering [0, n): a few ranges per
 * worker of `pool`, or the single range [0, n) inline when `pool` is null.
 */
void ForEachRange(ThreadPool* pool, size_t n,
                  const std::function<void(size_t, size_t)>& fn);

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_THREAD_POOL_H_
