#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hyperprof {
namespace {

TEST(ThreadPoolTest, SubmitRunsJobAndFutureResolves) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto future = pool.Submit([&] { value = 42; });
  future.get();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, ZeroThreadRequestStillGetsOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto future = pool.Submit([] {});
  future.get();
}

TEST(ThreadPoolTest, ManyJobsAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&] { ++counter; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter, 200);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing job and keeps serving.
  auto ok = pool.Submit([] {});
  ok.get();
}

TEST(ThreadPoolTest, ReuseAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 5; ++batch) {
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 30; ++i) {
      futures.push_back(pool.Submit([&] { ++counter; }));
    }
    for (auto& future : futures) future.get();
    EXPECT_EQ(counter, 30) << "batch " << batch;
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterAllJobsFinish) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(20,
                                [&](size_t i) {
                                  if (i == 3) {
                                    throw std::runtime_error("sweep failed");
                                  }
                                  ++completed;
                                }),
               std::runtime_error);
  EXPECT_EQ(completed, 19);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { ++counter; });
    }
  }  // destructor must finish the queue before joining
  EXPECT_EQ(counter, 50);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  // Regression: a job running on the pool fans out its own sub-jobs with
  // ParallelFor. With a single worker the pool is at capacity, so before
  // help-running the outer job parked forever while its sub-jobs starved
  // in the queue.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  auto outer = pool.Submit([&] {
    pool.ParallelFor(8, [&](size_t) { ++inner; });
  });
  outer.get();
  EXPECT_EQ(inner, 8);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForCompletes) {
  // Two levels of nesting on a pool smaller than either fan-out: every
  // waiter must keep draining the queue, not just the outermost one.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { ++leaves; });
  });
  EXPECT_EQ(leaves, 16);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(1);
  auto outer = pool.Submit([&] {
    pool.ParallelFor(4, [&](size_t i) {
      if (i == 2) throw std::runtime_error("inner boom");
    });
  });
  EXPECT_THROW(outer.get(), std::runtime_error);
  // The pool keeps serving afterwards.
  pool.Submit([] {}).get();
}

TEST(ThreadPoolTest, ResolveParallelismMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveParallelism(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveParallelism(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveParallelism(7), 7u);
}

TEST(ForEachIndexTest, NullPoolRunsInlineInIndexOrder) {
  std::vector<size_t> order;
  ForEachIndex(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ForEachIndexTest, PoolCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(37);
  ForEachIndex(&pool, hits.size(), [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForEachRangeTest, NullPoolRunsOneRange) {
  std::vector<std::pair<size_t, size_t>> ranges;
  ForEachRange(nullptr, 10, [&](size_t begin, size_t end) {
    ranges.emplace_back(begin, end);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 10}));
  ForEachRange(nullptr, 0, [&](size_t, size_t) { ADD_FAILURE(); });
}

TEST(ForEachRangeTest, PoolRangesTileTheIndexSpace) {
  ThreadPool pool(3);
  for (size_t n : {0, 1, 2, 11, 12, 13, 1000}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> empty_ranges{0};
    ForEachRange(&pool, n, [&](size_t begin, size_t end) {
      if (begin >= end) ++empty_ranges;
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    EXPECT_EQ(empty_ranges.load(), 0) << n;
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << n;
  }
}

}  // namespace
}  // namespace hyperprof
