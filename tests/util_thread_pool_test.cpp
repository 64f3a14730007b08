#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dust::util {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroItems) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPool, ParallelForAccumulates) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(1000, [&sum](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, ParallelForRethrowsWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("bad");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForContinuesAfterException) {
  // All items complete even when one throws (futures are all awaited).
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(20);
  try {
    pool.parallel_for(20, [&hits](std::size_t i) {
      ++hits[i];
      if (i == 0) throw std::runtime_error("first");
    });
  } catch (const std::runtime_error&) {
  }
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(8);
  std::vector<std::future<int>> futures;
  futures.reserve(500);
  for (int i = 0; i < 500; ++i)
    futures.push_back(pool.submit([i] { return i * 2; }));
  for (int i = 0; i < 500; ++i) EXPECT_EQ(futures[i].get(), i * 2);
}

TEST(ThreadPool, ParallelForChunksCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(103);  // deliberately not chunk-aligned
  pool.parallel_for_chunks(103, 8, 0, [&hits](std::size_t begin,
                                              std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForChunksSingleWorkerIsAscendingSerial) {
  // max_workers == 1 must degrade to the serial loop: inline on the calling
  // thread, chunks in ascending order (the determinism baseline the parallel
  // row fill is compared against).
  ThreadPool pool(4);
  std::vector<std::size_t> order;
  pool.parallel_for_chunks(40, 16, 1, [&order](std::size_t begin,
                                               std::size_t end) {
    order.push_back(begin);
    order.push_back(end);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 16, 16, 32, 32, 40}));
}

TEST(ThreadPool, ParallelForChunksCountsChunksAndReportsToObserver) {
  ThreadPool pool(2);
  const std::uint64_t tasks_before = pool.chunk_tasks();
  pool.parallel_for_chunks(64, 8, 0, [](std::size_t, std::size_t) {});
  EXPECT_EQ(pool.chunk_tasks() - tasks_before, 8u);
}

TEST(ThreadPool, ParallelForChunksRethrowsChunkException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunks(
                   32, 4, 0,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 12) throw std::runtime_error("chunk");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace dust::util
