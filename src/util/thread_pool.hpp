// Fixed-size worker pool for parallel iteration sweeps.
//
// The benches average hundreds of independent optimization iterations; the
// pool runs them across hardware threads. Work items must be independent —
// give each its own Rng stream via Rng::fork.
//
// Two parallel primitives:
//   * parallel_for       — one queued task per index; convenient for coarse
//                          independent iterations (bench sweeps).
//   * parallel_for_chunks — [0, n) split into fixed chunks claimed from a
//                          shared cursor by at most `max_workers` workers;
//                          one queued task per *worker*, so the per-index
//                          overhead is a relaxed fetch_add instead of a
//                          heap-allocated task. Built for the placement
//                          row-fill hot path (DESIGN.md §13): each worker
//                          reuses its own thread_local scratch (NUMA-
//                          friendly first-touch), and chunk claims beyond a
//                          worker's static share are counted as steals so
//                          load imbalance is observable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dust::util {

class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n), blocking until all complete.
  /// Exceptions from work items are rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Run fn(begin, end) over [0, n) in chunks of `chunk` indices (>= 1),
  /// using at most `max_workers` pool workers (0 = all). Workers claim
  /// chunks from a shared atomic cursor — no allocation per chunk, one
  /// queued task per participating worker. With max_workers == 1 (or a
  /// single-chunk sweep) the chunks run inline on the calling thread in
  /// ascending order, which is exactly the serial loop.
  /// Exceptions from chunks are rethrown (the first one encountered).
  void parallel_for_chunks(std::size_t n, std::size_t chunk,
                           std::size_t max_workers,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Cumulative chunk executions / chunk claims that crossed workers (a
  /// chunk whose static block owner is another worker), relaxed counters.
  [[nodiscard]] std::uint64_t chunk_tasks() const noexcept {
    return chunk_tasks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t chunk_steals() const noexcept {
    return chunk_steals_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> chunk_tasks_{0};
  std::atomic<std::uint64_t> chunk_steals_{0};
};

/// Process-wide pool, lazily constructed on first use. The first call fixes
/// the worker count: the `threads` argument when nonzero, else the
/// DUST_THREADS environment variable, else hardware concurrency. Later
/// calls return the same pool regardless of the argument.
ThreadPool& global_pool(std::size_t threads = 0);

}  // namespace dust::util
