#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace dust::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    futures.push_back(submit([&fn, i] { fn(i); }));
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t chunk, std::size_t max_workers,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::size_t workers = std::min(size(), chunks);
  if (max_workers != 0) workers = std::min(workers, max_workers);
  workers = std::max<std::size_t>(workers, 1);

  // Shared claiming cursor: each participating worker loops, grabbing the
  // next unclaimed chunk. A chunk whose static block owner (an even split
  // of the chunk range across workers) is a different worker counts as a
  // steal — the dynamic schedule silently absorbing imbalance is exactly
  // what chunk_steals() makes visible.
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&, this](std::size_t worker_index) {
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      chunk_tasks_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t owner = c * workers / chunks;
      if (owner != worker_index)
        chunk_steals_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t begin = c * chunk;
      fn(begin, std::min(begin + chunk, n));
    }
  };

  if (workers == 1) {
    // Inline serial path: ascending chunk order on the calling thread.
    for (std::size_t c = 0; c < chunks; ++c) {
      chunk_tasks_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t begin = c * chunk;
      fn(begin, std::min(begin + chunk, n));
    }
    return;
  }

  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    futures.push_back(submit([&drain, w] { drain(w); }));
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_pool(std::size_t threads) {
  static ThreadPool pool([threads] {
    if (threads != 0) return threads;
    if (const char* env = std::getenv("DUST_THREADS")) {
      const unsigned long parsed = std::strtoul(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{0};  // ctor resolves to hardware concurrency
  }());
  return pool;
}

}  // namespace dust::util
