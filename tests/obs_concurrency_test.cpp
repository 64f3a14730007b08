// Concurrency stress for the lock-free obs primitives, built to run under
// ThreadSanitizer (the `tsan` ctest label / CMake preset): writer threads
// hammer MetricRegistry counters and histograms while a scraper thread
// snapshots, and the flight recorder absorbs concurrent record() calls
// racing a snapshot(). Assertions check exact conservation totals — the
// relaxed-atomic hot paths must lose nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dust::obs {
namespace {

constexpr int kWriters = 4;
constexpr int kOpsPerWriter = 20000;

TEST(ObsConcurrency, RegistryUpdatesSurviveConcurrentScrapes) {
  set_enabled(true);
  MetricRegistry registry;
  // Pre-register so writers exercise the lock-free update path, not the
  // mutex-guarded registration path (the documented hot-loop contract).
  Counter& shared_counter = registry.counter("stress_shared_total");
  Histogram& shared_hist = registry.histogram("stress_shared_ms");
  for (int w = 0; w < kWriters; ++w)
    (void)registry.counter("stress_writer_" + std::to_string(w) + "_total");

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const RegistrySnapshot scrape = registry.snapshot();
      const CounterSnapshot* total =
          scrape.find_counter("stress_shared_total");
      ASSERT_NE(total, nullptr);
      ASSERT_GE(total->value, last);  // counters are monotonic
      last = total->value;
      const NamedHistogramSnapshot* hist =
          scrape.find_histogram("stress_shared_ms");
      ASSERT_NE(hist, nullptr);
      ASSERT_LE(hist->count,
                static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, &shared_counter, &shared_hist, w] {
      Counter& own =
          registry.counter("stress_writer_" + std::to_string(w) + "_total");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        shared_counter.inc();
        own.inc();
        shared_hist.observe(static_cast<double>(i % 128));
        registry.gauge("stress_gauge").set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  // Conservation: nothing lost despite the concurrent scrapes.
  const RegistrySnapshot scrape = registry.snapshot();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWriters) * kOpsPerWriter;
  EXPECT_EQ(scrape.find_counter("stress_shared_total")->value, expected);
  EXPECT_EQ(scrape.find_histogram("stress_shared_ms")->count, expected);
  EXPECT_DOUBLE_EQ(scrape.find_histogram("stress_shared_ms")->min, 0.0);
  EXPECT_DOUBLE_EQ(scrape.find_histogram("stress_shared_ms")->max, 127.0);
  for (int w = 0; w < kWriters; ++w)
    EXPECT_EQ(registry.counter("stress_writer_" + std::to_string(w) +
                               "_total")
                  .value(),
              static_cast<std::uint64_t>(kOpsPerWriter));
}

TEST(ObsConcurrency, FlightRecorderAbsorbsConcurrentWritersAndSnapshots) {
  set_enabled(true);
  FlightRecorder recorder(1024);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<FlightEvent> events = recorder.snapshot();
      // Snapshot skips in-flight slots but never returns garbage: events
      // come back seq-ordered with intact payloads.
      for (std::size_t i = 1; i < events.size(); ++i)
        ASSERT_LT(events[i - 1].seq, events[i].seq);
      for (const FlightEvent& event : events) {
        ASSERT_EQ(event.kind, FlightEventKind::kCustom);
        ASSERT_EQ(event.sim_ms, 7);
        ASSERT_STREQ(event.detail, "payload");
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder] {
      for (int i = 0; i < kOpsPerWriter; ++i)
        recorder.record(FlightEventKind::kCustom, 7, "payload");
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  const std::vector<FlightEvent> events = recorder.snapshot();
  EXPECT_EQ(events.size(), recorder.capacity());
  for (const FlightEvent& event : events)
    EXPECT_STREQ(event.detail, "payload");
}

// The owner-cell write path: the first thread to write a counter or a
// histogram owns its owner cell and updates it with a plain load+store;
// every other thread adds into the shared cell with atomic RMW. Here a
// util::ThreadPool worker takes ownership, then keeps writing while three
// other threads hammer the same two metrics. Every value is an integer well
// below 2^53, so the sums are exact in any order.
TEST(ObsConcurrency, OwnerCellAndSharedCellAddUpExactly) {
  set_enabled(true);
  MetricRegistry registry;
  Counter& counter = registry.counter("owner_total");
  Histogram& hist = registry.histogram("owner_ms");
  util::ThreadPool pool(1);
  pool.submit([&] {
        counter.inc();
        hist.observe(64.0);
      }).get();

  std::atomic<bool> go{false};
  const auto hammer = [&](int writer) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kOpsPerWriter; ++i) {
      counter.inc(static_cast<std::uint64_t>(writer + 1));
      hist.observe(static_cast<double>(i % 128));
    }
    // One extreme per non-owner writer, so min and max come from the
    // shared cell while the owner cell holds the bulk.
    if (writer == 1) hist.observe(-5.0);
    if (writer == 2) hist.observe(1e6);
  };
  std::future<void> owner = pool.submit([&] { hammer(0); });
  std::vector<std::thread> others;
  for (int w = 1; w < kWriters; ++w) others.emplace_back(hammer, w);
  go.store(true, std::memory_order_release);
  owner.get();
  for (std::thread& t : others) t.join();

  std::uint64_t expected_total = 1;
  for (int w = 0; w < kWriters; ++w)
    expected_total += static_cast<std::uint64_t>(w + 1) * kOpsPerWriter;
  EXPECT_EQ(counter.value(), expected_total);

  double per_writer_sum = 0.0;
  for (int i = 0; i < kOpsPerWriter; ++i) per_writer_sum += i % 128;
  const std::uint64_t observations =
      1 + static_cast<std::uint64_t>(kWriters) * kOpsPerWriter + 2;
  EXPECT_EQ(hist.count(), observations);
  EXPECT_EQ(hist.sum(), 64.0 + kWriters * per_writer_sum - 5.0 + 1e6);
  EXPECT_EQ(hist.observed_min(), -5.0);
  EXPECT_EQ(hist.observed_max(), 1e6);
  const HistogramSnapshot snap = hist.snapshot();
  std::uint64_t bucketed = 0;
  for (const BucketSnapshot& bucket : snap.buckets) bucketed += bucket.count;
  EXPECT_EQ(bucketed, observations);
  EXPECT_EQ(snap.count, observations);
}

}  // namespace
}  // namespace dust::obs
