#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace dust::obs {
namespace {

struct RegistryTest : ::testing::Test {
  MetricRegistry registry;
  void SetUp() override { set_enabled(true); }
  void TearDown() override { set_enabled(true); }
};

TEST_F(RegistryTest, CounterIncrements) {
  Counter& c = registry.counter("test_counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST_F(RegistryTest, GaugeSetAndAdd) {
  Gauge& g = registry.gauge("test_gauge");
  g.set(10.0);
  g.add(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST_F(RegistryTest, RegistrationIsIdempotent) {
  Counter& a = registry.counter("same_name");
  Counter& b = registry.counter("same_name");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("same_hist");
  Histogram& h2 = registry.histogram("same_hist");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(registry.counter_count(), 1u);
  EXPECT_EQ(registry.histogram_count(), 1u);
}

TEST_F(RegistryTest, HistogramTracksCountSumMinMax) {
  Histogram& h = registry.histogram("h");
  h.observe(1.0);
  h.observe(2.0);
  h.observe(7.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 10.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
  EXPECT_NEAR(snap.mean(), 10.0 / 3.0, 1e-12);
}

TEST_F(RegistryTest, QuantilesAreWithinBucketResolution) {
  Histogram& h = registry.histogram("latency");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot snap = h.snapshot();
  // Power-of-two buckets: a quantile estimate can be off by up to the bucket
  // width, i.e. a factor of two, but never outside [min, max].
  const double p50 = snap.quantile(0.5);
  const double p99 = snap.quantile(0.99);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 500.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_LE(p50, p99);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
}

TEST_F(RegistryTest, HistogramHandlesNonPositiveValues) {
  Histogram& h = registry.histogram("weird");
  h.observe(0.0);
  h.observe(-5.0);
  h.observe(std::nan(""));
  EXPECT_EQ(h.snapshot().count, 3u);  // bucketed into the underflow bucket
}

TEST_F(RegistryTest, DisabledUpdatesAreNoOps) {
  Counter& c = registry.counter("gated");
  Histogram& h = registry.histogram("gated_h");
  set_enabled(false);
  c.inc(100);
  h.observe(3.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(RegistryTest, ResetZeroesButKeepsRegistrations) {
  Counter& c = registry.counter("r");
  c.inc(5);
  registry.histogram("rh").observe(1.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed — cached handles stay valid
  EXPECT_EQ(registry.counter_count(), 1u);
  EXPECT_EQ(registry.histogram_count(), 1u);
  EXPECT_EQ(&registry.counter("r"), &c);
}

TEST_F(RegistryTest, SnapshotSortedAndQueryable) {
  registry.counter("zeta").inc(1);
  registry.counter("alpha").inc(2);
  registry.gauge("mid").set(3.0);
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_NE(snap.find_counter("zeta"), nullptr);
  EXPECT_EQ(snap.find_counter("zeta")->value, 1u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  ASSERT_NE(snap.find_gauge("mid"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find_gauge("mid")->value, 3.0);
}

// Satellite: concurrent updates from ThreadPool workers must not lose counts.
TEST_F(RegistryTest, ConcurrentUpdatesFromThreadPool) {
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIncsPerTask = 1000;
  Counter& c = registry.counter("concurrent_counter");
  Histogram& h = registry.histogram("concurrent_hist");
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    for (std::size_t i = 0; i < kIncsPerTask; ++i) {
      c.inc();
      h.observe(static_cast<double>(task + 1));
    }
    // Registration from workers must also be safe.
    registry.counter("from_worker_" + std::to_string(task % 4)).inc();
  });
  EXPECT_EQ(c.value(), kTasks * kIncsPerTask);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kTasks * kIncsPerTask);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kTasks));
  std::uint64_t worker_total = 0;
  for (std::size_t w = 0; w < 4; ++w)
    worker_total += registry.counter("from_worker_" + std::to_string(w)).value();
  EXPECT_EQ(worker_total, kTasks);
}

TEST_F(RegistryTest, ScopedTimerObservesWallTime) {
  Histogram& h = registry.histogram("timed");
  { ScopedTimer timer(h); }
  EXPECT_EQ(h.snapshot().count, 1u);
  EXPECT_GE(h.snapshot().min, 0.0);
}

TEST_F(RegistryTest, SpanRecordsWallAndVirtualTime) {
  std::int64_t fake_now = 100;
  {
    Span span(registry, "cycle", [&fake_now] { return fake_now; });
    fake_now = 140;
  }
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "cycle");
  EXPECT_EQ(snap.spans[0].sim_start_ms, 100);
  EXPECT_EQ(snap.spans[0].sim_duration_ms, 40);
  ASSERT_NE(snap.find_histogram("cycle_sim_ms"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find_histogram("cycle_sim_ms")->max, 40.0);
  ASSERT_NE(snap.find_histogram("cycle_wall_ms"), nullptr);
}

TEST_F(RegistryTest, SpanWithoutClockSkipsSimTime) {
  { Span span(registry, "wall_only"); }
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].sim_start_ms, -1);
  EXPECT_EQ(snap.find_histogram("wall_only_sim_ms"), nullptr);
}

TEST_F(RegistryTest, DisabledSpanRecordsNothing) {
  set_enabled(false);
  { Span span(registry, "ghost"); }
  set_enabled(true);
  EXPECT_TRUE(registry.snapshot().spans.empty());
}

TEST_F(RegistryTest, SpanRingKeepsMostRecent) {
  for (std::size_t i = 0; i < MetricRegistry::kMaxSpans + 10; ++i)
    registry.record_span(SpanRecord{"s" + std::to_string(i), 0.0, -1, -1});
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.spans.size(), MetricRegistry::kMaxSpans);
  EXPECT_EQ(snap.spans.front().name, "s10");  // oldest surviving
  EXPECT_EQ(snap.spans.back().name,
            "s" + std::to_string(MetricRegistry::kMaxSpans + 9));
}

TEST_F(RegistryTest, PrometheusExportFormat) {
  registry.counter("dust_x_total").inc(3);
  registry.histogram("dust_y_ms").observe(1.5);
  std::ostringstream os;
  write_prometheus(registry.snapshot(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE dust_x_total counter"), std::string::npos);
  EXPECT_NE(text.find("dust_x_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dust_y_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("dust_y_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dust_y_ms_count 1"), std::string::npos);
}

// Bucket i covers (2^(i-1+kMinExp), 2^(i+kMinExp)]: an exact power of two
// belongs to the bucket it bounds, the next double above it to the next one.
TEST_F(RegistryTest, ExactPowersOfTwoLandInTheBucketTheyBound) {
  for (int index = 0; index < Histogram::kBuckets; ++index) {
    const double bound = std::ldexp(1.0, index + Histogram::kMinExp);
    EXPECT_EQ(Histogram::bucket_upper(index), bound);
    EXPECT_EQ(Histogram::bucket_index(bound), index) << "2^" << index;
    EXPECT_EQ(Histogram::bucket_index(std::nextafter(bound, 0.0)), index)
        << "just below 2^" << index;
    if (index + 1 < Histogram::kBuckets)
      EXPECT_EQ(Histogram::bucket_index(
                    bound * (1.0 + std::numeric_limits<double>::epsilon())),
                index + 1)
          << "2^" << index << "(1+eps)";
  }
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExp - 5)),
            0);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::denorm_min()),
            0);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, 60)),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
}

// A 1 ms sim delivery is exported under le="1", not first under le="2".
TEST_F(RegistryTest, PrometheusLeLineCountsItsExactBound) {
  Histogram& h = registry.histogram("dust_z_ms");
  h.observe(1.0);
  h.observe(1.0);
  h.observe(2.0);
  h.observe(2.5);
  std::ostringstream os;
  write_prometheus(registry.snapshot(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("dust_z_ms_bucket{le=\"0.5\"} 0\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dust_z_ms_bucket{le=\"1\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dust_z_ms_bucket{le=\"2\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dust_z_ms_bucket{le=\"4\"} 4\n"), std::string::npos)
      << text;
}

TEST_F(RegistryTest, JsonlExportContainsMetrics) {
  registry.counter("jc").inc(7);
  registry.histogram("jh").observe(2.0);
  std::ostringstream os;
  write_jsonl(registry.snapshot(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"name\":\"jc\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":7"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"jh\""), std::string::npos);
}

TEST_F(RegistryTest, TableExportListsEveryMetric) {
  registry.counter("tc").inc(1);
  registry.histogram("th").observe(4.0);
  std::ostringstream os;
  to_table(registry.snapshot()).print(os);
  const std::string rendered = os.str();
  EXPECT_NE(rendered.find("tc"), std::string::npos);
  EXPECT_NE(rendered.find("th"), std::string::npos);
}

TEST_F(RegistryTest, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

}  // namespace
}  // namespace dust::obs
