// The fleet snapshot codec and aggregator (DESIGN.md §15): delta encoding
// against acked baselines, the shed-reply ack protocol, the hot-tick clean
// path, fleet merge/reject semantics, node-labelled queries, cross-process
// trace stitching, and decoder robustness (every truncation rejected, bit
// flips never crash — the payload has no CRC of its own; the wire frame
// carrying it does).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/aggregator.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace dust::obs {
namespace {

/// Encode + decode, asserting both directions succeed.
SnapshotDelta roundtrip(SnapshotEncoder& encoder, std::int64_t now_ms,
                        std::vector<std::uint8_t>& buffer) {
  EXPECT_TRUE(encoder.encode(now_ms, buffer));
  SnapshotDelta delta;
  EXPECT_TRUE(decode_snapshot(buffer.data(), buffer.size(), delta));
  return delta;
}

TEST(SnapshotCodec, FullSnapshotRoundTripsEveryMetricKind) {
  MetricRegistry registry;
  registry.counter("ticks_total").inc(7);
  registry.gauge("depth").set(3.25);
  Histogram& hist = registry.histogram("latency_ms");
  hist.observe(1.0);
  hist.observe(64.0);
  record_instant(registry, "work", "node-x", {}, 500);

  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;
  const SnapshotDelta delta = roundtrip(encoder, 1234, buffer);

  EXPECT_EQ(delta.seq, 1u);
  EXPECT_EQ(delta.base_seq, 0u);
  EXPECT_TRUE(delta.full);
  EXPECT_EQ(delta.source_now_ms, 1234);
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].delta, 7u);
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(delta.gauges[0].value, 3.25);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count_delta, 2u);
  EXPECT_EQ(delta.histograms[0].sum_delta, 65.0);
  ASSERT_EQ(delta.spans.size(), 1u);
  EXPECT_EQ(delta.spans[0].name, "work");
  EXPECT_EQ(delta.spans[0].track, "node-x");
  // Every emitted metric carries its definition in a full snapshot.
  EXPECT_EQ(delta.defs.size(), 3u);
}

TEST(SnapshotCodec, CleanRegistryEncodesNothingAndLeavesBufferAlone) {
  MetricRegistry registry;
  registry.counter("ticks_total");  // registered but never touched
  registry.gauge("depth");
  SnapshotEncoder encoder(registry);

  std::vector<std::uint8_t> buffer = {0xAA, 0xBB};
  EXPECT_FALSE(encoder.encode(0, buffer));
  // The hot-tick contract: no frame, no buffer churn, no seq burn.
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(encoder.last_seq(), 0u);

  // After a change is encoded and acked, the registry reads clean again.
  registry.counter("ticks_total").inc();
  EXPECT_TRUE(encoder.encode(0, buffer));
  encoder.ack(encoder.last_seq());
  buffer = {0xCC};
  EXPECT_FALSE(encoder.encode(0, buffer));
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{0xCC}));
}

TEST(SnapshotCodec, OverlongNamesTruncateAtTheLengthPrefix) {
  // The wire codec throws on a string past the u16 prefix; the snapshot
  // codec truncates instead, so an over-long name never stops a node from
  // answering scrapes.
  const std::string long_name(0x10000 + 7, 'm');
  MetricRegistry registry;
  registry.counter(long_name).inc(3);
  record_instant(registry, long_name, "node-x", {}, 0);

  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;
  const SnapshotDelta delta = roundtrip(encoder, 0, buffer);
  ASSERT_EQ(delta.defs.size(), 1u);
  EXPECT_EQ(delta.defs[0].name, long_name.substr(0, 0xFFFF));
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].delta, 3u);
  ASSERT_EQ(delta.spans.size(), 1u);
  EXPECT_EQ(delta.spans[0].name, long_name.substr(0, 0xFFFF));
}

TEST(SnapshotCodec, UnackedDeltasAreCumulativeNeverDoubleApplied) {
  MetricRegistry registry;
  Counter& ticks = registry.counter("ticks_total");
  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;

  ticks.inc(5);
  const SnapshotDelta first = roundtrip(encoder, 0, buffer);
  EXPECT_EQ(first.counters[0].delta, 5u);

  // The reply carrying `first` was shed: no ack arrives. More churn, then a
  // re-encode — the delta must restate everything since the *acked*
  // baseline (zero), not since the unacked attempt.
  ticks.inc(3);
  const SnapshotDelta second = roundtrip(encoder, 0, buffer);
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(second.base_seq, 0u);
  EXPECT_TRUE(second.full);
  EXPECT_EQ(second.counters[0].delta, 8u);

  // Applying only the surviving snapshot yields the true total.
  Aggregator aggregator;
  EXPECT_EQ(aggregator.apply("n", second, 0),
            Aggregator::ApplyResult::kApplied);
  EXPECT_EQ(aggregator.counter_value("n", "ticks_total"), 8u);

  // Ack promotes the baseline: the next delta carries only new movement.
  encoder.ack(second.seq);
  ticks.inc(2);
  const SnapshotDelta third = roundtrip(encoder, 0, buffer);
  EXPECT_EQ(third.base_seq, second.seq);
  EXPECT_FALSE(third.full);
  EXPECT_EQ(third.counters[0].delta, 2u);
  EXPECT_TRUE(third.defs.empty()) << "defs were acked, ids suffice";
  EXPECT_EQ(aggregator.apply("n", third, 0),
            Aggregator::ApplyResult::kApplied);
  EXPECT_EQ(aggregator.counter_value("n", "ticks_total"), 10u);
}

TEST(SnapshotCodec, StaleAndUnknownAcksAreIgnored) {
  MetricRegistry registry;
  Counter& ticks = registry.counter("ticks_total");
  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;

  ticks.inc();
  roundtrip(encoder, 0, buffer);          // seq 1
  encoder.ack(7);                         // never sent: ignored
  encoder.ack(0);                         // zero: ignored
  ticks.inc();
  const SnapshotDelta delta = roundtrip(encoder, 0, buffer);  // seq 2
  EXPECT_TRUE(delta.full) << "no valid ack, baseline must still be zero";
  EXPECT_EQ(delta.counters[0].delta, 2u);
  encoder.ack(1);  // stale (seq_ is already 2): ignored
  ticks.inc();
  EXPECT_TRUE(roundtrip(encoder, 0, buffer).full);
}

TEST(SnapshotAggregator, BaselineMismatchRejectsAndFullRecovers) {
  MetricRegistry registry;
  Counter& ticks = registry.counter("ticks_total");
  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;
  Aggregator aggregator;

  ticks.inc(4);
  const SnapshotDelta full = roundtrip(encoder, 0, buffer);
  ASSERT_EQ(aggregator.apply("n", full, 100), Aggregator::ApplyResult::kApplied);
  encoder.ack(full.seq);

  // A delta diffed against seq 1 reaches an aggregator that (say, after a
  // restart) never applied it: reject, nothing double-counted.
  Aggregator restarted;
  ticks.inc(1);
  const SnapshotDelta delta = roundtrip(encoder, 0, buffer);
  EXPECT_EQ(delta.base_seq, full.seq);
  EXPECT_EQ(restarted.apply("n", delta, 200),
            Aggregator::ApplyResult::kRejected);
  EXPECT_EQ(restarted.counter_value("n", "ticks_total"), 0u);
  const FleetNodeStatus* status = restarted.status("n");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->snapshots_rejected, 1u);

  // Recovery: the scraper requests a full snapshot.
  encoder.reset();
  const SnapshotDelta refull = roundtrip(encoder, 0, buffer);
  EXPECT_TRUE(refull.full);
  EXPECT_EQ(restarted.apply("n", refull, 300),
            Aggregator::ApplyResult::kApplied);
  EXPECT_EQ(restarted.counter_value("n", "ticks_total"), 5u);
}

TEST(SnapshotAggregator, DeltaReferencingUnknownIdIsRejected) {
  SnapshotDelta delta;
  delta.seq = 5;
  delta.base_seq = 0;
  delta.full = true;
  delta.counters.push_back({42, 1});  // id 42 was never defined
  Aggregator aggregator;
  EXPECT_EQ(aggregator.apply("n", delta, 0),
            Aggregator::ApplyResult::kRejected);
}

TEST(SnapshotAggregator, FleetQueriesMergeAcrossNodes) {
  Aggregator aggregator;
  std::vector<std::uint8_t> buffer;
  const auto feed = [&](const std::string& node, std::uint64_t ticks,
                        double depth, double latency) {
    MetricRegistry registry;
    registry.counter("ticks_total").inc(ticks);
    registry.gauge("depth").set(depth);
    registry.histogram("latency_ms").observe(latency);
    SnapshotEncoder encoder(registry);
    const SnapshotDelta delta = roundtrip(encoder, 0, buffer);
    ASSERT_EQ(aggregator.apply(node, delta, 1000),
              Aggregator::ApplyResult::kApplied);
  };
  feed("a", 10, 2.0, 1.0);
  feed("b", 32, 5.0, 900.0);

  EXPECT_EQ(aggregator.counter_value("a", "ticks_total"), 10u);
  EXPECT_EQ(aggregator.fleet_counter_total("ticks_total"), 42u);
  EXPECT_EQ(aggregator.fleet_gauge_sum("depth"), 7.0);
  EXPECT_EQ(aggregator.fleet_gauge_max("depth"), 5.0);
  const HistogramSnapshot merged = aggregator.fleet_histogram("latency_ms");
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.sum, 901.0);
  EXPECT_GT(merged.quantile(0.99), 100.0) << "node b's tail must survive";

  EXPECT_EQ(aggregator.staleness_ms("a", 1500), 500);
  EXPECT_EQ(aggregator.staleness_ms("never-seen", 1500), -1);

  // The node label lands on every exported series.
  std::ostringstream prom;
  aggregator.write_prometheus(prom);
  EXPECT_NE(prom.str().find("ticks_total{node=\"a\"} 10"), std::string::npos);
  EXPECT_NE(prom.str().find("ticks_total{node=\"b\"} 32"), std::string::npos);
}

TEST(SnapshotAggregator, StitchesOneTraceAcrossProcesses) {
  // Two registries model two processes. The root span lives in "mgr"; the
  // child — parented on the root's context — is recorded in "worker". Only
  // after both snapshots merge does the aggregator hold the whole chain.
  MetricRegistry mgr_registry;
  MetricRegistry worker_registry;
  const TraceContext root =
      record_instant(mgr_registry, "solve", "manager", {}, 10);
  record_instant(worker_registry, "ingest", "collector", root, 20);

  Aggregator aggregator;
  std::vector<std::uint8_t> buffer;
  SnapshotEncoder mgr_encoder(mgr_registry);
  SnapshotEncoder worker_encoder(worker_registry);
  ASSERT_EQ(aggregator.apply("mgr", roundtrip(mgr_encoder, 0, buffer), 0),
            Aggregator::ApplyResult::kApplied);
  ASSERT_EQ(
      aggregator.apply("worker", roundtrip(worker_encoder, 0, buffer), 0),
      Aggregator::ApplyResult::kApplied);

  const std::vector<TraceTree> traces =
      assemble_traces(aggregator.trace_snapshot());
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].spans.size(), 2u);
  EXPECT_EQ(traces[0].trace_id, root.trace_id);
  EXPECT_EQ(traces[0].chain(), "solve>ingest");
  // Tracks carry the node prefix so Perfetto shows one lane per process.
  EXPECT_EQ(traces[0].spans[0].track, "mgr/manager");
  EXPECT_EQ(traces[0].spans[1].track, "worker/collector");
}

TEST(SnapshotAggregator, SpanDedupSurvivesFullResync) {
  MetricRegistry registry;
  record_instant(registry, "once", "t", {}, 1);
  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;
  Aggregator aggregator;
  ASSERT_EQ(aggregator.apply("n", roundtrip(encoder, 0, buffer), 0),
            Aggregator::ApplyResult::kApplied);
  EXPECT_EQ(aggregator.span_count(), 1u);
  // The ack was lost; the responder resets and re-sends everything. The
  // span stream must not duplicate.
  encoder.reset();
  ASSERT_EQ(aggregator.apply("n", roundtrip(encoder, 0, buffer), 0),
            Aggregator::ApplyResult::kApplied);
  EXPECT_EQ(aggregator.span_count(), 1u);
}

TEST(SnapshotAggregator, IngestLocalMirrorsTheRemotePath) {
  MetricRegistry registry;
  registry.counter("ticks_total").inc(3);
  Aggregator aggregator;
  aggregator.ingest_local("me", registry, 50);
  EXPECT_EQ(aggregator.counter_value("me", "ticks_total"), 3u);
  // Nothing changed: the second ingest is a no-op, not a new snapshot.
  const std::uint64_t seq = aggregator.status("me")->applied_seq;
  aggregator.ingest_local("me", registry, 60);
  EXPECT_EQ(aggregator.status("me")->applied_seq, seq);
  registry.counter("ticks_total").inc();
  aggregator.ingest_local("me", registry, 70);
  EXPECT_EQ(aggregator.counter_value("me", "ticks_total"), 4u);
  EXPECT_GT(aggregator.status("me")->applied_seq, seq);
}

TEST(SnapshotAggregator, WriteTopRendersEverySection) {
  Aggregator aggregator;
  MetricRegistry registry;
  registry.counter("ticks_total").inc(9);
  registry.gauge("depth").set(1.0);
  registry.histogram("latency_ms").observe(2.0);
  aggregator.ingest_local("node-z", registry, 100);
  std::ostringstream out;
  aggregator.write_top(out, 150);
  const std::string text = out.str();
  EXPECT_NE(text.find("node-z"), std::string::npos);
  EXPECT_NE(text.find("ticks_total"), std::string::npos);
  EXPECT_NE(text.find("depth"), std::string::npos);
  EXPECT_NE(text.find("latency_ms"), std::string::npos);
}

TEST(SnapshotFuzz, EveryTruncationIsRejected) {
  MetricRegistry registry;
  registry.counter("a_total").inc(3);
  registry.gauge("g").set(2.5);
  registry.histogram("h").observe(7.0);
  record_instant(registry, "s", "t", {}, 5);
  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(encoder.encode(0, buffer));

  SnapshotDelta delta;
  for (std::size_t len = 0; len < buffer.size(); ++len)
    EXPECT_FALSE(decode_snapshot(buffer.data(), len, delta))
        << "decoder accepted a " << len << "-byte prefix of "
        << buffer.size();
}

TEST(SnapshotFuzz, BitFlipsNeverCrashAndStructuralDamageIsRejected) {
  MetricRegistry registry;
  registry.counter("a_total").inc(3);
  registry.histogram("h").observe(7.0);
  SnapshotEncoder encoder(registry);
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(encoder.encode(0, buffer));

  // No CRC at this layer (the wire frame has one), so a value-field flip
  // may legitimately decode; the property is memory safety plus rejection
  // of structural damage. Flips in the 4-byte header (version/flags/
  // reserved) must always reject: version != 1, unknown flag bits, and
  // nonzero reserved words are all structural.
  SnapshotDelta delta;
  for (std::size_t bit = 0; bit < buffer.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupt = buffer;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const bool ok = decode_snapshot(corrupt.data(), corrupt.size(), delta);
    if (bit < 32) EXPECT_FALSE(ok) << "header bit " << bit;
  }
}

TEST(SnapshotFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(0x0B5);
  SnapshotDelta delta;
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> garbage(rng.below(2048));
    for (std::uint8_t& byte : garbage)
      byte = static_cast<std::uint8_t>(rng());
    decode_snapshot(garbage.data(), garbage.size(), delta);  // must not crash
  }
}

}  // namespace
}  // namespace dust::obs
