// Tests of the benchmark's own helpers: the percentile rule, span self time
// and failure counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Percentile, P90NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());
  ASSERT_TRUE(percentile(one_to(100), 0.9).has_value());
  EXPECT_DOUBLE_EQ(*percentile(one_to(100), 0.9), 90.0);
  EXPECT_DOUBLE_EQ(*percentile(one_to(1000), 0.9), 900.0);
}

TEST(Percentile, MedianIsNearestRankAndOrderFree) {
  EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
  std::vector<double> values = one_to(21);
  std::reverse(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(*percentile(values, 0.5), 11.0);
  EXPECT_DOUBLE_EQ(*percentile(one_to(20), 0.5), 10.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRangeQuantiles) {
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_FALSE(percentile(one_to(200), 0.0).has_value());
  EXPECT_FALSE(percentile(one_to(200), 1.5).has_value());
}

std::vector<OpSample> blocks_of(const std::vector<double>& block_ms,
                                std::size_t block_ops) {
  std::vector<OpSample> ops;
  for (const double ms : block_ms)
    for (std::size_t i = 0; i < block_ops; ++i) ops.push_back({ms, 1.0});
  return ops;
}

TEST(FastestBlocks, KeepsTheFastestShareOfWholeBlocks) {
  // Eight blocks of 4 ops; the trailing 3 ops form no block.
  std::vector<OpSample> ops =
      blocks_of({5.0, 1.0, 7.0, 2.0, 6.0, 8.0, 3.0, 4.0}, 4);
  ops.insert(ops.end(), 3, OpSample{0.5, 1.0});
  const std::vector<OpSample> pool =
      fastest_blocks(ops, 4, BlockRank::kMedianMs, 0.25, 0);
  ASSERT_EQ(pool.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(pool[i].ms, 1.0);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(pool[i].ms, 2.0);
}

TEST(FastestBlocks, TakesMoreBlocksUntilMinOps) {
  const std::vector<OpSample> ops = blocks_of({3.0, 1.0, 2.0, 4.0}, 5);
  const std::vector<OpSample> pool =
      fastest_blocks(ops, 5, BlockRank::kMedianMs, 0.25, 12);
  ASSERT_EQ(pool.size(), 15u);
  EXPECT_DOUBLE_EQ(pool.back().ms, 3.0);
  EXPECT_EQ(fastest_blocks(ops, 5, BlockRank::kMedianMs, 0.25, 100).size(),
            20u);
  EXPECT_TRUE(fastest_blocks(ops, 21, BlockRank::kMedianMs, 1.0, 0).empty());
}

TEST(FastestBlocks, RanksByMedianOrByThroughput) {
  // Block A: fast typical op, one very slow op. Block B: every op middling.
  std::vector<OpSample> ops = {{1.0, 1.0}, {1.0, 1.0}, {100.0, 1.0},
                               {3.0, 1.0}, {3.0, 1.0}, {3.0, 1.0}};
  EXPECT_DOUBLE_EQ(
      fastest_blocks(ops, 3, BlockRank::kMedianMs, 0.5, 0).front().ms, 1.0);
  EXPECT_DOUBLE_EQ(
      fastest_blocks(ops, 3, BlockRank::kThroughput, 0.5, 0).front().ms, 3.0);
}

TEST(Tracer, SelfTimeSubtractsChildrenOnce) {
  Tracer tracer;
  tracer.set_enabled(true);
  // op [0, 100] holds a [10, 40] and b [30, 60] (overlapping, recorded
  // spans) and c [50, 90], which itself holds d [60, 70].
  const std::uint32_t op = tracer.begin("op");
  const std::int64_t t0 = tracer.spans()[op - 1].start_ns;
  tracer.record("a", t0 + 10, t0 + 40);
  tracer.record("b", t0 + 30, t0 + 60);
  const std::uint32_t c = tracer.begin("c");
  const std::uint32_t d = tracer.begin("d");
  tracer.end(d);
  tracer.end(c);
  tracer.end(op);
  // Pin the measured spans to exact times.
  auto& spans = const_cast<std::vector<Tracer::Span>&>(tracer.spans());
  spans[op - 1].end_ns = t0 + 100;
  spans[c - 1].start_ns = t0 + 50;
  spans[c - 1].end_ns = t0 + 90;
  spans[d - 1].start_ns = t0 + 60;
  spans[d - 1].end_ns = t0 + 70;

  EXPECT_EQ(spans[c - 1].parent, op);
  EXPECT_EQ(spans[d - 1].parent, c);
  const std::map<std::string, double> self = tracer.self_ms();
  // op: 100 minus the union [10, 90] of its children = 20 ns.
  EXPECT_DOUBLE_EQ(self.at("op"), 20e-6);
  EXPECT_DOUBLE_EQ(self.at("a"), 30e-6);
  EXPECT_DOUBLE_EQ(self.at("c"), 30e-6);
  EXPECT_DOUBLE_EQ(self.at("d"), 10e-6);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;
  {
    Scope scope(tracer, "op");
    tracer.record("child", 0, 10);
  }
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.self_ms().empty());
}

TEST(Ledger, AnOpFailsOnceWhateverItsFailedChecks) {
  Ledger ledger;
  const std::size_t first = ledger.begin_op();
  const std::size_t second = ledger.begin_op();
  ledger.begin_op();
  EXPECT_TRUE(ledger.check(first, true, "fine"));
  EXPECT_FALSE(ledger.check(second, false, "violation"));
  EXPECT_FALSE(ledger.check(second, false, "objective"));
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 1u);
  EXPECT_FALSE(ledger.correct());
  EXPECT_EQ(ledger.messages().size(), 2u);
}

TEST(Ledger, LateFailureIsChargedToTheOpThatCausedIt) {
  Ledger ledger;
  const std::size_t crossed = ledger.begin_op();
  for (int i = 0; i < 5; ++i) ledger.begin_op();
  EXPECT_TRUE(ledger.correct());
  ledger.check(crossed, false, "not relieved in two periods");
  EXPECT_EQ(ledger.failed(), 1u);
  EXPECT_EQ(ledger.attempted(), 6u);
}

TEST(Ledger, RunFailureMakesTheRunIncorrectWithoutFailingOps) {
  Ledger ledger;
  ledger.begin_op();
  ledger.fail_run("set-up: cycle infeasible");
  EXPECT_EQ(ledger.failed(), 0u);
  EXPECT_FALSE(ledger.correct());
}

TEST(Result, LineHasExactlyTheContractKeys) {
  Ledger ledger;
  ledger.begin_op();
  std::ostringstream os;
  write_result(os, ledger, {{"op_ms_p50", {1.25, "ms"}}});
  EXPECT_EQ(os.str(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"op_ms_p50\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}\n");
}

}  // namespace
}  // namespace perfbench
