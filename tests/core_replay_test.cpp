#include "core/replay.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/topology.hpp"

namespace dust::core {
namespace {

std::vector<LoadUpdate> parse(const std::string& text) {
  std::istringstream in(text);
  return load_trace(in);
}

TEST(TraceParse, BasicAndSorted) {
  const auto trace = parse(
      "# a trace\n"
      "2000, 1, 85.5\n"
      "1000, 0, 90, 42.5\n"
      "\n"
      "3000, 2, 40\n");
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].time_ms, 1000);  // sorted
  EXPECT_EQ(trace[0].node, 0u);
  EXPECT_DOUBLE_EQ(trace[0].monitoring_data_mb, 42.5);
  EXPECT_DOUBLE_EQ(trace[1].utilization_percent, 85.5);
  EXPECT_LT(trace[1].monitoring_data_mb, 0);  // absent field
}

TEST(TraceParse, RejectsMalformed) {
  EXPECT_THROW(parse("1000,0\n"), std::invalid_argument);
  EXPECT_THROW(parse("nonsense\n"), std::invalid_argument);
  EXPECT_THROW(parse("1000,0,150\n"), std::invalid_argument);  // >100%
  EXPECT_THROW(parse("1000,0,50,abc\n"), std::invalid_argument);
}

TEST(TraceParse, EmptyIsEmpty) { EXPECT_TRUE(parse("# nothing\n").empty()); }

Nmdb ring_nmdb() {
  net::NetworkState state(graph::make_ring(4));
  for (graph::NodeId v = 0; v < 4; ++v) {
    state.set_node_utilization(v, 50.0);
    state.set_monitoring_data_mb(v, 10.0);
  }
  return Nmdb(std::move(state), Thresholds{});
}

TEST(Replay, AppliesUpdatesAndPlacesLoad) {
  Nmdb nmdb = ring_nmdb();
  const auto trace = parse(
      "0, 0, 92\n"       // node 0 overloads at t=0
      "70000, 0, 92\n"); // still overloaded into the second cycle window
  ReplayOptions options;
  options.placement_period_ms = 60000;
  const ReplayReport report = replay_trace(nmdb, trace, options);
  EXPECT_EQ(report.updates_applied, 2u);
  EXPECT_GE(report.placement_cycles, 1u);
  EXPECT_GE(report.cycles_with_offloads, 1u);
  EXPECT_NEAR(report.total_offloaded, 12.0 * report.cycles_with_offloads, 1e-6);
  EXPECT_DOUBLE_EQ(report.total_unplaced, 0.0);
  // The plan was applied: node 0 sits at Cmax now.
  EXPECT_NEAR(nmdb.network().node_utilization(0), 80.0, 1e-9);
}

TEST(Replay, MeasureOnlyLeavesStateOverloaded) {
  Nmdb nmdb = ring_nmdb();
  const auto trace = parse("0, 0, 92\n60000, 1, 55\n");
  ReplayOptions options;
  options.apply_plans = false;
  const ReplayReport report = replay_trace(nmdb, trace, options);
  EXPECT_GT(report.overloaded_node_cycles, 0u);
  EXPECT_NEAR(nmdb.network().node_utilization(0), 92.0, 1e-9);
}

TEST(Replay, CapacityShortfallReportedAsUnplaced) {
  net::NetworkState state(graph::make_ring(3));
  state.set_node_utilization(0, 99.0);  // Cs = 19
  state.set_node_utilization(1, 58.0);  // Cd = 2
  state.set_node_utilization(2, 59.0);  // Cd = 1
  for (graph::NodeId v = 0; v < 3; ++v) state.set_monitoring_data_mb(v, 10.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  const auto trace = parse("0, 0, 99\n");
  ReplayOptions options;
  const ReplayReport report = replay_trace(nmdb, trace, options);
  EXPECT_NEAR(report.total_offloaded, 3.0, 1e-6);
  EXPECT_NEAR(report.total_unplaced, 16.0, 1e-6);
}

TEST(Replay, UnknownNodeThrows) {
  Nmdb nmdb = ring_nmdb();
  const auto trace = parse("0, 9, 50\n");
  EXPECT_THROW(replay_trace(nmdb, trace), std::invalid_argument);
}

TEST(Replay, EmptyTraceNoCycles) {
  Nmdb nmdb = ring_nmdb();
  const ReplayReport report = replay_trace(nmdb, {});
  EXPECT_EQ(report.placement_cycles, 0u);
}

TEST(Replay, OverloadFractionAccounting) {
  ReplayReport report;
  report.node_cycles = 40;
  report.overloaded_node_cycles = 10;
  EXPECT_DOUBLE_EQ(report.overload_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(ReplayReport{}.overload_fraction(), 0.0);
}

}  // namespace
}  // namespace dust::core
