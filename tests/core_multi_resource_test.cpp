#include "core/multi_resource.hpp"

#include <gtest/gtest.h>

#include "core/optimizer.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"

namespace dust::core {
namespace {

// Star: hub 0 busy, leaves 1 and 2 candidates.
Nmdb star() {
  net::NetworkState state(graph::make_star(2));
  state.set_node_utilization(0, 90.0);  // Cs = 10
  state.set_node_utilization(1, 40.0);  // CdCpu = 20
  state.set_node_utilization(2, 40.0);  // CdCpu = 20
  state.set_monitoring_data_mb(0, 10.0);
  return Nmdb(std::move(state), Thresholds{});
}

TEST(MultiResource, BuilderValidatesSizes) {
  Nmdb nmdb = star();
  std::vector<double> mem(nmdb.node_count(), 50.0);
  std::vector<double> wrong(2, 1.0);
  EXPECT_THROW(
      build_multi_resource_problem(nmdb, wrong, mem, MultiResourceOptions{}),
      std::invalid_argument);
  std::vector<double> negative_ratio(nmdb.node_count(), -1.0);
  EXPECT_THROW(build_multi_resource_problem(nmdb, mem, negative_ratio,
                                            MultiResourceOptions{}),
               std::invalid_argument);
}

TEST(MultiResource, SlackMemoryReducesToSingleResource) {
  Nmdb nmdb = star();
  std::vector<double> mem_util(nmdb.node_count(), 0.0);   // tons of memory
  std::vector<double> ratio(nmdb.node_count(), 0.1);
  const MultiResourceProblem problem = build_multi_resource_problem(
      nmdb, mem_util, ratio, MultiResourceOptions{});
  const MultiResourceResult multi = solve_multi_resource(problem);
  const PlacementResult single = OptimizationEngine().run(nmdb);
  ASSERT_TRUE(multi.optimal());
  ASSERT_TRUE(single.optimal());
  EXPECT_NEAR(multi.objective, single.objective,
              1e-6 * (1.0 + single.objective));
  EXPECT_LT(multi_resource_violation(problem, multi), 1e-6);
}

TEST(MultiResource, MemoryConstraintForcesSplit) {
  // CPU-wise leaf 1 could take all 10, but its memory allows only 5 units
  // (CdMem = 10, ratio = 2). The optimum must route the rest to leaf 2 even
  // though leaf 2's link is slower.
  Nmdb nmdb = star();
  nmdb.network().set_link(0, net::LinkState{1000.0, 1.0});  // hub-leaf1 fast
  nmdb.network().set_link(1, net::LinkState{1000.0, 0.5});  // hub-leaf2 slow
  std::vector<double> mem_util(nmdb.node_count(), 0.0);
  mem_util[1] = 70.0;  // leaf1 memory: CdMem = 80 - 70 = 10
  std::vector<double> ratio(nmdb.node_count(), 2.0);
  const MultiResourceProblem problem = build_multi_resource_problem(
      nmdb, mem_util, ratio, MultiResourceOptions{});
  const MultiResourceResult r = solve_multi_resource(problem);
  ASSERT_TRUE(r.optimal());
  double to_leaf1 = 0, to_leaf2 = 0;
  for (const Assignment& a : r.assignments)
    (a.to == 1 ? to_leaf1 : to_leaf2) += a.amount;
  EXPECT_NEAR(to_leaf1, 5.0, 1e-6);
  EXPECT_NEAR(to_leaf2, 5.0, 1e-6);
  EXPECT_LT(multi_resource_violation(problem, r), 1e-6);
}

TEST(MultiResource, InfeasibleWhenMemoryTooTight) {
  Nmdb nmdb = star();
  std::vector<double> mem_util(nmdb.node_count(), 79.5);  // CdMem = 0.5 each
  std::vector<double> ratio(nmdb.node_count(), 2.0);      // 10 CPU needs 20 mem
  const MultiResourceProblem problem = build_multi_resource_problem(
      nmdb, mem_util, ratio, MultiResourceOptions{});
  EXPECT_EQ(solve_multi_resource(problem).status, solver::Status::kInfeasible);
}

TEST(MultiResource, NoBusyNodesTrivial) {
  net::NetworkState state(graph::make_star(2));
  for (graph::NodeId v = 0; v < 3; ++v) state.set_node_utilization(v, 50.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  std::vector<double> mem(nmdb.node_count(), 50.0);
  std::vector<double> ratio(nmdb.node_count(), 1.0);
  const MultiResourceProblem problem =
      build_multi_resource_problem(nmdb, mem, ratio, MultiResourceOptions{});
  const MultiResourceResult r = solve_multi_resource(problem);
  EXPECT_TRUE(r.optimal());
  EXPECT_TRUE(r.assignments.empty());
}

class MultiResourceSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: multi-resource optimum >= single-resource optimum (extra
// constraints can only hurt), and results are feasible in both dimensions.
TEST_P(MultiResourceSweep, TighterThanSingleResource) {
  util::Rng rng(GetParam());
  net::NetworkState state = net::make_random_state(
      graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});
  std::vector<double> mem_util(nmdb.node_count());
  std::vector<double> ratio(nmdb.node_count());
  for (graph::NodeId v = 0; v < nmdb.node_count(); ++v) {
    mem_util[v] = rng.uniform(20.0, 60.0);
    ratio[v] = rng.uniform(0.2, 1.5);
  }
  MultiResourceOptions options;
  const MultiResourceProblem problem =
      build_multi_resource_problem(nmdb, mem_util, ratio, options);
  const MultiResourceResult multi = solve_multi_resource(problem);
  OptimizerOptions single_options;
  single_options.placement = options.placement;
  const PlacementResult single =
      OptimizationEngine(single_options).run(nmdb);
  if (!multi.optimal()) {
    // Memory made it infeasible; nothing more to check.
    return;
  }
  EXPECT_LT(multi_resource_violation(problem, multi), 1e-6);
  if (single.optimal()) {
    EXPECT_GE(multi.objective, single.objective - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiResourceSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace dust::core
