// Cross-module integration on the paper's evaluation topology (4-k fat-tree):
// random scenarios through NMDB -> placement -> optimizer/heuristic, checking
// the relationships the evaluation section relies on.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/heuristic.hpp"
#include "core/optimizer.hpp"
#include "core/zones.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"

namespace dust::core {
namespace {

Nmdb scenario(std::uint64_t seed, std::uint32_t k = 4) {
  util::Rng rng(seed);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(k).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  return Nmdb(std::move(state), Thresholds{});
}

class ScenarioSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Fig. 7's premise: when ΣCs <= ΣCd and the hop bound is generous, the
// optimization is feasible; when ΣCs > ΣCd it cannot be.
TEST_P(ScenarioSweep, FeasibilityMatchesCapacityBalance) {
  Nmdb nmdb = scenario(GetParam());
  OptimizerOptions options;
  options.placement.max_hops = 8;
  const PlacementResult r = OptimizationEngine(options).run(nmdb);
  if (nmdb.total_excess() <= nmdb.total_spare()) {
    EXPECT_TRUE(r.optimal());
  } else {
    EXPECT_EQ(r.status, solver::Status::kInfeasible);
  }
}

// Fig. 8/10's premise: tightening max-hop never improves (and usually
// worsens) the objective, because it removes routes.
TEST_P(ScenarioSweep, ObjectiveMonotoneInMaxHop) {
  Nmdb nmdb = scenario(GetParam() ^ 0x11);
  double previous = -1.0;
  for (std::uint32_t hops : {8u, 6u, 4u, 2u}) {
    OptimizerOptions options;
    options.placement.max_hops = hops;
    const PlacementResult r = OptimizationEngine(options).run(nmdb);
    if (!r.optimal()) break;  // at some point routes run out — fine
    if (previous >= 0) {
      EXPECT_GE(r.objective, previous - 1e-9);
    }
    previous = r.objective;
  }
}

// Fig. 9's premise: heuristic success is a subset of optimization success.
TEST_P(ScenarioSweep, HeuristicSuccessImpliesOptimizationSuccess) {
  Nmdb nmdb = scenario(GetParam() ^ 0x22);
  const HeuristicResult h = HeuristicEngine().run(nmdb);
  if (!h.complete() || h.busy_count == 0) GTEST_SKIP();
  OptimizerOptions options;
  const PlacementResult r = OptimizationEngine(options).run(nmdb);
  EXPECT_TRUE(r.optimal());
}

// The heuristic is strictly cheaper to run than the enumerating optimizer.
TEST_P(ScenarioSweep, HeuristicFasterThanEnumeratingOptimizer) {
  Nmdb nmdb = scenario(GetParam() ^ 0x33, 8);
  const HeuristicResult h = HeuristicEngine().run(nmdb);
  OptimizerOptions options;
  options.placement.max_hops = 4;  // keep the test quick
  options.placement.evaluator = net::EvaluatorMode::kEnumerate;
  const PlacementResult r = OptimizationEngine(options).run(nmdb);
  if (h.busy_count == 0) GTEST_SKIP();
  EXPECT_LT(h.solve_seconds, r.build_seconds + r.solve_seconds);
}

// Zoned optimization (paper's ≤80-node-zone recommendation) completes and
// never does better than the global optimum.
TEST_P(ScenarioSweep, ZonedVersusGlobal) {
  Nmdb nmdb = scenario(GetParam() ^ 0x44);
  OptimizerOptions options;
  const PlacementResult global = OptimizationEngine(options).run(nmdb);
  const ZonedResult zoned = optimize_by_zones(nmdb, 10, options);
  if (!global.optimal() || zoned.unplaced > 1e-9) GTEST_SKIP();
  EXPECT_GE(zoned.objective, global.objective - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

// Δ_io sanity (Eq. 5): threshold sets with Δ_io >= 2 produce far fewer
// infeasible instances than Δ_io < 1 across a batch of random scenarios.
TEST(DeltaIo, HigherDeltaReducesInfeasibleRate) {
  Thresholds generous;  // Δ = (60-10)/(100-80) = 2.5
  Thresholds stingy;    // Δ = (30-10)/(100-60) = 0.5
  stingy.c_max = 60.0;
  stingy.co_max = 30.0;
  EXPECT_GT(generous.delta_io(), 2.0);
  EXPECT_LT(stingy.delta_io(), 1.0);

  auto infeasible_count = [](const Thresholds& thresholds) {
    int infeasible = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      util::Rng rng(seed * 7 + 1);
      net::NetworkState state = net::make_random_state(
          graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{},
          rng);
      Nmdb nmdb(std::move(state), thresholds);
      OptimizerOptions options;
      const PlacementResult r = OptimizationEngine(options).run(nmdb);
      if (!r.optimal()) ++infeasible;
    }
    return infeasible;
  };
  EXPECT_LT(infeasible_count(generous), infeasible_count(stingy));
}

}  // namespace
}  // namespace dust::core
