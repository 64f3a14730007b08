// dust::check differential-oracle tests. The exhaustive basis enumerator is
// the ground truth: on every instance small enough to enumerate, the
// production transportation solver (and through cross_check_solvers, the
// general simplex and min-cost-flow backends) must agree with it on both
// verdict and objective. The NMDB-level oracles (Trmin
// cache, warm start, heuristic soundness) must come back clean on generated
// scenarios.
#include "check/oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "check/scenario.hpp"
#include "core/placement.hpp"
#include "solver/exhaustive.hpp"
#include "solver/transportation.hpp"
#include "util/rng.hpp"

namespace dust::check {
namespace {

solver::TransportationProblem random_instance(util::Rng& rng) {
  solver::TransportationProblem t;
  const std::size_t m = static_cast<std::size_t>(rng.range(1, 3));
  const std::size_t n = static_cast<std::size_t>(rng.range(1, 4));
  for (std::size_t i = 0; i < m; ++i)
    t.supply.push_back(rng.uniform(1.0, 20.0));
  for (std::size_t j = 0; j < n; ++j)
    t.capacity.push_back(rng.uniform(1.0, 20.0));
  for (std::size_t cell = 0; cell < m * n; ++cell)
    t.cost.push_back(rng.bernoulli(0.1) ? solver::kInfinity
                                        : rng.uniform(0.1, 10.0));
  return t;
}

TEST(Oracles, ExhaustiveMatchesTransportationOnRandomInstances) {
  util::Rng rng(99);
  std::size_t optimal_seen = 0;
  std::size_t infeasible_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const solver::TransportationProblem t = random_instance(rng);
    ASSERT_LE(solver::exhaustive_base_count(t), 200000u);
    const solver::TransportationResult truth =
        solver::solve_transportation_exhaustive(t);
    const solver::TransportationResult fast = solver::solve_transportation(t);
    ASSERT_EQ(fast.status, truth.status)
        << "trial " << trial << ": production solver verdict "
        << solver::to_string(fast.status) << " vs brute-force "
        << solver::to_string(truth.status);
    if (truth.optimal()) {
      ++optimal_seen;
      EXPECT_NEAR(fast.objective, truth.objective,
                  1e-6 * (1.0 + truth.objective))
          << "trial " << trial;
    } else {
      ++infeasible_seen;
    }
  }
  // The mix must actually exercise both verdicts or the test proves little.
  EXPECT_GT(optimal_seen, 20u);
  EXPECT_GT(infeasible_seen, 20u);
}

TEST(Oracles, ExhaustiveFindsKnownOptimum) {
  // Degenerate-free 2x2: optimum ships 8 at cost 1 and 4 at cost 2
  // (supply 0 → dest 0, supply 1 split is forced by capacities).
  solver::TransportationProblem t;
  t.supply = {8.0, 4.0};
  t.capacity = {8.0, 10.0};
  t.cost = {1.0, 5.0,
            9.0, 2.0};
  const solver::TransportationResult truth =
      solver::solve_transportation_exhaustive(t);
  ASSERT_TRUE(truth.optimal());
  EXPECT_NEAR(truth.objective, 8.0 * 1.0 + 4.0 * 2.0, 1e-9);
}

TEST(Oracles, ExhaustiveReportsInfeasibleWhenCapacityShort) {
  solver::TransportationProblem t;
  t.supply = {10.0};
  t.capacity = {4.0, 3.0};
  t.cost = {1.0, 2.0};
  EXPECT_EQ(solver::solve_transportation_exhaustive(t).status,
            solver::Status::kInfeasible);
}

TEST(Oracles, SolverCrossCheckCleanOnGeneratedScenarios) {
  OracleOptions options;
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    const core::Nmdb nmdb = build_nmdb(spec);
    core::PlacementOptions placement;
    placement.max_hops = spec.max_hops;
    const core::PlacementProblem problem =
        core::build_placement_problem(nmdb, placement);
    if (problem.busy.size() * problem.candidates.size() > options.max_cells)
      continue;
    ++checked;
    const std::vector<Violation> v = cross_check_solvers(problem, options);
    EXPECT_TRUE(v.empty()) << "seed " << seed << ":\n" << describe(v);
  }
  EXPECT_GT(checked, 0u) << "no generated scenario was small enough to check";
}

TEST(Oracles, NmdbCrossCheckCleanOnGeneratedScenarios) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    const core::Nmdb nmdb = build_nmdb(spec);
    core::PlacementOptions placement;
    placement.max_hops = spec.max_hops;
    const std::vector<Violation> v = cross_check_nmdb(nmdb, placement, {});
    EXPECT_TRUE(v.empty()) << "seed " << seed << ":\n" << describe(v);
  }
}

// O6 ground truth at the solver level: across fuzzed cost-delta schedules
// (supplies and capacities frozen, costs perturbed step after step), the
// dirty-basis re-solve must agree with a cold solve — and with the
// exhaustive basis enumerator where enumerable — on every step, while
// actually taking the dirty path (cost-only changes keep the retained basis
// eligible).
TEST(Oracles, DirtyBasisMatchesColdOnFuzzedCostDeltas) {
  util::Rng rng(0xD0575EEDull);
  std::size_t dirty_steps_checked = 0;
  for (int trial = 0; trial < 100; ++trial) {
    solver::TransportationProblem t = random_instance(rng);
    solver::TransportationBasis basis;
    const solver::TransportationResult primed =
        solver::solve_transportation_dirty(t, basis);
    if (!primed.optimal()) continue;  // nothing retained to re-solve from
    for (int step = 0; step < 6; ++step) {
      // Cost-only delta: reprice a handful of finite cells.
      const std::size_t cells = t.cost.size();
      const std::size_t count = 1 + rng.below(std::max<std::size_t>(1, cells / 3));
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t cell = rng.below(cells);
        if (t.cost[cell] == solver::kInfinity) continue;
        t.cost[cell] = std::max(1e-9, t.cost[cell] * rng.uniform(0.5, 2.0));
      }
      const solver::TransportationResult cold = solver::solve_transportation(t);
      const solver::TransportationResult dirty =
          solver::solve_transportation_dirty(t, basis);
      ASSERT_EQ(dirty.status, cold.status) << "trial " << trial << " step "
                                           << step;
      EXPECT_TRUE(dirty.dirty_resolve)
          << "trial " << trial << " step " << step
          << ": cost-only change did not take the dirty path";
      if (!cold.optimal()) break;
      ++dirty_steps_checked;
      EXPECT_NEAR(dirty.objective, cold.objective,
                  1e-6 * (1.0 + cold.objective))
          << "trial " << trial << " step " << step;
      if (solver::exhaustive_base_count(t) <= 200000u) {
        const solver::TransportationResult truth =
            solver::solve_transportation_exhaustive(t);
        ASSERT_EQ(dirty.status, truth.status) << "trial " << trial;
        EXPECT_NEAR(dirty.objective, truth.objective,
                    1e-6 * (1.0 + truth.objective))
            << "trial " << trial << " step " << step;
      }
    }
  }
  EXPECT_GT(dirty_steps_checked, 100u);
}

// A quantity change must evict the retained basis (its flows solved a
// different supply/demand system), falling back to a cold start — silently
// reusing it would be wrong, not just slow.
TEST(Oracles, DirtyBasisEvictedOnQuantityChange) {
  solver::TransportationProblem t;
  t.supply = {8.0, 4.0};
  t.capacity = {8.0, 10.0};
  t.cost = {1.0, 5.0, 9.0, 2.0};
  solver::TransportationBasis basis;
  ASSERT_TRUE(solver::solve_transportation_dirty(t, basis).optimal());
  ASSERT_TRUE(basis.valid);
  t.supply[0] = 6.0;  // quantities changed: the basis no longer applies
  const solver::TransportationResult r =
      solver::solve_transportation_dirty(t, basis);
  ASSERT_TRUE(r.optimal());
  EXPECT_FALSE(r.dirty_resolve);
  EXPECT_NEAR(r.objective,
              solver::solve_transportation_exhaustive(t).objective, 1e-9);
}

// O6 through the harness: a longer fuzz schedule than the default must stay
// clean on generated scenarios.
TEST(Oracles, DirtyBasisOracleCleanOnLongSchedules) {
  OracleOptions options;
  options.dirty_basis_steps = 24;
  for (std::uint64_t seed : {2u, 7u, 11u}) {
    const ScenarioSpec spec = generate_scenario(seed);
    const core::Nmdb nmdb = build_nmdb(spec);
    core::PlacementOptions placement;
    placement.max_hops = spec.max_hops;
    const std::vector<Violation> v =
        cross_check_nmdb(nmdb, placement, options);
    EXPECT_TRUE(v.empty()) << "seed " << seed << ":\n" << describe(v);
  }
}

TEST(Oracles, CrossCheckSkipsOversizedProblems) {
  core::PlacementProblem big;
  OracleOptions options;
  options.max_cells = 4;
  big.busy = {0, 1, 2};
  big.candidates = {3, 4, 5};
  big.cs = {1.0, 1.0, 1.0};
  big.cd = {2.0, 2.0, 2.0};
  big.trmin.assign(9, 1.0);
  EXPECT_TRUE(cross_check_solvers(big, options).empty());  // gated, not run
}

}  // namespace
}  // namespace dust::check
