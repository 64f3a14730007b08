// Heterogeneous platform factors (paper §IV-A: the homogeneity assumption
// "can be adjusted with a coefficient factor relating two endpoint platform
// capacities").
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "check/simplex.hpp"
#include "core/optimizer.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "util/rng.hpp"

namespace dust::core {
namespace {

Nmdb star_scenario() {
  // Hub 0 busy (Cs = 18), two leaves as candidates (Cd = 5 each).
  net::NetworkState state(graph::make_star(2));
  state.set_node_utilization(0, 98.0);
  state.set_node_utilization(1, 55.0);
  state.set_node_utilization(2, 55.0);
  state.set_monitoring_data_mb(0, 10.0);
  return Nmdb(std::move(state), Thresholds{});
}

TEST(Heterogeneity, FactorValidation) {
  Nmdb nmdb = star_scenario();
  EXPECT_TRUE(nmdb.homogeneous());
  nmdb.set_platform_factor(1, 4.0);
  EXPECT_FALSE(nmdb.homogeneous());
  EXPECT_DOUBLE_EQ(nmdb.platform_factor(1), 4.0);
  EXPECT_THROW(nmdb.set_platform_factor(1, 0.0), std::invalid_argument);
  EXPECT_THROW(nmdb.set_platform_factor(1, -2.0), std::invalid_argument);
}

TEST(Heterogeneity, HomogeneousProblemHasUnitCoefficients) {
  Nmdb nmdb = star_scenario();
  const PlacementProblem p = build_placement_problem(nmdb, PlacementOptions{});
  EXPECT_FALSE(p.heterogeneous());
  for (std::size_t bi = 0; bi < p.busy.size(); ++bi)
    for (std::size_t cj = 0; cj < p.candidates.size(); ++cj)
      EXPECT_DOUBLE_EQ(p.capacity_coefficient(bi, cj), 1.0);
}

TEST(Heterogeneity, RescaleIsIdentityOnHomogeneousProblems) {
  util::Rng rng(3);
  Nmdb nmdb(net::make_random_state(graph::FatTree(4).graph(), net::LinkProfile{},
                                   net::NodeLoadProfile{}, rng),
            Thresholds{});
  PlacementOptions placement;
  placement.max_hops = 2;  // leaves some cells forbidden
  const PlacementProblem p = build_placement_problem(nmdb, placement);
  ASSERT_FALSE(p.heterogeneous());
  ASSERT_FALSE(p.busy_factor.empty());
  const solver::TransportationProblem t = to_transportation(p);
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(t.supply, p.cs));
  EXPECT_TRUE(same_bits(t.capacity, p.cd));
  EXPECT_TRUE(same_bits(t.cost, p.trmin));
}

TEST(Heterogeneity, RescaleShipsPlatformUnits) {
  // y_ij = f_i x_ij: supply' = f_i Cs_i, capacity' = g_j Cd_j,
  // cost' = Trmin_ij / f_i; forbidden cells stay forbidden.
  PlacementProblem p;
  p.busy = {0, 1};
  p.candidates = {2, 3};
  p.cs = {6.0, 4.0};
  p.cd = {5.0, 10.0};
  p.trmin = {0.5, solver::kInfinity, 0.25, 1.0};
  p.busy_factor = {2.0, 0.5};
  p.candidate_factor = {4.0, 1.0};
  const solver::TransportationProblem t = to_transportation(p);
  EXPECT_EQ(t.supply, (std::vector<double>{12.0, 2.0}));
  EXPECT_EQ(t.capacity, (std::vector<double>{20.0, 10.0}));
  EXPECT_EQ(t.cost, (std::vector<double>{0.25, solver::kInfinity, 0.5, 2.0}));
  // The engine reports amounts in load points (x), not platform units (y).
  const PlacementResult r = OptimizationEngine().solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.offloaded_from(0), 6.0, 1e-12);
  EXPECT_NEAR(r.offloaded_from(1), 4.0, 1e-12);
  EXPECT_LT(placement_violation(p, r), 1e-9);
  for (const Assignment& a : r.assignments)
    EXPECT_EQ(a.trmin_seconds, p.trmin_at(a.from, a.to - 2));
}

TEST(Heterogeneity, StrongerDestinationAbsorbsMore) {
  // Homogeneous: Cs = 18 > Cd total = 10 -> infeasible.
  Nmdb nmdb = star_scenario();
  EXPECT_EQ(OptimizationEngine().run(nmdb).status, solver::Status::kInfeasible);
  // A 4x-capable DPU at leaf 1: 18 units of hub load consume 18/4 = 4.5 of
  // leaf 1's 5 spare points -> now feasible on leaf 1 alone.
  nmdb.set_platform_factor(1, 4.0);
  const PlacementResult r = OptimizationEngine().run(nmdb);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.offloaded_from(0), 18.0, 1e-6);
  const PlacementProblem p = build_placement_problem(nmdb, PlacementOptions{});
  EXPECT_LT(placement_violation(p, r), 1e-6);
}

TEST(Heterogeneity, WeakerDestinationAbsorbsLess) {
  // Leaf capacities halved in effect: factor 0.5 means each unit of hub
  // load costs 2 units of leaf capacity -> only 5 of 18 can ship at most
  // (2.5 effective per leaf), so the exact model is infeasible and partial
  // mode ships 5.
  Nmdb nmdb = star_scenario();
  nmdb.set_platform_factor(1, 0.5);
  nmdb.set_platform_factor(2, 0.5);
  EXPECT_EQ(OptimizationEngine().run(nmdb).status, solver::Status::kInfeasible);
  OptimizerOptions options;
  options.allow_partial = true;
  const PlacementResult r = OptimizationEngine(options).run(nmdb);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.offloaded_total(), 5.0, 1e-6);
  EXPECT_NEAR(r.unplaced, 13.0, 1e-6);
}

TEST(Heterogeneity, FactorOneMatchesHomogeneousSolver) {
  util::Rng rng(5);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});
  OptimizerOptions options;
  options.allow_partial = true;
  const PlacementResult homogeneous = OptimizationEngine(options).run(nmdb);
  // Equal non-unit factors everywhere: coefficients are still 1, so the
  // heterogeneous LP path must reproduce the transportation result.
  for (graph::NodeId v = 0; v < nmdb.node_count(); ++v)
    nmdb.set_platform_factor(v, 3.0);
  const PlacementResult scaled = OptimizationEngine(options).run(nmdb);
  ASSERT_EQ(scaled.status, homogeneous.status);
  EXPECT_NEAR(scaled.objective, homogeneous.objective,
              1e-6 * (1.0 + homogeneous.objective));
  EXPECT_NEAR(scaled.offloaded_total(), homogeneous.offloaded_total(), 1e-6);
}

class HeterogeneitySweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: heterogeneous solves are feasible w.r.t. factor-weighted
// capacities and never ship more than ΣCs.
TEST_P(HeterogeneitySweep, FactorWeightedFeasibility) {
  util::Rng rng(GetParam());
  net::NetworkState state = net::make_random_state(
      graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});
  for (graph::NodeId v = 0; v < nmdb.node_count(); ++v)
    nmdb.set_platform_factor(v, rng.uniform(0.5, 4.0));
  OptimizerOptions options;
  options.allow_partial = true;
  const PlacementResult r = OptimizationEngine(options).run(nmdb);
  ASSERT_TRUE(r.optimal());
  const PlacementProblem p =
      build_placement_problem(nmdb, options.placement);
  EXPECT_LT(placement_violation(p, r), 1e-6);
  EXPECT_LE(r.offloaded_total(), nmdb.total_excess() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeterogeneitySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

/// A small model with platform factors drawn as the heterogeneous-dpu
/// scenarios draw them (30% DPU class in [1.5, 4), the rest in [0.5, 1.5))
/// and about 10% forbidden cells. Supplies and capacities overlap so both
/// feasible and infeasible instances come up.
PlacementProblem random_heterogeneous_problem(util::Rng& rng) {
  const auto factor = [&rng] {
    return rng.bernoulli(0.3) ? rng.uniform(1.5, 4.0) : rng.uniform(0.5, 1.5);
  };
  PlacementProblem p;
  const std::size_t m = 1 + rng.below(5);
  const std::size_t n = 1 + rng.below(7);
  for (std::size_t bi = 0; bi < m; ++bi) {
    p.busy.push_back(static_cast<graph::NodeId>(bi));
    p.cs.push_back(rng.uniform(1.0, 20.0));
    p.busy_factor.push_back(factor());
  }
  for (std::size_t cj = 0; cj < n; ++cj) {
    p.candidates.push_back(static_cast<graph::NodeId>(m + cj));
    p.cd.push_back(rng.uniform(1.0, 25.0));
    p.candidate_factor.push_back(factor());
  }
  for (std::size_t cell = 0; cell < m * n; ++cell)
    p.trmin.push_back(rng.bernoulli(0.1) ? solver::kInfinity
                                         : rng.uniform(1e-3, 0.1));
  return p;
}

/// The model as the paper states it, in x-space: Σ_j x_ij = Cs_i (≤ for a
/// partial solve), Σ_i (f_i/g_j)·x_ij ≤ Cd_j, minimise Σ Trmin_ij·x_ij (or
/// maximise the shipment Σ x_ij).
check::LinearProgram x_space_lp(const PlacementProblem& p,
                                check::Sense supply = check::Sense::kEqual,
                                bool maximize_shipment = false) {
  const std::size_t m = p.busy.size();
  const std::size_t n = p.candidates.size();
  check::LinearProgram lp;
  for (double cost : p.trmin) {
    if (cost == solver::kInfinity)
      lp.add_variable(0.0, 0.0, 0.0);
    else
      lp.add_variable(0.0, solver::kInfinity, maximize_shipment ? -1.0 : cost);
  }
  for (std::size_t bi = 0; bi < m; ++bi) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t cj = 0; cj < n; ++cj) terms.emplace_back(bi * n + cj, 1.0);
    lp.add_constraint(std::move(terms), supply, p.cs[bi]);
  }
  for (std::size_t cj = 0; cj < n; ++cj) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t bi = 0; bi < m; ++bi)
      terms.emplace_back(bi * n + cj, p.capacity_coefficient(bi, cj));
    lp.add_constraint(std::move(terms), check::Sense::kLessEqual, p.cd[cj]);
  }
  return lp;
}

// Differential: the rescaled transportation form solved by the engine's
// network backends must reach the x-space LP's verdict and optimum, and its
// assignments (mapped back to x) must satisfy the factor-weighted model.
TEST(HeterogeneityDifferential, EngineMatchesXSpaceSimplex) {
  util::Rng rng(0x4E7E20);
  std::size_t feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const PlacementProblem p = random_heterogeneous_problem(rng);
    const check::Solution reference = check::solve_simplex(x_space_lp(p));
    ASSERT_NE(reference.status, solver::Status::kIterationLimit);
    (reference.optimal() ? feasible : infeasible) += 1;
    for (SolverBackend backend :
         {SolverBackend::kTransportation, SolverBackend::kMinCostFlow}) {
      OptimizerOptions options;
      options.backend = backend;
      const PlacementResult r = OptimizationEngine(options).solve(p);
      ASSERT_EQ(r.status, reference.status)
          << "trial " << trial << ' ' << to_string(backend);
      if (!r.optimal()) continue;
      EXPECT_LE(std::abs(r.objective - reference.objective),
                1e-9 * std::abs(reference.objective))
          << "trial " << trial << ' ' << to_string(backend) << ": "
          << r.objective << " vs " << reference.objective;
      EXPECT_LT(placement_violation(p, r), 1e-6)
          << "trial " << trial << ' ' << to_string(backend);
    }
  }
  EXPECT_GE(feasible, 100u);
  EXPECT_GE(infeasible, 50u);
}

// Partial mode on infeasible instances: the engine's two transportation
// solves over the rescaled form ship what the x-space two-phase LP ships, at
// its cost.
TEST(HeterogeneityDifferential, PartialMatchesXSpaceTwoPhase) {
  util::Rng rng(0x9A27);
  std::size_t checked = 0;
  OptimizerOptions options;
  options.allow_partial = true;
  const OptimizationEngine engine(options);
  for (int trial = 0; trial < 200; ++trial) {
    const PlacementProblem p = random_heterogeneous_problem(rng);
    if (check::solve_simplex(x_space_lp(p)).optimal()) continue;
    const check::Solution ship = check::solve_simplex(
        x_space_lp(p, check::Sense::kLessEqual, /*maximize_shipment=*/true));
    ASSERT_TRUE(ship.optimal()) << "trial " << trial;
    const double shipped = -ship.objective;
    check::LinearProgram min_cost = x_space_lp(p, check::Sense::kLessEqual);
    std::vector<std::pair<std::size_t, double>> all;
    for (std::size_t cell = 0; cell < p.trmin.size(); ++cell)
      all.emplace_back(cell, 1.0);
    min_cost.add_constraint(std::move(all), check::Sense::kGreaterEqual,
                            shipped * (1.0 - 1e-9) - 1e-9);
    const check::Solution reference = check::solve_simplex(min_cost);
    ASSERT_TRUE(reference.optimal()) << "trial " << trial;

    const PlacementResult r = engine.solve(p);
    ASSERT_TRUE(r.optimal()) << "trial " << trial;
    ++checked;
    EXPECT_NEAR(r.offloaded_total(), shipped, 1e-6 * (1.0 + shipped))
        << "trial " << trial;
    EXPECT_NEAR(r.unplaced, p.total_excess() - shipped,
                1e-6 * (1.0 + p.total_excess()))
        << "trial " << trial;
    EXPECT_NEAR(r.objective, reference.objective,
                1e-7 * std::abs(reference.objective) + 1e-12)
        << "trial " << trial;
    EXPECT_LT(placement_violation(p, r), 1e-6) << "trial " << trial;
  }
  EXPECT_GE(checked, 30u);
}

// A warm engine re-solving one heterogeneous problem takes the warm path and
// lands on the cold optimum.
TEST(HeterogeneityDifferential, WarmResolveTakesWarmPath) {
  util::Rng rng(17);
  PlacementProblem p;
  do {
    p = random_heterogeneous_problem(rng);
  } while (!p.heterogeneous() ||
           !OptimizationEngine().solve(p).optimal() || p.busy.size() < 2);
  const PlacementResult cold = OptimizationEngine().solve(p);
  OptimizerOptions options;
  options.warm_start = true;
  const OptimizationEngine engine(options);
  ASSERT_TRUE(engine.solve(p).optimal());
  const PlacementResult warm = engine.solve(p);
  EXPECT_EQ(engine.warm_solves(), 1u);
  ASSERT_TRUE(warm.optimal());
  EXPECT_LE(std::abs(warm.objective - cold.objective),
            1e-9 * std::abs(cold.objective));
  EXPECT_LT(placement_violation(p, warm), 1e-6);
}

}  // namespace
}  // namespace dust::core
