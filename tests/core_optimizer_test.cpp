#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "check/simplex.hpp"
#include "core/heuristic.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "solver_dense_flow.hpp"
#include "util/rng.hpp"

namespace dust::core {
namespace {

Nmdb random_fat_tree_nmdb(std::uint32_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(k).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  return Nmdb(std::move(state), Thresholds{});
}

TEST(Optimizer, BackendNames) {
  EXPECT_STREQ(to_string(SolverBackend::kTransportation), "transportation");
  EXPECT_STREQ(to_string(SolverBackend::kMinCostFlow), "min-cost-flow");
}

TEST(Optimizer, NothingToOffloadIsOptimalEmpty) {
  net::NetworkState state(graph::make_ring(4));
  for (graph::NodeId v = 0; v < 4; ++v) state.set_node_utilization(v, 50.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  const PlacementResult r = OptimizationEngine().run(nmdb);
  EXPECT_TRUE(r.optimal());
  EXPECT_TRUE(r.assignments.empty());
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

TEST(Optimizer, InfeasibleWhenSpareTooSmall) {
  net::NetworkState state(graph::make_ring(3));
  state.set_node_utilization(0, 95.0);  // Cs = 15
  state.set_node_utilization(1, 55.0);  // Cd = 5
  state.set_node_utilization(2, 70.0);  // neutral
  state.set_monitoring_data_mb(0, 10.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  const PlacementResult r = OptimizationEngine().run(nmdb);
  EXPECT_EQ(r.status, solver::Status::kInfeasible);
}

TEST(Optimizer, PartialModeShipsWhatFits) {
  net::NetworkState state(graph::make_ring(3));
  state.set_node_utilization(0, 95.0);  // Cs = 15
  state.set_node_utilization(1, 55.0);  // Cd = 5
  state.set_node_utilization(2, 70.0);
  state.set_monitoring_data_mb(0, 10.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  OptimizerOptions options;
  options.allow_partial = true;
  const PlacementResult r = OptimizationEngine(options).run(nmdb);
  EXPECT_TRUE(r.optimal());
  EXPECT_NEAR(r.offloaded_total(), 5.0, 1e-9);
  EXPECT_NEAR(r.unplaced, 10.0, 1e-9);
}

// An infeasible exact solve that falls back to the partial solver costs
// both attempts; the cycle's iterations and time must include the failed
// exact pivots, not only the partial solve's two phases.
TEST(Optimizer, PartialFallbackCountsTheFailedExactAttempt) {
  PlacementProblem p;
  p.busy = {0, 1, 2};
  p.candidates = {3, 4, 5};
  p.cs = {5.0, 5.0, 5.0};
  p.cd = {6.0, 6.0, 6.0};
  const double inf = solver::kInfinity;
  // Busy 0 and 1 only reach candidate 3, which fits 6 of their 10. Busy 2
  // reaches it cheapest, so the least-cost start hands it candidate 3 and
  // the simplex pivots it away before the shortfall shows.
  p.trmin = {1.0, inf, inf,
             2.0, inf, inf,
             0.5, 1.0, 2.0};
  const PlacementResult exact = OptimizationEngine().solve(p);
  ASSERT_EQ(exact.status, solver::Status::kInfeasible);
  ASSERT_GT(exact.solver_iterations, 0u);

  // The partial solve's two phases, run as the engine runs them.
  const std::vector<double> unit(p.busy.size(), 1.0);
  const solver::TransportationResult partial =
      solver::solve_transportation_partial(to_transportation(p), unit);
  ASSERT_TRUE(partial.optimal());

  OptimizerOptions options;
  options.allow_partial = true;
  const PlacementResult r = OptimizationEngine(options).solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.unplaced, 4.0, 1e-9);
  EXPECT_EQ(r.solver_iterations, exact.solver_iterations + partial.iterations);
  EXPECT_GT(r.solve_seconds, 0.0);
}

// A homogeneous problem whose total excess exceeds the spare capacity by a
// random margin, with `forbidden` of its cells out of range and costs drawn
// from three values when `ties` (many alternative optima).
PlacementProblem short_homogeneous_problem(util::Rng& rng, std::size_t m,
                                           std::size_t n, double forbidden,
                                           bool ties) {
  PlacementProblem p;
  double total = 0.0;
  for (std::size_t bi = 0; bi < m; ++bi) {
    p.busy.push_back(static_cast<graph::NodeId>(bi));
    p.cs.push_back(ties ? static_cast<double>(1 + rng.below(6)) : rng.uniform(0.5, 20.0));
    total += p.cs.back();
  }
  const double spare = rng.uniform(0.3, 1.1) * total;
  for (std::size_t cj = 0; cj < n; ++cj) {
    p.candidates.push_back(static_cast<graph::NodeId>(m + cj));
    p.cd.push_back(rng.uniform(0.2, 1.8) * spare / static_cast<double>(n));
  }
  for (std::size_t cell = 0; cell < m * n; ++cell)
    p.trmin.push_back(rng.bernoulli(forbidden) ? solver::kInfinity
                      : ties ? static_cast<double>(1 + rng.below(3)) * 1e-2
                             : rng.uniform(1e-3, 0.1));
  return p;
}

// Differential: on infeasible homogeneous problems the default backend's
// partial solve (two transportation solves) and kMinCostFlow's (successive
// shortest paths) are independent engines; they must agree on the status,
// the objective and what is left unplaced, over forbidden cells, tie-heavy
// costs and shapes up to 71x178.
TEST(PartialDifferential, TransportationMatchesMinCostFlow) {
  util::Rng rng(0x5A27);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {2, 3}, {5, 4}, {7, 12}, {16, 9}, {20, 40}, {71, 178}};
  const auto agree = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
  };
  std::size_t partial = 0;
  for (int trial = 0; trial < 140; ++trial) {
    const auto [m, n] = shapes[trial % 7];
    const double forbidden = std::array{0.0, 0.3, 0.7, 0.95}[trial / 7 % 4];
    const PlacementProblem p =
        short_homogeneous_problem(rng, m, n, forbidden, trial / 28 % 2 == 1);
    OptimizerOptions options;
    options.allow_partial = true;
    const PlacementResult r = OptimizationEngine(options).solve(p);
    options.backend = SolverBackend::kMinCostFlow;
    const PlacementResult reference = OptimizationEngine(options).solve(p);
    ASSERT_EQ(r.status, reference.status) << "trial " << trial;
    EXPECT_TRUE(agree(r.objective, reference.objective))
        << "trial " << trial << ": " << r.objective << " vs "
        << reference.objective;
    EXPECT_TRUE(agree(r.unplaced, reference.unplaced))
        << "trial " << trial << ": " << r.unplaced << " vs " << reference.unplaced;
    EXPECT_LT(placement_violation(p, r), 1e-6) << "trial " << trial;
    partial += r.unplaced > 0.0 ? 1 : 0;
  }
  EXPECT_GE(partial, 100u);
}

TEST(Optimizer, MaxHopUnreachabilityCausesInfeasible) {
  // Busy node whose only candidates are 2+ hops away, with max_hops = 1.
  net::NetworkState state(graph::make_ring(5));
  state.set_node_utilization(0, 90.0);
  state.set_node_utilization(1, 70.0);
  state.set_node_utilization(4, 70.0);  // both neighbours neutral
  state.set_node_utilization(2, 40.0);  // candidate 2 hops away
  state.set_node_utilization(3, 40.0);
  state.set_monitoring_data_mb(0, 10.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  OptimizerOptions options;
  options.placement.max_hops = 1;
  EXPECT_EQ(OptimizationEngine(options).run(nmdb).status,
            solver::Status::kInfeasible);
  options.placement.max_hops = 2;
  EXPECT_TRUE(OptimizationEngine(options).run(nmdb).optimal());
}

class BackendAgreementSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: both exact backends and the general simplex on the LP form
// return the same objective, and the backends' solutions satisfy every
// placement constraint.
TEST_P(BackendAgreementSweep, AllBackendsAgreeAndFeasible) {
  Nmdb nmdb = random_fat_tree_nmdb(4, GetParam());
  PlacementOptions placement;
  placement.max_hops = 6;
  const PlacementProblem problem = build_placement_problem(nmdb, placement);
  if (problem.total_excess() > problem.total_spare()) GTEST_SKIP();

  const check::Solution simplex =
      check::solve_simplex(check::to_linear_program(to_transportation(problem)));
  ASSERT_TRUE(simplex.optimal());
  const double reference = simplex.objective;
  for (SolverBackend backend :
       {SolverBackend::kTransportation, SolverBackend::kMinCostFlow}) {
    OptimizerOptions options;
    options.backend = backend;
    const PlacementResult r = OptimizationEngine(options).solve(problem);
    ASSERT_TRUE(r.optimal()) << to_string(backend);
    EXPECT_LT(placement_violation(problem, r), 1e-6) << to_string(backend);
    EXPECT_NEAR(r.objective, reference, 1e-5 * (1.0 + reference))
        << to_string(backend);
  }
}

// Property: the exact optimum never exceeds the heuristic objective when the
// heuristic fully places everything (both solve the same model).
TEST_P(BackendAgreementSweep, OptimalNeverWorseThanCompleteHeuristic) {
  Nmdb nmdb = random_fat_tree_nmdb(4, GetParam() ^ 0xbeef);
  const HeuristicResult h = HeuristicEngine().run(nmdb);
  if (!h.complete() || h.busy_count == 0) GTEST_SKIP();
  const PlacementResult r = OptimizationEngine().run(nmdb);
  ASSERT_TRUE(r.optimal());
  EXPECT_LE(r.objective, h.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendAgreementSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u));

TEST(Optimizer, RunMeasuresBuildAndSolveTimes) {
  Nmdb nmdb = random_fat_tree_nmdb(4, 99);
  const PlacementResult r = OptimizationEngine().run(nmdb);
  EXPECT_GE(r.build_seconds, 0.0);
  EXPECT_GE(r.solve_seconds, 0.0);
}

TEST(Optimizer, AssignmentsReferenceRealNodes) {
  Nmdb nmdb = random_fat_tree_nmdb(8, 5);
  OptimizerOptions options;
  options.placement.max_hops = 4;
  options.allow_partial = true;
  const PlacementResult r = OptimizationEngine(options).run(nmdb);
  const auto busy = nmdb.busy_nodes();
  const auto candidates = nmdb.candidate_nodes();
  for (const Assignment& a : r.assignments) {
    EXPECT_NE(std::find(busy.begin(), busy.end(), a.from), busy.end());
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), a.to),
              candidates.end());
    EXPECT_GT(a.amount, 0.0);
    EXPECT_GE(a.trmin_seconds, 0.0);
  }
}

TEST(Optimizer, FlexibleOffloadingSplitsAcrossDestinations) {
  // One very busy node, several small candidates: the solution must split
  // (the paper's "one busy node to multiple destinations" flexibility).
  net::NetworkState state(graph::make_star(4));
  state.set_node_utilization(0, 98.0);  // hub busy: Cs = 18
  for (graph::NodeId leaf = 1; leaf <= 4; ++leaf)
    state.set_node_utilization(leaf, 55.0);  // Cd = 5 each
  state.set_monitoring_data_mb(0, 10.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  const PlacementResult r = OptimizationEngine().run(nmdb);
  ASSERT_TRUE(r.optimal());
  EXPECT_GE(r.assignments.size(), 4u);  // needs >= ceil(18/5) destinations
  EXPECT_NEAR(r.offloaded_total(), 18.0, 1e-9);
}

// Warm starts may change the solver's pivot path but never the optimum: a
// stateful warm engine tracking a slowly drifting problem must stay
// objective-identical to a fresh cold engine on every cycle.
TEST(Optimizer, WarmStartMatchesColdAcrossPerturbedCycles) {
  util::Rng rng(2024);
  Nmdb nmdb = random_fat_tree_nmdb(4, 77);
  PlacementOptions placement;
  placement.max_hops = 6;
  PlacementProblem problem = build_placement_problem(nmdb, placement);
  if (problem.total_excess() > problem.total_spare()) GTEST_SKIP();

  OptimizerOptions warm_options;
  warm_options.warm_start = true;
  warm_options.verify_warm_start = true;  // internal cross-check every cycle
  const OptimizationEngine warm_engine(warm_options);
  const OptimizationEngine cold_engine;

  for (int cycle = 0; cycle < 12; ++cycle) {
    const PlacementResult w = warm_engine.solve(problem);
    const PlacementResult c = cold_engine.solve(problem);
    ASSERT_EQ(w.status, c.status) << "cycle " << cycle;
    if (c.optimal()) {
      EXPECT_NEAR(w.objective, c.objective, 1e-6 * (1.0 + c.objective))
          << "cycle " << cycle;
      EXPECT_LT(placement_violation(problem, w), 1e-6);
    }
    // Drift the costs slightly (same busy/candidate shape) — the realistic
    // steady state the warm path is built for.
    for (double& cost : problem.trmin)
      if (cost != solver::kInfinity) cost *= rng.uniform(0.95, 1.05);
  }
  EXPECT_GT(warm_engine.warm_solves(), 0u);
  EXPECT_EQ(warm_engine.cold_solves(), 1u);  // only the very first cycle
}

TEST(Optimizer, WarmStateDroppedOnShapeChange) {
  PlacementProblem p;
  p.busy = {0, 1};
  p.candidates = {2, 3};
  p.cs = {5.0, 5.0};
  p.cd = {6.0, 6.0};
  p.trmin = {1.0, 2.0, 2.0, 1.0};

  OptimizerOptions options;
  options.warm_start = true;
  const OptimizationEngine engine(options);
  const double reference = engine.solve(p).objective;  // cold (no state yet)
  EXPECT_DOUBLE_EQ(engine.solve(p).objective, reference);  // warm
  PlacementProblem shrunk = p;
  shrunk.busy = {0};
  shrunk.cs = {5.0};
  shrunk.trmin = {1.0, 2.0};
  EXPECT_TRUE(engine.solve(shrunk).optimal());  // cold: shape changed
  EXPECT_EQ(engine.cold_solves(), 2u);
  EXPECT_EQ(engine.warm_solves(), 1u);
  engine.reset_warm_state();
  EXPECT_TRUE(engine.solve(shrunk).optimal());
  EXPECT_EQ(engine.cold_solves(), 3u);  // reset forces another cold solve
}

// Mid-churn the busy set can empty entirely (every node released below
// Cmax). A warm engine must treat that as a trivially optimal no-op cycle,
// invalidate its warm state (the saved basis describes a shape that no
// longer exists), and then solve the next non-empty cycle correctly cold.
TEST(Optimizer, WarmStateSurvivesBusySetEmptyingMidChurn) {
  PlacementProblem p;
  p.busy = {0, 1};
  p.candidates = {2, 3};
  p.cs = {5.0, 5.0};
  p.cd = {6.0, 6.0};
  p.trmin = {1.0, 2.0, 2.0, 1.0};

  OptimizerOptions options;
  options.warm_start = true;
  options.verify_warm_start = true;
  const OptimizationEngine engine(options);
  const PlacementResult first = engine.solve(p);
  ASSERT_TRUE(first.optimal());

  PlacementProblem idle;  // churn released both busy nodes
  idle.candidates = {2, 3};
  idle.cd = {6.0, 6.0};
  const PlacementResult empty_cycle = engine.solve(idle);
  EXPECT_EQ(empty_cycle.status, solver::Status::kOptimal);
  EXPECT_TRUE(empty_cycle.assignments.empty());
  EXPECT_DOUBLE_EQ(empty_cycle.objective, 0.0);
  EXPECT_DOUBLE_EQ(empty_cycle.unplaced, 0.0);

  // Back to the original problem: the stale basis must not be reused.
  const PlacementResult again = engine.solve(p);
  ASSERT_TRUE(again.optimal());
  EXPECT_DOUBLE_EQ(again.objective, first.objective);
  EXPECT_EQ(engine.warm_solves(), 0u);  // both real solves were cold
  EXPECT_EQ(engine.cold_solves(), 2u);  // and the empty cycle was neither

  // Steady state resumes: an identical re-solve takes the warm path again.
  const PlacementResult warm = engine.solve(p);
  EXPECT_DOUBLE_EQ(warm.objective, first.objective);
  EXPECT_EQ(engine.warm_solves(), 1u);
}

// Moves a few nodes between roles: two busy nodes leave and three join,
// candidates swap with neutral nodes, and one busy node becomes a candidate.
void churn_roles(Nmdb& nmdb, util::Rng& rng) {
  const Thresholds t;
  net::NetworkState& net = nmdb.network();
  std::vector<graph::NodeId> busy, candidates, neutral;
  for (graph::NodeId v = 0; v < net.node_count(); ++v) {
    switch (t.classify(net.node_utilization(v))) {
      case NodeRole::kBusy: busy.push_back(v); break;
      case NodeRole::kOffloadCandidate: candidates.push_back(v); break;
      default: neutral.push_back(v); break;
    }
  }
  const auto pick = [&rng](std::vector<graph::NodeId>& from) {
    const std::size_t at = rng.below(from.size());
    const graph::NodeId v = from[at];
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(at));
    return v;
  };
  const auto set = [&](graph::NodeId v, double lo, double hi) {
    net.set_node_utilization(v, rng.uniform(lo, hi));
  };
  const double neutral_lo = t.co_max + 1.0, neutral_hi = t.c_max - 1.0;
  for (int k = 0; k < 2 && busy.size() > 2; ++k)
    set(pick(busy), neutral_lo, neutral_hi);  // busy leaves
  for (int k = 0; k < 3 && neutral.size() + candidates.size() > 2; ++k)
    set(pick(neutral.empty() ? candidates : neutral), t.c_max + 0.5,
        t.c_max + 8.0);  // busy joins
  if (!candidates.empty() && !neutral.empty()) {  // candidates swap
    set(pick(candidates), neutral_lo, neutral_hi);
    set(pick(neutral), t.x_min + 1.0, t.co_max - 1.0);
  }
  if (!busy.empty()) set(pick(busy), t.x_min + 1.0, t.co_max - 1.0);
}

// The same model with its busy rows and candidate columns in random order.
PlacementProblem shuffled(const PlacementProblem& p, util::Rng& rng) {
  const std::size_t m = p.busy.size(), n = p.candidates.size();
  std::vector<std::size_t> rows(m), cols(n);
  std::iota(rows.begin(), rows.end(), 0);
  std::iota(cols.begin(), cols.end(), 0);
  std::shuffle(rows.begin(), rows.end(), rng);
  std::shuffle(cols.begin(), cols.end(), rng);
  PlacementProblem q = p;
  q.trmin.clear();
  for (std::size_t bi = 0; bi < m; ++bi) {
    q.busy[bi] = p.busy[rows[bi]];
    q.cs[bi] = p.cs[rows[bi]];
    if (!p.busy_factor.empty()) q.busy_factor[bi] = p.busy_factor[rows[bi]];
    for (std::size_t cj = 0; cj < n; ++cj)
      q.trmin.push_back(p.trmin[rows[bi] * n + cols[cj]]);
  }
  for (std::size_t cj = 0; cj < n; ++cj) {
    q.candidates[cj] = p.candidates[cols[cj]];
    q.cd[cj] = p.cd[cols[cj]];
    if (!p.candidate_factor.empty())
      q.candidate_factor[cj] = p.candidate_factor[cols[cj]];
  }
  return q;
}

// Across churn a warm engine remaps its last optimum onto the new busy and
// candidate sets by node id. The start changes, the optimum may not: status
// and objective match a cold engine's every cycle, and every cycle that
// follows an optimum on changed sets is a remapped start.
TEST(Optimizer, RemappedStartsMatchColdAcrossChurn) {
  for (const std::uint32_t k : {4u, 8u}) {
    util::Rng rng(0xC0FFEEull + k);
    Nmdb nmdb = random_fat_tree_nmdb(k, 31 + k);
    OptimizerOptions cold_options;
    cold_options.placement.max_hops = 4;
    cold_options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
    OptimizerOptions warm_options = cold_options;
    warm_options.warm_start = true;
    const OptimizationEngine warm_engine(warm_options);
    const OptimizationEngine cold_engine(cold_options);
    std::size_t remaps = 0, optimal = 0;
    bool retained = false;
    PlacementProblem last;
    for (int cycle = 0; cycle < 50; ++cycle) {
      churn_roles(nmdb, rng);
      const PlacementProblem problem =
          shuffled(build_placement_problem(nmdb, cold_options.placement), rng);
      const std::size_t dirty = warm_engine.dirty_resolves();
      const PlacementResult w = warm_engine.solve(problem);
      const PlacementResult c = cold_engine.solve(problem);
      ASSERT_EQ(w.status, c.status) << "k=" << k << " cycle " << cycle;
      if (c.optimal()) {
        ++optimal;
        EXPECT_NEAR(w.objective, c.objective,
                    1e-9 * std::max(1.0, std::abs(c.objective)))
            << "k=" << k << " cycle " << cycle;
        EXPECT_LT(placement_violation(problem, w), 1e-6);
      }
      if (retained && !problem.busy.empty() &&
          (problem.busy != last.busy || problem.candidates != last.candidates) &&
          warm_engine.dirty_resolves() == dirty)
        ++remaps;
      retained = w.optimal() && !problem.busy.empty();
      last = problem;
    }
    EXPECT_EQ(warm_engine.remapped_starts(), remaps) << "k=" << k;
    EXPECT_GE(optimal, 40u) << "k=" << k;
    EXPECT_GE(remaps, 35u) << "k=" << k;
  }
}

// The remapped hint is the last optimum moved by node id: the engine's
// remapped solve takes exactly the pivots, and reaches exactly the
// objective, of the solver handed that grid directly.
TEST(Optimizer, RemapCarriesFlowsByNodeId) {
  util::Rng rng(0x4E3Aull);
  Nmdb nmdb = random_fat_tree_nmdb(8, 12);
  OptimizerOptions options;
  options.placement.max_hops = 4;
  options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
  options.warm_start = true;
  const OptimizationEngine engine(options);
  const auto transportation = [](const PlacementProblem& p) {
    solver::TransportationProblem t;
    t.supply = p.cs;
    t.capacity = p.cd;
    t.cost = p.trmin;
    return t;
  };
  const PlacementProblem first = build_placement_problem(nmdb, options.placement);
  ASSERT_TRUE(engine.solve(first).optimal());
  // The engine's first solve, bit for bit: cold, with no hint.
  const std::vector<double> last = solver::dense_flow(
      solver::solve_transportation(transportation(first)),
      first.busy.size() * first.candidates.size());
  churn_roles(nmdb, rng);
  const PlacementProblem next =
      shuffled(build_placement_problem(nmdb, options.placement), rng);
  std::vector<double> hint(next.busy.size() * next.candidates.size(), 0.0);
  double carried = 0.0;
  for (std::size_t bi = 0; bi < next.busy.size(); ++bi) {
    const auto row = std::find(first.busy.begin(), first.busy.end(), next.busy[bi]);
    if (row == first.busy.end()) continue;
    for (std::size_t cj = 0; cj < next.candidates.size(); ++cj) {
      const auto col = std::find(first.candidates.begin(), first.candidates.end(),
                                 next.candidates[cj]);
      if (col == first.candidates.end()) continue;
      const double flow = last[static_cast<std::size_t>(row - first.busy.begin()) *
                                   first.candidates.size() +
                               static_cast<std::size_t>(col - first.candidates.begin())];
      hint[bi * next.candidates.size() + cj] = flow;
      carried += flow;
    }
  }
  ASSERT_GT(carried, 0.0);
  const PlacementResult remapped = engine.solve(next);
  ASSERT_EQ(engine.remapped_starts(), 1u);
  const std::vector<solver::TransportationCell> hint_list = solver::hint_cells(hint);
  const solver::TransportationResult direct =
      solver::solve_transportation(transportation(next), &hint_list);
  ASSERT_TRUE(direct.optimal());
  EXPECT_EQ(remapped.status, direct.status);
  EXPECT_EQ(remapped.solver_iterations, direct.iterations);
  EXPECT_EQ(remapped.objective, direct.objective);
}

TEST(Optimizer, MultipleBusyShareOneDestination) {
  net::NetworkState state(graph::make_star(2));
  state.set_node_utilization(1, 90.0);  // Cs = 10
  state.set_node_utilization(2, 85.0);  // Cs = 5
  state.set_node_utilization(0, 40.0);  // hub: Cd = 20
  state.set_monitoring_data_mb(1, 10.0);
  state.set_monitoring_data_mb(2, 10.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  const PlacementResult r = OptimizationEngine().run(nmdb);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.absorbed_by(0), 15.0, 1e-9);
}

}  // namespace
}  // namespace dust::core
