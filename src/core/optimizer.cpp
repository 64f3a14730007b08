#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "solver/min_cost_flow.hpp"
#include "solver/transportation.hpp"
#include "util/timer.hpp"

namespace dust::core {

namespace {

constexpr double kAmountEps = 1e-9;

// Map the optimum y, given as (cell, flow) in index order, back to the
// model's x = y / f_i; `trmin_seconds` stays the unscaled Trmin(i,j).
void extract_assignments(const PlacementProblem& problem,
                         const std::vector<solver::TransportationCell>& cells,
                         PlacementResult& result) {
  const std::size_t n = problem.candidates.size();
  for (const auto& [cell, flow] : cells) {
    if (flow <= 0.0) continue;
    const std::size_t bi = cell / n;
    const double amount =
        flow / (problem.busy_factor.empty() ? 1.0 : problem.busy_factor[bi]);
    if (amount <= kAmountEps) continue;
    result.assignments.push_back(Assignment{
        problem.busy[bi], problem.candidates[cell % n], amount, problem.trmin[cell]});
  }
}

// Successive shortest paths over source -> busy row i (Cs'_i) -> candidate
// j (Trmin'_ij, uncapacitated) -> sink (Cd'_j) on the transportation form:
// ships as much as the capacities allow at least cost. In exact mode a
// shortfall is reported infeasible; otherwise (homogeneous problems only,
// where the most flow is the most load) it is left in `unplaced`.
PlacementResult solve_min_cost_flow(const PlacementProblem& problem,
                                    bool exact) {
  PlacementResult result;
  util::Timer timer;
  const solver::TransportationProblem t = to_transportation(problem);
  const std::size_t m = t.sources();
  const std::size_t n = t.destinations();
  solver::MinCostFlow mcf(m + n + 2);
  const std::size_t source = m + n;
  const std::size_t sink = m + n + 1;
  double supply = 0.0;
  for (std::size_t bi = 0; bi < m; ++bi) {
    mcf.add_arc(source, bi, t.supply[bi], 0.0);
    supply += t.supply[bi];
  }
  std::vector<solver::TransportationCell> cells;  // the allowed cells
  std::vector<std::size_t> arcs;                  // and their arcs
  for (std::size_t cell = 0; cell < m * n; ++cell) {
    if (t.cost[cell] == solver::kInfinity) continue;
    cells.push_back({cell, 0.0});
    arcs.push_back(
        mcf.add_arc(cell / n, m + cell % n, solver::kInfinity, t.cost[cell]));
  }
  for (std::size_t cj = 0; cj < n; ++cj)
    mcf.add_arc(m + cj, sink, t.capacity[cj], 0.0);
  const solver::MinCostFlow::FlowResult f = mcf.solve(source, sink);
  result.solver_iterations = f.augmentations;
  if (exact && f.max_flow + 1e-6 < supply) {
    result.status = solver::Status::kInfeasible;
    result.solve_seconds = timer.seconds();
    return result;
  }
  result.status = solver::Status::kOptimal;
  result.objective = f.total_cost;
  if (!exact) result.unplaced = std::max(0.0, supply - f.max_flow);
  for (std::size_t k = 0; k < cells.size(); ++k) cells[k].flow = mcf.arc_flow(arcs[k]);
  extract_assignments(problem, cells, result);
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace

solver::TransportationProblem to_transportation(const PlacementProblem& p) {
  solver::TransportationProblem t;
  t.supply = p.cs;
  t.capacity = p.cd;
  t.cost = p.trmin;
  if (!p.busy_factor.empty())
    for (std::size_t bi = 0; bi < t.supply.size(); ++bi) {
      const double f = p.busy_factor[bi];
      if (f == 1.0) continue;  // x * 1.0 == x and c / 1.0 == c
      t.supply[bi] *= f;
      for (std::size_t cj = 0; cj < t.capacity.size(); ++cj)
        t.cost[bi * t.capacity.size() + cj] /= f;
    }
  if (!p.candidate_factor.empty())
    for (std::size_t cj = 0; cj < t.capacity.size(); ++cj)
      t.capacity[cj] *= p.candidate_factor[cj];
  return t;
}

const char* to_string(SolverBackend backend) noexcept {
  switch (backend) {
    case SolverBackend::kTransportation: return "transportation";
    case SolverBackend::kMinCostFlow: return "min-cost-flow";
  }
  return "?";
}

namespace {

// Engine-level solve metrics; per-backend detail (the transportation
// start/pivot split and pivot counts) is recorded inside dust::solver itself.
// Handles are magic statics so parallel iteration sweeps only pay relaxed
// atomics per solve.
struct EngineMetrics {
  obs::Counter& solves;
  obs::Counter& infeasible;
  obs::Counter& partial;
  obs::Histogram& solve_ms;
  obs::Histogram& build_ms;
  obs::Histogram& iterations;
  obs::Counter& warm_solves;
  obs::Counter& cold_solves;
  obs::Counter& dirty_resolves;
  obs::Counter& remapped_starts;
  obs::Counter& warm_verify_mismatch;
  obs::Histogram& warm_solve_ms;
  obs::Histogram& cold_solve_ms;
  static EngineMetrics& get() {
    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    static EngineMetrics metrics{
        registry.counter("dust_solver_solves_total"),
        registry.counter("dust_solver_infeasible_total"),
        registry.counter("dust_solver_partial_total"),
        registry.histogram("dust_solver_solve_ms"),
        registry.histogram("dust_solver_build_ms"),
        registry.histogram("dust_solver_iterations"),
        registry.counter("dust_solver_warm_solves_total"),
        registry.counter("dust_solver_cold_solves_total"),
        registry.counter("dust_solver_dirty_resolves_total"),
        registry.counter("dust_solver_remapped_starts_total"),
        registry.counter("dust_solver_warm_verify_mismatch_total"),
        registry.histogram("dust_solver_warm_solve_ms"),
        registry.histogram("dust_solver_cold_solve_ms")};
    return metrics;
  }
};

// The retained optimum's cells over `busy` x `candidates`, moved onto the
// problem's busy x candidates grid by node id: a cell whose busy and
// candidate nodes are in both cycles' sets keeps its flow, the rest drop
// out. Neither cycle's sets need be sorted; the solver sorts the hint.
std::vector<solver::TransportationCell> remap_cells(
    const std::vector<graph::NodeId>& busy,
    const std::vector<graph::NodeId>& candidates,
    const std::vector<solver::TransportationCell>& cells,
    const PlacementProblem& problem) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  graph::NodeId max_node = 0;
  for (graph::NodeId b : problem.busy) max_node = std::max(max_node, b);
  for (graph::NodeId o : problem.candidates) max_node = std::max(max_node, o);
  std::vector<std::size_t> new_row(std::size_t{max_node} + 1, kNone), new_col = new_row;
  for (std::size_t bi = 0; bi < problem.busy.size(); ++bi)
    new_row[problem.busy[bi]] = bi;
  for (std::size_t cj = 0; cj < problem.candidates.size(); ++cj)
    new_col[problem.candidates[cj]] = cj;
  std::vector<solver::TransportationCell> remapped;
  for (const auto& [cell, flow] : cells) {
    const graph::NodeId b = busy[cell / candidates.size()];
    const graph::NodeId o = candidates[cell % candidates.size()];
    const std::size_t row = b <= max_node ? new_row[b] : kNone;
    const std::size_t col = o <= max_node ? new_col[o] : kNone;
    if (row != kNone && col != kNone)
      remapped.push_back({row * problem.candidates.size() + col, flow});
  }
  return remapped;
}

}  // namespace

PlacementResult OptimizationEngine::run(const Nmdb& nmdb) const {
  return run(nmdb, nullptr);
}

PlacementResult OptimizationEngine::run(const Nmdb& nmdb,
                                        PlacementProblem* problem_out) const {
  util::Timer build_timer;
  PlacementProblem problem = build_placement_problem(nmdb, options_.placement);
  const double build_seconds = build_timer.seconds();
  PlacementResult result = solve(problem);
  result.build_seconds = build_seconds;
  EngineMetrics::get().build_ms.observe(build_seconds * 1e3);
  if (problem_out != nullptr) *problem_out = std::move(problem);
  return result;
}

PlacementResult OptimizationEngine::solve(const PlacementProblem& problem) const {
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.solves.inc();
  if (problem.busy.empty()) {
    // Nothing to place. Return a fresh zero-flow optimum and drop any
    // retained warm state: when churn empties the busy set mid-run the next
    // non-empty cycle must solve cold rather than seed from a basis whose
    // shape no longer reflects reality.
    warm_.valid = false;
    warm_.basis.valid = false;
    PlacementResult result;
    result.status = solver::Status::kOptimal;
    result.paths_explored = problem.paths_explored;
    return result;
  }
  PlacementResult result = solve_exact(problem);
  if (result.status == solver::Status::kInfeasible && options_.allow_partial) {
    metrics.partial.inc();
    PlacementResult partial = solve_partial(problem);
    // The failed exact attempt is part of this cycle's solve cost.
    partial.solve_seconds += result.solve_seconds;
    partial.solver_iterations += result.solver_iterations;
    partial.paths_explored = problem.paths_explored;
    metrics.solve_ms.observe(partial.solve_seconds * 1e3);
    metrics.iterations.observe(static_cast<double>(partial.solver_iterations));
    return partial;
  }
  if (result.status == solver::Status::kInfeasible) metrics.infeasible.inc();
  result.paths_explored = problem.paths_explored;
  metrics.solve_ms.observe(result.solve_seconds * 1e3);
  metrics.iterations.observe(static_cast<double>(result.solver_iterations));
  return result;
}

PlacementResult OptimizationEngine::solve_exact(
    const PlacementProblem& problem) const {
  if (options_.backend == SolverBackend::kMinCostFlow)
    return solve_min_cost_flow(problem, true);
  return solve_transportation_backend(problem);
}

PlacementResult OptimizationEngine::solve_transportation_backend(
    const PlacementProblem& problem) const {
  EngineMetrics& metrics = EngineMetrics::get();
  const bool retained = options_.warm_start && warm_.valid;
  const bool warm = retained && warm_.busy == problem.busy &&
                    warm_.candidates == problem.candidates;
  // Across churn the retained optimum still holds the flows between nodes
  // both cycles share: remapped by node id (the identity when the sets did
  // not change), it seeds the start.
  const bool remap = retained && !warm;
  PlacementResult result;
  util::Timer timer;
  std::vector<solver::TransportationCell> hint;
  if (retained) hint = remap_cells(warm_.busy, warm_.candidates, warm_.cells, problem);
  const solver::TransportationProblem t = to_transportation(problem);
  // Under warm_start the solver also consults/refreshes the retained basis:
  // if this instance differs from the previous one in cost cells only, it
  // re-optimizes from that basis (dirty-basis path) and ignores the flow
  // hint; otherwise the hint's cells seed a fresh least-cost start. A basis
  // adopted across a shape change is still primal-feasible: the dirty path
  // requires bit-identical supplies and capacities, which its flows meet.
  solver::TransportationResult solved =
      options_.warm_start
          ? solver::solve_transportation_dirty(t, warm_.basis,
                                               retained ? &hint : nullptr)
          : solver::solve_transportation(t);
  const auto report = [&](const solver::TransportationResult& solution) {
    result = PlacementResult{};
    result.status = solution.status;
    result.solver_iterations = solution.iterations;
    if (solution.optimal()) {
      result.objective = solution.objective;
      extract_assignments(problem, solution.cells, result);
    }
    result.solve_seconds = timer.seconds();
  };
  report(solved);
  if (solved.dirty_resolve) {
    ++warm_.dirty_resolves;
    metrics.dirty_resolves.inc();
  }
  // A remapped start is still a cold solve: the shape changed.
  const bool remapped_start = remap && !solved.dirty_resolve;
  if (remapped_start) {
    ++warm_.remapped_starts;
    metrics.remapped_starts.inc();
  }
  if (warm || solved.dirty_resolve) {
    ++warm_.warm_solves;
    metrics.warm_solves.inc();
    metrics.warm_solve_ms.observe(result.solve_seconds * 1e3);
  } else {
    ++warm_.cold_solves;
    metrics.cold_solves.inc();
    metrics.cold_solve_ms.observe(result.solve_seconds * 1e3);
  }

  if ((warm || solved.dirty_resolve || remapped_start) &&
      options_.verify_warm_start) {
    // Debug cross-check: a warm or remapped start may only change the pivot
    // path, never the optimum. Disagreement means a solver bug — count it
    // and trust the cold answer.
    solver::TransportationResult cold = solver::solve_transportation(t);
    const bool agree =
        cold.status == solved.status &&
        (!cold.optimal() ||
         std::abs(cold.objective - solved.objective) <=
             1e-6 * std::max(1.0, std::abs(cold.objective)));
    if (!agree) {
      metrics.warm_verify_mismatch.inc();
      warm_.basis.valid = false;  // the retained basis produced a wrong optimum
      report(cold);
      solved = std::move(cold);
    }
  }

  if (options_.warm_start && solved.optimal()) {
    warm_.busy = problem.busy;
    warm_.candidates = problem.candidates;
    warm_.cells = std::move(solved.cells);
    warm_.valid = true;
  } else {
    warm_.valid = false;
  }
  return result;
}

PlacementResult OptimizationEngine::solve_partial(
    const PlacementProblem& problem) const {
  if (options_.backend == SolverBackend::kMinCostFlow && !problem.heterogeneous())
    return solve_min_cost_flow(problem, false);
  // The most load placed, Σ x_ij = Σ y_ij / f_i (row weight 1/f_i), then the
  // least cost at that load, on the transportation form.
  PlacementResult result;
  util::Timer timer;
  const solver::TransportationProblem t = to_transportation(problem);
  std::vector<double> weight(t.sources(), 1.0);
  for (std::size_t bi = 0; bi < problem.busy_factor.size(); ++bi)
    weight[bi] = 1.0 / problem.busy_factor[bi];
  const solver::TransportationResult solved =
      solver::solve_transportation_partial(t, weight);
  result.status = solved.status;
  result.solver_iterations = solved.iterations;
  if (solved.optimal()) {
    result.objective = solved.objective;
    extract_assignments(problem, solved.cells, result);
    double placed = 0.0;
    for (const auto& [cell, flow] : solved.cells)
      placed += flow * weight[cell / t.destinations()];
    result.unplaced = std::max(0.0, problem.total_excess() - placed);
  }
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace dust::core
