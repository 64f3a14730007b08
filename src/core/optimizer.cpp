#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "solver/min_cost_flow.hpp"
#include "solver/simplex.hpp"
#include "solver/transportation.hpp"
#include "util/timer.hpp"

namespace dust::core {

namespace {

constexpr double kAmountEps = 1e-9;

solver::TransportationProblem to_transportation(const PlacementProblem& p) {
  solver::TransportationProblem t;
  t.supply = p.cs;
  t.capacity = p.cd;
  t.cost = p.trmin;
  return t;
}

void extract_assignments(const PlacementProblem& problem,
                         const std::vector<double>& flow,
                         PlacementResult& result) {
  const std::size_t n = problem.candidates.size();
  for (std::size_t bi = 0; bi < problem.busy.size(); ++bi) {
    for (std::size_t cj = 0; cj < n; ++cj) {
      const double amount = flow[bi * n + cj];
      if (amount <= kAmountEps) continue;
      result.assignments.push_back(Assignment{
          problem.busy[bi], problem.candidates[cj], amount,
          problem.trmin[bi * n + cj]});
    }
  }
}

// Generalized (heterogeneous) model: capacity rows carry the platform
// coefficient f_i / f_j. No longer a pure transportation problem, so it is
// solved with the general simplex regardless of the configured backend.
solver::LinearProgram to_general_lp(const PlacementProblem& p,
                                    bool supply_equality) {
  const std::size_t m = p.busy.size();
  const std::size_t n = p.candidates.size();
  solver::LinearProgram lp;
  for (std::size_t cell = 0; cell < m * n; ++cell) {
    if (p.trmin[cell] == solver::kInfinity)
      lp.add_variable(0.0, 0.0, 0.0);
    else
      lp.add_variable(0.0, solver::kInfinity, p.trmin[cell]);
  }
  for (std::size_t bi = 0; bi < m; ++bi) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t cj = 0; cj < n; ++cj) terms.emplace_back(bi * n + cj, 1.0);
    lp.add_constraint(std::move(terms),
                      supply_equality ? solver::Sense::kEqual
                                      : solver::Sense::kLessEqual,
                      p.cs[bi]);
  }
  for (std::size_t cj = 0; cj < n; ++cj) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t bi = 0; bi < m; ++bi)
      terms.emplace_back(bi * n + cj, p.capacity_coefficient(bi, cj));
    lp.add_constraint(std::move(terms), solver::Sense::kLessEqual, p.cd[cj]);
  }
  return lp;
}

PlacementResult solve_heterogeneous_exact(const PlacementProblem& problem) {
  PlacementResult result;
  util::Timer timer;
  const solver::LinearProgram lp = to_general_lp(problem, true);
  const solver::Solution s = solver::solve_simplex(lp);
  result.status = s.status;
  result.solver_iterations = s.iterations;
  if (s.optimal()) {
    result.objective = s.objective;
    extract_assignments(problem, s.values, result);
  }
  result.solve_seconds = timer.seconds();
  return result;
}

PlacementResult solve_heterogeneous_partial(const PlacementProblem& problem) {
  // Phase 1: maximize shipped load; phase 2: minimum cost at that level.
  PlacementResult result;
  util::Timer timer;
  const std::size_t total_vars = problem.busy.size() * problem.candidates.size();
  solver::LinearProgram max_ship = to_general_lp(problem, false);
  {
    // Overwrite objective: maximize Σ x == minimize -Σ x.
    solver::LinearProgram rebuilt;
    for (std::size_t v = 0; v < max_ship.variable_count(); ++v) {
      const solver::Variable& var = max_ship.variable(v);
      rebuilt.add_variable(var.lower, var.upper, -1.0);
    }
    for (std::size_t c = 0; c < max_ship.constraint_count(); ++c)
      rebuilt.add_constraint(max_ship.constraint(c));
    max_ship = std::move(rebuilt);
  }
  const solver::Solution ship = solver::solve_simplex(max_ship);
  if (!ship.optimal()) {
    result.status = ship.status;
    result.solve_seconds = timer.seconds();
    return result;
  }
  const double shipped = -ship.objective;
  solver::LinearProgram min_cost = to_general_lp(problem, false);
  std::vector<std::pair<std::size_t, double>> all;
  for (std::size_t v = 0; v < total_vars; ++v) all.emplace_back(v, 1.0);
  // Slight slack keeps the pinned total numerically feasible.
  min_cost.add_constraint(std::move(all), solver::Sense::kGreaterEqual,
                          shipped * (1.0 - 1e-9) - 1e-9);
  const solver::Solution s = solver::solve_simplex(min_cost);
  result.status = s.status;
  result.solver_iterations = ship.iterations + s.iterations;
  if (s.optimal()) {
    result.objective = s.objective;
    extract_assignments(problem, s.values, result);
    result.unplaced = std::max(0.0, problem.total_excess() - shipped);
  }
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace

const char* to_string(SolverBackend backend) noexcept {
  switch (backend) {
    case SolverBackend::kTransportation: return "transportation";
    case SolverBackend::kSimplex: return "simplex";
    case SolverBackend::kMinCostFlow: return "min-cost-flow";
  }
  return "?";
}

namespace {

// Engine-level solve metrics; per-backend detail (simplex iterations, the
// transportation start/pivot split) is recorded inside dust::solver itself.
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

// The retained optimum `flow` over `busy` x `candidates`, moved onto the
// problem's busy x candidates grid by node id: rows and columns whose node
// is in both cycles' sets keep their flows, new ones get none. Neither
// cycle's sets need be sorted.
std::vector<double> remap_flow(const std::vector<graph::NodeId>& busy,
                               const std::vector<graph::NodeId>& candidates,
                               const std::vector<double>& flow,
                               const PlacementProblem& problem) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  graph::NodeId max_node = 0;
  for (graph::NodeId b : busy) max_node = std::max(max_node, b);
  for (graph::NodeId o : candidates) max_node = std::max(max_node, o);
  std::vector<std::size_t> old_row(static_cast<std::size_t>(max_node) + 1, kNone);
  std::vector<std::size_t> old_col(static_cast<std::size_t>(max_node) + 1, kNone);
  for (std::size_t bi = 0; bi < busy.size(); ++bi) old_row[busy[bi]] = bi;
  for (std::size_t cj = 0; cj < candidates.size(); ++cj)
    old_col[candidates[cj]] = cj;
  const std::size_t n = problem.candidates.size();
  std::vector<std::size_t> col_of(n);  // new column -> old column
  for (std::size_t cj = 0; cj < n; ++cj) {
    const graph::NodeId o = problem.candidates[cj];
    col_of[cj] = o <= max_node ? old_col[o] : kNone;
  }
  std::vector<double> remapped(problem.busy.size() * n, 0.0);
  for (std::size_t bi = 0; bi < problem.busy.size(); ++bi) {
    const graph::NodeId b = problem.busy[bi];
    const std::size_t row = b <= max_node ? old_row[b] : kNone;
    if (row == kNone) continue;
    const double* from = flow.data() + row * candidates.size();
    double* to = remapped.data() + bi * n;
    for (std::size_t cj = 0; cj < n; ++cj)
      if (col_of[cj] != kNone) to[cj] = from[col_of[cj]];
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
  if (problem.heterogeneous()) return solve_heterogeneous_exact(problem);
  PlacementResult result;
  util::Timer timer;
  switch (options_.backend) {
    case SolverBackend::kTransportation:
      return solve_transportation_backend(problem);
    case SolverBackend::kSimplex: {
      const solver::LinearProgram lp =
          solver::to_linear_program(to_transportation(problem));
      const solver::Solution s = solver::solve_simplex(lp);
      result.status = s.status;
      result.solver_iterations = s.iterations;
      if (s.optimal()) {
        result.objective = s.objective;
        extract_assignments(problem, s.values, result);
      }
      break;
    }
    case SolverBackend::kMinCostFlow: {
      // Exact solve via MCMF: feasible iff max-flow == ΣCs over finite arcs.
      const std::size_t m = problem.busy.size();
      const std::size_t n = problem.candidates.size();
      solver::MinCostFlow mcf(m + n + 2);
      const std::size_t source = m + n;
      const std::size_t sink = m + n + 1;
      for (std::size_t bi = 0; bi < m; ++bi)
        mcf.add_arc(source, bi, problem.cs[bi], 0.0);
      std::vector<std::size_t> arc_of(m * n, static_cast<std::size_t>(-1));
      for (std::size_t bi = 0; bi < m; ++bi)
        for (std::size_t cj = 0; cj < n; ++cj)
          if (problem.trmin[bi * n + cj] != solver::kInfinity)
            arc_of[bi * n + cj] = mcf.add_arc(bi, m + cj, solver::kInfinity,
                                              problem.trmin[bi * n + cj]);
      for (std::size_t cj = 0; cj < n; ++cj)
        mcf.add_arc(m + cj, sink, problem.cd[cj], 0.0);
      const solver::MinCostFlow::FlowResult f = mcf.solve(source, sink);
      result.solver_iterations = f.augmentations;
      if (f.max_flow + 1e-6 < problem.total_excess()) {
        result.status = solver::Status::kInfeasible;
        break;
      }
      result.status = solver::Status::kOptimal;
      result.objective = f.total_cost;
      std::vector<double> flow(m * n, 0.0);
      for (std::size_t cell = 0; cell < m * n; ++cell)
        if (arc_of[cell] != static_cast<std::size_t>(-1))
          flow[cell] = mcf.arc_flow(arc_of[cell]);
      extract_assignments(problem, flow, result);
      break;
    }
  }
  result.solve_seconds = timer.seconds();
  return result;
}

PlacementResult OptimizationEngine::solve_transportation_backend(
    const PlacementProblem& problem) const {
  EngineMetrics& metrics = EngineMetrics::get();
  const std::size_t cells = problem.busy.size() * problem.candidates.size();
  const bool shape_matches = warm_.valid && warm_.flow.size() == cells &&
                             warm_.busy == problem.busy &&
                             warm_.candidates == problem.candidates;
  const bool warm = options_.warm_start && shape_matches;
  PlacementResult result;
  util::Timer timer;
  // Across churn the retained optimum still holds the flows between nodes
  // both cycles share: remapped by node id, it seeds the start instead.
  const bool remap = options_.warm_start && warm_.valid && !shape_matches;
  std::vector<double> remapped;
  if (remap)
    remapped = remap_flow(warm_.busy, warm_.candidates, warm_.flow, problem);
  const solver::TransportationProblem t = to_transportation(problem);
  // Under warm_start the solver also consults/refreshes the retained basis:
  // if this instance differs from the previous one in cost cells only, it
  // re-optimizes from that basis (dirty-basis path) and ignores the flow
  // hint; otherwise the flow hint seeds a fresh least-cost start. A basis
  // adopted across a shape change is still primal-feasible: the dirty path
  // requires bit-identical supplies and capacities, which its flows meet.
  solver::TransportationResult solved =
      options_.warm_start
          ? solver::solve_transportation_dirty(
                t, warm_.basis, warm ? &warm_.flow : remap ? &remapped : nullptr)
          : solver::solve_transportation(t);
  result.status = solved.status;
  result.solver_iterations = solved.iterations;
  if (solved.optimal()) {
    result.objective = solved.objective;
    extract_assignments(problem, solved.flow, result);
  }
  result.solve_seconds = timer.seconds();
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
      result = PlacementResult{};
      result.status = cold.status;
      result.solver_iterations = cold.iterations;
      if (cold.optimal()) {
        result.objective = cold.objective;
        extract_assignments(problem, cold.flow, result);
      }
      result.solve_seconds = timer.seconds();
      solved = std::move(cold);
    }
  }

  if (options_.warm_start && solved.optimal()) {
    warm_.busy = problem.busy;
    warm_.candidates = problem.candidates;
    warm_.flow = std::move(solved.flow);
    warm_.valid = true;
  } else {
    warm_.valid = false;
  }
  return result;
}

PlacementResult OptimizationEngine::solve_partial(
    const PlacementProblem& problem) const {
  if (problem.heterogeneous()) return solve_heterogeneous_partial(problem);
  // Min-cost max-offload: ship as much of ΣCs as the reachable capacity
  // allows, at minimum cost; the remainder is reported as unplaced.
  PlacementResult result;
  util::Timer timer;
  const std::size_t m = problem.busy.size();
  const std::size_t n = problem.candidates.size();
  solver::MinCostFlow mcf(m + n + 2);
  const std::size_t source = m + n;
  const std::size_t sink = m + n + 1;
  for (std::size_t bi = 0; bi < m; ++bi)
    mcf.add_arc(source, bi, problem.cs[bi], 0.0);
  std::vector<std::size_t> arc_of(m * n, static_cast<std::size_t>(-1));
  for (std::size_t bi = 0; bi < m; ++bi)
    for (std::size_t cj = 0; cj < n; ++cj)
      if (problem.trmin[bi * n + cj] != solver::kInfinity)
        arc_of[bi * n + cj] = mcf.add_arc(bi, m + cj, solver::kInfinity,
                                          problem.trmin[bi * n + cj]);
  for (std::size_t cj = 0; cj < n; ++cj)
    mcf.add_arc(m + cj, sink, problem.cd[cj], 0.0);
  const solver::MinCostFlow::FlowResult f = mcf.solve(source, sink);
  result.solver_iterations = f.augmentations;
  result.status = solver::Status::kOptimal;
  result.objective = f.total_cost;
  result.unplaced = std::max(0.0, problem.total_excess() - f.max_flow);
  std::vector<double> flow(m * n, 0.0);
  for (std::size_t cell = 0; cell < m * n; ++cell)
    if (arc_of[cell] != static_cast<std::size_t>(-1))
      flow[cell] = mcf.arc_flow(arc_of[cell]);
  extract_assignments(problem, flow, result);
  result.solve_seconds = timer.seconds();
  return result;
}

}  // namespace dust::core
