#include "check/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "check/simplex.hpp"
#include "net/response_cache.hpp"
#include "solver/exhaustive.hpp"
#include "solver/transportation.hpp"
#include "util/rng.hpp"

namespace dust::check {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

bool objectives_agree(double a, double b, double tolerance) {
  if (a == b) return true;  // covers the inf == inf (forbidden cell) case
  return std::abs(a - b) <= tolerance * std::max({1.0, std::abs(a),
                                                  std::abs(b)});
}

// Compact instance dump appended to O1/O2 violations so a disagreement is
// reproducible straight from the failure message (the oracle only runs on
// problems up to max_cells, so this stays small).
std::string describe_instance(const core::PlacementProblem& p) {
  std::ostringstream os;
  os.precision(17);
  os << " [cs:";
  for (double v : p.cs) os << ' ' << v;
  os << " | cd:";
  for (double v : p.cd) os << ' ' << v;
  os << " | trmin:";
  for (double v : p.trmin) os << ' ' << v;
  os << " | busy factors:";
  for (double v : p.busy_factor) os << ' ' << v;
  os << " | candidate factors:";
  for (double v : p.candidate_factor) os << ' ' << v;
  os << ']';
  return os.str();
}

}  // namespace

std::vector<Violation> cross_check_solvers(const core::PlacementProblem& problem,
                                           const OracleOptions& options) {
  std::vector<Violation> out;
  const std::size_t cells = problem.busy.size() * problem.candidates.size();
  if (!options.check_solvers || problem.busy.empty() ||
      problem.candidates.empty() || cells > options.max_cells)
    return out;

  // Both engine backends solve the rescaled transportation form; the
  // general simplex solves it as an LP.
  const solver::TransportationProblem t = core::to_transportation(problem);
  struct Run {
    const char* name;
    solver::Status status;
    double objective;
  };
  std::vector<Run> runs;
  for (core::SolverBackend backend :
       {core::SolverBackend::kTransportation, core::SolverBackend::kMinCostFlow}) {
    core::OptimizerOptions opt;
    opt.backend = backend;
    const core::PlacementResult r = core::OptimizationEngine(opt).solve(problem);
    runs.push_back({core::to_string(backend), r.status, r.objective});
  }
  const Solution simplex = solve_simplex(to_linear_program(t));
  runs.push_back({"simplex", simplex.status, simplex.objective});
  const Run& reference = runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const Run& other = runs[r];
    if (other.status != reference.status) {
      out.push_back({"O1-solver-agreement",
                     std::string(other.name) + " status differs from " +
                         reference.name + describe_instance(problem)});
      continue;
    }
    if (reference.status == solver::Status::kOptimal &&
        !objectives_agree(other.objective, reference.objective,
                          options.tolerance))
      out.push_back({"O1-solver-agreement",
                     std::string(other.name) + " objective " +
                         fmt(other.objective) + " != " + reference.name + " " +
                         fmt(reference.objective)});
  }

  if (solver::exhaustive_base_count(t) <= options.max_exhaustive_bases) {
    const solver::TransportationResult truth =
        solver::solve_transportation_exhaustive(
            t, options.max_exhaustive_bases + 1);
    if (truth.status != reference.status)
      out.push_back({"O2-exhaustive", "brute-force verdict differs from " +
                                          std::string(reference.name)});
    else if (truth.optimal() &&
             !objectives_agree(truth.objective, reference.objective,
                               options.tolerance))
      out.push_back({"O2-exhaustive",
                     "brute-force optimum " + fmt(truth.objective) + " != " +
                         fmt(reference.objective)});
  }
  return out;
}

std::vector<Violation> cross_check_nmdb(const core::Nmdb& nmdb,
                                        const core::PlacementOptions& placement,
                                        const OracleOptions& options) {
  std::vector<Violation> out;

  core::PlacementOptions fresh_options = placement;
  fresh_options.response_cache = nullptr;
  const core::PlacementProblem fresh =
      core::build_placement_problem(nmdb, fresh_options);

  // O4: the cache must serve the exact rows a fresh build computes, both on
  // the miss path (first build) and the hit path (second build, no link
  // moved in between).
  if (options.check_cache) {
    core::Nmdb copy = nmdb;  // begin_cycle snapshots links (mutating)
    net::ResponseTimeCache cache;
    core::PlacementOptions cached_options = placement;
    cached_options.response_cache = &cache;
    for (int pass = 0; pass < 2; ++pass) {
      cache.begin_cycle(copy.network());
      const core::PlacementProblem cached =
          core::build_placement_problem(copy, cached_options);
      if (cached.busy != fresh.busy || cached.candidates != fresh.candidates) {
        out.push_back({"O4-trmin-cache",
                       "cached build produced different busy/candidate sets"});
        break;
      }
      bool mismatch = false;
      for (std::size_t cell = 0; cell < fresh.trmin.size(); ++cell) {
        if (!objectives_agree(cached.trmin[cell], fresh.trmin[cell],
                              options.tolerance)) {
          mismatch = true;
          out.push_back({"O4-trmin-cache",
                         std::string(pass == 0 ? "miss" : "hit") +
                             "-path Trmin cell " + std::to_string(cell) +
                             ": cached " + fmt(cached.trmin[cell]) +
                             " vs fresh " + fmt(fresh.trmin[cell])});
          break;
        }
      }
      if (mismatch) break;
    }
  }

  // O3: warm-started re-solve of the identical problem must land on the
  // cold objective (warm hints change the pivot path, never the optimum).
  if (options.check_warm_start && !fresh.busy.empty()) {
    core::OptimizerOptions cold_opt;
    const core::OptimizationEngine cold_engine(cold_opt);
    const core::PlacementResult cold = cold_engine.solve(fresh);

    core::OptimizerOptions warm_opt;
    warm_opt.warm_start = true;
    const core::OptimizationEngine warm_engine(warm_opt);
    (void)warm_engine.solve(fresh);  // prime the warm state
    const core::PlacementResult warm = warm_engine.solve(fresh);
    // Only an optimal prime retains warm state; infeasible solves cold twice.
    if (cold.optimal() && warm_engine.warm_solves() == 0)
      out.push_back({"O3-warm-vs-cold",
                     "identical re-solve did not take the warm path"});
    if (warm.status != cold.status)
      out.push_back({"O3-warm-vs-cold", "warm re-solve verdict differs"});
    else if (cold.optimal() &&
             !objectives_agree(warm.objective, cold.objective,
                               options.tolerance))
      out.push_back({"O3-warm-vs-cold",
                     "warm objective " + fmt(warm.objective) + " != cold " +
                         fmt(cold.objective)});
  }

  // O6: dirty-basis re-solve. Replay a fuzzed schedule of cost-cell
  // perturbations against one persistent basis: every re-solve from the
  // retained basis must reproduce the cold solve's verdict and objective
  // (and the exhaustive ground truth when the instance is small enough to
  // enumerate). Supplies/capacities never move here, so after the priming
  // solve every step is eligible for the fast path — a step that silently
  // fell back would hide the very code under test, so that is flagged too.
  if (options.check_dirty_basis && !fresh.busy.empty() &&
      !fresh.candidates.empty()) {
    solver::TransportationProblem t = core::to_transportation(fresh);
    solver::TransportationBasis basis;
    const solver::TransportationResult primed =
        solver::solve_transportation_dirty(t, basis);
    util::Rng rng(options.dirty_basis_seed);
    const std::size_t cells = t.cost.size();
    for (std::size_t step = 0;
         primed.optimal() && step < options.dirty_basis_steps; ++step) {
      // Mostly small drift, one in five a large burst — and leave forbidden
      // cells forbidden (their big-M handling is part of what's checked).
      const std::size_t touches =
          1 + rng.below(std::max<std::size_t>(1, cells / 4));
      for (std::size_t k = 0; k < touches; ++k) {
        const std::size_t cell = rng.below(cells);
        if (t.cost[cell] == solver::kInfinity) continue;
        const double factor = rng.below(5) == 0 ? rng.uniform(0.3, 3.0)
                                                : rng.uniform(0.9, 1.1);
        t.cost[cell] = std::max(1e-9, t.cost[cell] * factor);
      }
      const solver::TransportationResult dirty =
          solver::solve_transportation_dirty(t, basis);
      const solver::TransportationResult cold = solver::solve_transportation(t);
      if (basis.valid && !dirty.dirty_resolve) {
        out.push_back({"O6-dirty-basis",
                       "step " + std::to_string(step) +
                           ": cost-only change did not take the dirty path"});
        break;
      }
      if (dirty.status != cold.status) {
        out.push_back({"O6-dirty-basis",
                       "step " + std::to_string(step) +
                           ": dirty verdict differs from cold"});
        break;
      }
      if (cold.optimal() && !objectives_agree(dirty.objective, cold.objective,
                                              options.tolerance)) {
        out.push_back({"O6-dirty-basis",
                       "step " + std::to_string(step) + ": dirty objective " +
                           fmt(dirty.objective) + " != cold " +
                           fmt(cold.objective)});
        break;
      }
      if (solver::exhaustive_base_count(t) <= options.max_exhaustive_bases) {
        const solver::TransportationResult truth =
            solver::solve_transportation_exhaustive(
                t, options.max_exhaustive_bases + 1);
        if (truth.status != dirty.status ||
            (truth.optimal() &&
             !objectives_agree(truth.objective, dirty.objective,
                               options.tolerance))) {
          out.push_back({"O6-dirty-basis",
                         "step " + std::to_string(step) +
                             ": dirty result differs from exhaustive optimum " +
                             fmt(truth.objective)});
          break;
        }
      }
    }
  }

  // O5: heuristic soundness. HFR is a rate: Cse and Cs must be nonnegative
  // and Cse ≤ Cs. When the greedy completes, its placement is a feasible
  // point of the exact model (radius 1 ≤ max_hops; same capacities), so the
  // exact model must be feasible with objective ≤ the heuristic's. The
  // converse — exact-feasible implies HFR = 0 — is NOT sound (the greedy can
  // strand shared neighbour capacity) and is deliberately not checked.
  if (options.check_heuristic && nmdb.homogeneous()) {
    const core::HeuristicEngine heuristic;
    const core::HeuristicResult h = heuristic.run(nmdb);
    if (h.total_cse < -options.tolerance || h.total_cs < -options.tolerance ||
        h.total_cse > h.total_cs + options.tolerance)
      out.push_back({"O5-heuristic", "HFR components out of range: Cse " +
                                         fmt(h.total_cse) + ", Cs " +
                                         fmt(h.total_cs)});
    if (h.hfr_percent() < 0.0 || h.hfr_percent() > 100.0 + options.tolerance)
      out.push_back(
          {"O5-heuristic", "HFR " + fmt(h.hfr_percent()) + " out of [0,100]"});
    if (h.complete() && h.total_cs > options.tolerance &&
        !fresh.busy.empty()) {
      core::OptimizerOptions exact_opt;
      const core::OptimizationEngine exact_engine(exact_opt);
      const core::PlacementResult exact = exact_engine.solve(fresh);
      if (!exact.optimal())
        out.push_back({"O5-heuristic",
                       "heuristic placed everything but the exact model is " +
                           std::string(solver::to_string(exact.status))});
      else if (exact.objective > h.objective + options.tolerance *
                                                   std::max(1.0, h.objective))
        out.push_back({"O5-heuristic",
                       "exact optimum " + fmt(exact.objective) +
                           " exceeds complete-heuristic objective " +
                           fmt(h.objective)});
    }
  }
  return out;
}

}  // namespace dust::check
