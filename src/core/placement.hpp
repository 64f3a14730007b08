// Monitoring placement problem (paper §IV): builds the min-cost offload
// model from the NMDB snapshot — busy set V_b, candidate set V_o, excess
// loads Cs_i, spare capacities Cd_j, and the Trmin(i,j) matrix from the
// Eq. 1-2 response-time evaluation over hop-bounded controllable routes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/nmdb.hpp"
#include "net/response_cache.hpp"
#include "net/response_time.hpp"
#include "solver/status.hpp"

namespace dust::core {

struct PlacementOptions {
  /// Max-hop bound on controllable routes (0 = unbounded).
  std::uint32_t max_hops = 0;
  /// Trmin evaluator (net/response_time.hpp). The shared frontier is exact
  /// and cheap at any bound; kEnumerate is the paper's exhaustive route
  /// walk, for reproducing its runtime figures with a hop bound.
  net::EvaluatorMode evaluator = net::EvaluatorMode::kSharedFrontier;
  /// Safety cap per source in enumerate mode (0 = none).
  std::size_t max_paths_per_source = 0;
  /// Workers for the Trmin row fill: 1 (the default) fills rows serially on
  /// the calling thread and never touches util::global_pool(); 0 uses the
  /// whole pool; N uses at most N pool workers. A parallel fill splits the
  /// busy rows into chunks claimed by pool workers
  /// (util::ThreadPool::parallel_for_chunks), each reusing its own
  /// thread_local evaluation scratch; placements are bit-identical to the
  /// serial fill at any worker count (rows are disjoint; per-chunk work
  /// tallies are reduced serially in chunk order). The pool itself is sized
  /// once at first use via DUST_THREADS or util::global_pool's argument.
  std::size_t solver_threads = 1;
  /// Incremental pipeline (DESIGN.md §8): when set, Trmin rows are served
  /// from / recorded into this dirty-aware cache instead of evaluated from
  /// scratch. The caller owns the cache and must call begin_cycle() on it
  /// before each build. Null = always evaluate fresh (the default).
  net::ResponseTimeCache* response_cache = nullptr;
  /// Trust-weighted placement (DESIGN.md §14): candidates with
  /// Nmdb::trust below `trust_exclude_below` are dropped from V_o, and the
  /// Trmin column of every remaining candidate j is multiplied by
  ///   w_j = 1 + trust_cost_penalty * (1 - trust_j)
  /// after the row fill (the cache keeps unweighted rows, so toggling trust
  /// never pollutes it). w_j is exactly 1.0 at trust 1.0, so a fully trusted
  /// fleet builds a bit-identical problem with weighting on or off. A
  /// DustManager with weighting on also keeps the trust scores up to date
  /// and applies the same threshold to replica selection and eviction.
  bool trust_weighting = false;
  double trust_cost_penalty = 4.0;
  double trust_exclude_below = 0.5;
};

/// The built model, ready for any backend in optimizer.hpp.
struct PlacementProblem {
  std::vector<graph::NodeId> busy;        ///< V_b
  std::vector<graph::NodeId> candidates;  ///< V_o
  std::vector<double> cs;                 ///< Cs_i, aligned with busy
  std::vector<double> cd;                 ///< Cd_j, aligned with candidates
  /// Trmin seconds, row-major busy x candidates; kInfinity = no route
  /// within the hop bound.
  std::vector<double> trmin;
  /// Platform capacity factors (heterogeneity extension): a unit of load
  /// from busy i consumes busy_factor[i]/candidate_factor[j] units of
  /// destination j's capacity. All 1.0 under the paper's homogeneity
  /// assumption.
  std::vector<double> busy_factor;
  std::vector<double> candidate_factor;
  std::size_t paths_explored = 0;  ///< total enumeration work (Figs 8/10)
  bool truncated = false;          ///< a source hit max_paths_per_source

  [[nodiscard]] double trmin_at(std::size_t bi, std::size_t cj) const {
    return trmin.at(bi * candidates.size() + cj);
  }
  /// Destination capacity consumed per unit of load shipped from bi to cj.
  /// Problems built by hand may leave the factor vectors empty (homogeneous).
  [[nodiscard]] double capacity_coefficient(std::size_t bi,
                                            std::size_t cj) const {
    const double from = busy_factor.empty() ? 1.0 : busy_factor.at(bi);
    const double to = candidate_factor.empty() ? 1.0 : candidate_factor.at(cj);
    return from / to;
  }
  [[nodiscard]] bool heterogeneous() const noexcept;
  [[nodiscard]] double total_excess() const;
  [[nodiscard]] double total_spare() const;
};

PlacementProblem build_placement_problem(const Nmdb& nmdb,
                                         const PlacementOptions& options);

/// One flow of offloaded load: `amount` capacity-percent from a busy node to
/// a destination, at unit cost `trmin_seconds`.
struct Assignment {
  graph::NodeId from = graph::kInvalidNode;
  graph::NodeId to = graph::kInvalidNode;
  double amount = 0.0;
  double trmin_seconds = 0.0;
};

struct PlacementResult {
  solver::Status status = solver::Status::kInfeasible;
  double objective = 0.0;  ///< β = Σ x_ij · Trmin(i,j)
  std::vector<Assignment> assignments;
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  std::size_t paths_explored = 0;
  std::size_t solver_iterations = 0;
  /// Load that could not be placed (only nonzero for partial-mode solves).
  double unplaced = 0.0;

  [[nodiscard]] bool optimal() const noexcept {
    return status == solver::Status::kOptimal;
  }
  [[nodiscard]] double offloaded_total() const;
  /// Amount shed by one busy node across all its assignments.
  [[nodiscard]] double offloaded_from(graph::NodeId node) const;
  /// Amount absorbed by one destination.
  [[nodiscard]] double absorbed_by(graph::NodeId node) const;
};

/// Check a result against the problem's constraints (3a/3b); returns the
/// maximum violation (0 = feasible). Used by tests and the orchestrator.
double placement_violation(const PlacementProblem& problem,
                           const PlacementResult& result);

/// What-if: apply a plan to the NMDB's utilization state — each origin
/// drops by its shipped amount, each destination rises by the
/// platform-factor-weighted amount. This is the network state the manager
/// expects after the offload completes; the invariant (tested) is that no
/// destination crosses COmax and every fully-shed origin lands at Cmax.
void apply_assignments(Nmdb& nmdb, std::span<const Assignment> plan);

}  // namespace dust::core
