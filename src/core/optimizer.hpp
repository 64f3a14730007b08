// Optimization engine: solves the placement model (paper Eq. 3) with a
// choice of exact backends, plus a partial-offload fallback for infeasible
// instances (documented extension — the paper reports such instances as
// "infeasible optimization", Fig. 7). Platform factors are rescaled away
// (to_transportation), so every exact solve, heterogeneous or not, is a
// pure transportation problem for the same two backends. The partial
// fallback runs on the transportation solver too
// (solver::solve_transportation_partial, row weights 1/f_i); only
// kMinCostFlow keeps its own successive-shortest-paths partial, on
// homogeneous problems, so the two backends stay independent cross-checks.
#pragma once

#include "core/placement.hpp"
#include "solver/transportation.hpp"

namespace dust::core {

enum class SolverBackend {
  kTransportation,  ///< dedicated transportation simplex (default, fastest)
  kMinCostFlow,     ///< successive-shortest-paths on the bipartite graph
};

[[nodiscard]] const char* to_string(SolverBackend backend) noexcept;

/// The model as a pure transportation problem. With y_ij = f_i·x_ij (f busy
/// and g candidate platform factors) the factor-weighted capacity rows
/// Σ_i (f_i/g_j)·x_ij ≤ Cd_j become Σ_i y_ij ≤ g_j·Cd_j, so supply'_i =
/// f_i·Cs_i, capacity'_j = g_j·Cd_j and cost'_ij = Trmin_ij / f_i; a flow y
/// maps back to x_ij = y_ij / f_i at the same objective. On a homogeneous
/// problem this is the identity, bit for bit.
[[nodiscard]] solver::TransportationProblem to_transportation(
    const PlacementProblem& problem);

struct OptimizerOptions {
  PlacementOptions placement;
  SolverBackend backend = SolverBackend::kTransportation;
  /// If the exact model is infeasible (ΣCs > reachable ΣCd), fall back to
  /// the cheapest placement of the most load that fits and report the
  /// remainder in `unplaced`.
  bool allow_partial = false;
  /// Incremental pipeline (DESIGN.md §8): retain the previous cycle's
  /// optimal cells and use them to seed the next solve's starting basis.
  /// When the busy/candidate sets changed, the cells are first remapped onto
  /// the new sets by node id (nodes in both cycles keep their rows and columns,
  /// new ones start empty). Additionally retains the simplex basis itself:
  /// when only cost cells changed since the previous solve (supplies and
  /// capacities bit-identical — the common steady-state case where links
  /// churn but node loads hold), MODI resumes from the old basis directly
  /// instead of rebuilding an initial solution (dirty-basis re-solve,
  /// DESIGN.md §13).
  /// kTransportation only; other backends always solve cold.
  /// Makes the engine stateful across solve() calls — keep one engine per
  /// control loop (or per thread) rather than sharing an instance.
  bool warm_start = false;
  /// Debug cross-check: after every warm-started, dirty or remapped solve,
  /// also solve cold and compare objectives; on disagreement count it and
  /// return the cold result. Costs a full extra solve per cycle —
  /// tests/debugging only.
  bool verify_warm_start = false;
};

class OptimizationEngine {
 public:
  explicit OptimizationEngine(OptimizerOptions options = {})
      : options_(options) {}

  [[nodiscard]] const OptimizerOptions& options() const noexcept {
    return options_;
  }

  /// Build the model from the NMDB snapshot and solve it.
  [[nodiscard]] PlacementResult run(const Nmdb& nmdb) const;

  /// Same, but also hands the built model back to the caller (the
  /// dust::check harness re-checks the result against the exact problem the
  /// engine solved). `problem_out` may be null.
  [[nodiscard]] PlacementResult run(const Nmdb& nmdb,
                                    PlacementProblem* problem_out) const;

  /// Solve an already-built model (timing excludes the build phase).
  [[nodiscard]] PlacementResult solve(const PlacementProblem& problem) const;

  /// Warm solves since construction (shape matched and the previous flow
  /// seeded the basis) — observable for tests and benches. Every other
  /// solve counts as cold, remapped starts included.
  [[nodiscard]] std::size_t warm_solves() const noexcept {
    return warm_.warm_solves;
  }
  [[nodiscard]] std::size_t cold_solves() const noexcept {
    return warm_.cold_solves;
  }
  /// Warm solves that took the dirty-basis fast path (only costs changed;
  /// MODI resumed from the retained basis with no initial-solution build).
  [[nodiscard]] std::size_t dirty_resolves() const noexcept {
    return warm_.dirty_resolves;
  }
  /// Cold solves whose start was seeded from the previous optimum remapped
  /// by node id onto changed busy/candidate sets.
  [[nodiscard]] std::size_t remapped_starts() const noexcept {
    return warm_.remapped_starts;
  }
  /// Drop the retained flow and basis (next solve is cold).
  void reset_warm_state() const noexcept {
    warm_.valid = false;
    warm_.basis.valid = false;
  }

 private:
  [[nodiscard]] PlacementResult solve_exact(const PlacementProblem& problem) const;
  [[nodiscard]] PlacementResult solve_partial(const PlacementProblem& problem) const;
  [[nodiscard]] PlacementResult solve_transportation_backend(
      const PlacementProblem& problem) const;

  /// Previous cycle's optimum + the shape it was solved under.
  /// `mutable` so the const solve path can maintain it; guarded by the
  /// warm_start contract above (one engine per control loop).
  struct WarmState {
    bool valid = false;
    std::vector<graph::NodeId> busy;
    std::vector<graph::NodeId> candidates;
    std::vector<solver::TransportationCell> cells;  ///< busy x candidates grid
    /// Retained simplex basis for cost-only re-solves; validity is managed
    /// by the solver (refreshed on optimal exits, dropped on mismatch).
    solver::TransportationBasis basis;
    std::size_t warm_solves = 0;
    std::size_t cold_solves = 0;
    std::size_t dirty_resolves = 0;
    std::size_t remapped_starts = 0;
  };

  OptimizerOptions options_;
  mutable WarmState warm_;
};

}  // namespace dust::core
