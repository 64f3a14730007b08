// Specialized transportation-problem solver (least-cost start + MODI on a
// spanning-tree basis, DESIGN.md §13). The start takes cells in one total
// (warm, real rows before the slack row, cost, cell) order: an O(mn) radix
// sort of the real cells, then the slack row in index order; under a warm
// hint it sorts only the warm cells and then the real cells still open. A
// pivot re-derives potentials only for the subtree it moved, and block
// search prices about sqrt(mn) cells from where the last search stopped.
// One branch-free scan validates the costs and finds big-M; the optimum
// comes back as the real rows' basic cells and the optimal potentials.
//
// Once Trmin(i,j) is known, DUST's placement LP (Eq. 3) *is* a transportation
// problem: supplies Cs_i that must ship fully, destination capacities Cd_j,
// unit costs Trmin(i,j). This solver is the engine's default backend, for
// exact and partial solves; the general simplex in dust::check
// (check/simplex.hpp) solves the same model as an LP to cross-check it.
//
// Forbidden cells (no path within max-hop) carry cost = kInfinity; they are
// handled via big-M internally and reported as infeasible if the optimum
// would need them.
//
// Every solve that reaches the simplex records its two phases and its pivot
// count in the global obs registry: dust_solver_start_ms (the initial
// basis), dust_solver_pivot_ms (the pivot loop) and dust_solver_pivots;
// dust_solver_bland_fallbacks_total counts solves that fell back to Bland.
//
// A solve still pivoting at 2(m+n) on a problem with a forbidden cell is
// checked once for plain feasibility: phase 1 of a partial solve with unit
// weights, the largest shipment over the allowed cells. It reports
// kInfeasible if the supply cannot ship at all; otherwise the solve starts
// over from the same start with its full budget, retracing the same pivots,
// and reports kIterationLimit if it spends that budget.
// Each calling thread keeps its largest cost grid so far, reusing it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "solver/status.hpp"

namespace dust::solver {

struct TransportationProblem {
  std::vector<double> supply;    ///< Cs_i — must be shipped in full
  std::vector<double> capacity;  ///< Cd_j — per-destination limit
  std::vector<double> cost;      ///< row-major m*n; kInfinity = forbidden

  [[nodiscard]] std::size_t sources() const noexcept { return supply.size(); }
  [[nodiscard]] std::size_t destinations() const noexcept {
    return capacity.size();
  }
};

/// One cell of a basis: its row-major index i*n + j and its flow.
struct TransportationCell {
  std::size_t index = 0;
  double flow = 0.0;
};

struct TransportationResult {
  Status status = Status::kInfeasible;
  double objective = 0.0;
  /// The optimum: the real rows' basic cells in index order (some may carry
  /// zero flow); every other cell carries none. Empty unless optimal.
  std::vector<TransportationCell> cells;
  /// The optimal potentials: u_i for the m rows, then v_j at m + j for the
  /// n columns, with c_ij - u_i - v_j zero on basic cells and (to the pivot
  /// tolerance) non-negative elsewhere, forbidden cells priced at big-M.
  /// Empty unless optimal, and when nothing ships (no simplex ran).
  std::vector<double> potentials;
  std::size_t iterations = 0;
  /// True when the solve re-optimized from a retained basis (dirty-basis
  /// path) instead of building an initial solution from scratch.
  bool dirty_resolve = false;

  [[nodiscard]] bool optimal() const noexcept { return status == Status::kOptimal; }
};

/// `warm`, when given, lists cells of an earlier optimum on this grid, in
/// any order (typically the previous placement cycle's `cells`, remapped by
/// node id when the sets changed). Those with flow above 1e-9 that lie on
/// the grid and are allowed here are allocated first when building the
/// initial basic solution, which leaves MODI with near-zero pivots under
/// small cost/quantity perturbations. The hint only biases the starting
/// basis — any hint (even a wrong one) still converges to the exact optimum.
TransportationResult solve_transportation(
    const TransportationProblem& problem,
    const std::vector<TransportationCell>* warm = nullptr);

/// Retained simplex state for dirty-basis re-solves (DESIGN.md §13): the
/// balanced instance's basis tree — its m+n-1 basic cells and their flows —
/// as it stood at the end of an optimal solve. Treat the contents as opaque;
/// default-construct once and hand the same object to successive
/// solve_transportation_dirty calls.
struct TransportationBasis {
  bool valid = false;
  std::size_t m = 0;  ///< balanced rows (includes the dummy row if present)
  std::size_t n = 0;
  std::vector<double> supply;  ///< balanced quantities the basis solved under
  std::vector<double> demand;
  std::vector<TransportationCell> cells;  ///< the tree's m+n-1 cells, balanced grid
};

/// Dirty-basis re-solve: when `basis` holds the previous solve's state and
/// this problem differs from that one in *cost cells only* (same shape, same
/// supplies, same destination capacities), MODI resumes directly from the
/// retained basis — the old basic flows stay primal-feasible under any cost
/// change, so only the potentials move and re-optimization takes near-zero
/// pivots when few cells changed. `result.dirty_resolve` reports whether the
/// fast path was taken. Any mismatch (quantities moved, shape changed, basis
/// not yet populated) falls back transparently: `warm` is used as a start
/// hint exactly as in solve_transportation. On every optimal exit the basis
/// is refreshed for the next call; on failure it is invalidated.
TransportationResult solve_transportation_dirty(
    const TransportationProblem& problem, TransportationBasis& basis,
    const std::vector<TransportationCell>* warm = nullptr);

/// The least-cost start's order: `*cells`, indices into `cost` (no NaN at
/// them), sorted by (cost, position in `cells`), or every cell of `cost`
/// by (cost, index) when `cells` is null. -0.0 and +0.0 are one cost. A
/// stable LSD radix sort, O(cells). The start runs it on the real rows'
/// cells cold, and under a warm hint on the warm cells and then on the real
/// cells still open.
std::vector<std::uint32_t> least_cost_order(
    std::span<const double> cost,
    const std::vector<std::uint32_t>* cells = nullptr);

/// Partial offload (DESIGN.md §13): among the shipments the allowed cells
/// and capacities admit, the cheapest of those that maximise
/// sum_i row_weight[i] * shipped_i, where shipped_i <= supply_i need not be
/// the full supply. Two solves of one explicitly balanced (m+1) x (n+1)
/// grid, a slack row and an "unshipped" column added: phase 1 maximises the
/// weighted shipment, phase 2 minimises cost over the cells phase 1's
/// optimal potentials leave at zero reduced cost. `row_weight` holds m
/// positive weights. The result's cells, objective and status read as
/// solve_transportation's (a kOptimal result may ship less than the supply);
/// `iterations` counts both phases' pivots and `potentials` stays empty.
TransportationResult solve_transportation_partial(
    const TransportationProblem& problem, std::span<const double> row_weight);

}  // namespace dust::solver
