#include "solver/transportation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace dust::solver {

namespace {

constexpr double kEps = 1e-9;

// Internal balanced instance: a dummy *source* row absorbs spare destination
// capacity (zero cost), so every row supply ships fully and every column
// receives exactly its capacity. Its cost grid is kept apart (solve_impl).
struct Balanced {
  std::size_t m = 0;  // rows including dummy
  std::size_t n = 0;
  std::vector<double> supply;
  std::vector<double> demand;
  bool has_dummy = false;
};

// Solve-phase timings, pivot counts and Bland fallbacks; magic statics so a
// solve pays three or four relaxed atomics.
struct SolveMetrics {
  obs::Histogram& start_ms;
  obs::Histogram& pivot_ms;
  obs::Histogram& pivots;
  obs::Counter& bland_fallbacks;
  static SolveMetrics& get() {
    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    static SolveMetrics metrics{registry.histogram("dust_solver_start_ms"),
                                registry.histogram("dust_solver_pivot_ms"),
                                registry.histogram("dust_solver_pivots"),
                                registry.counter("dust_solver_bland_fallbacks_total")};
    return metrics;
  }
};

// Order-preserving image of a cost in unsigned 64-bit order: a negative
// double has every bit flipped, a non-negative one gets its sign bit set.
// -0.0 maps to the key of +0.0, so the two stay equal as they are as doubles.
std::uint64_t order_key(double cost) {
  const auto bits = std::bit_cast<std::uint64_t>(cost == 0.0 ? 0.0 : cost);
  return bits >> 63 != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

using Arc = TransportationCell;

// Per-node incidence lists, kept per thread across solves (cleared, not
// freed) so that building a basis does not allocate node by node.
std::vector<std::vector<std::size_t>>& incidence_lists(std::size_t nodes) {
  static thread_local std::vector<std::vector<std::size_t>> lists;
  lists.resize(std::max(lists.size(), nodes));
  for (std::size_t node = 0; node < nodes; ++node) lists[node].clear();
  return lists;
}

/// MODI / u-v transportation simplex over a balanced instance. The basis is
/// kept as what it is, a spanning tree over m row nodes [0, m) and n column
/// nodes [m, m+n) with one arc per basic cell. A pivot costs what it moved:
/// the cycle is one walk up the tree, only the subtree the leaving arc cuts
/// off gets new potentials, and block-search pricing scans about sqrt(mn)
/// cells from where the previous search stopped.
class TransportSimplex {
 public:
  /// Prices in place on `grid`, the balanced m*n costs.
  TransportSimplex(const Balanced& bal, std::vector<double>& grid)
      : bal_(bal),
        real_rows_(bal.m - (bal.has_dummy ? 1 : 0)),
        price_(grid),
        adj_(incidence_lists(bal.m + bal.n)),
        pot_(bal.m + bal.n, 0.0),
        pred_(bal.m + bal.n, kNone),
        depth_(bal.m + bal.n, 0),
        block_(std::max<std::size_t>(std::sqrt(bal.m * bal.n), 10)) {}

  /// Least-cost start, completed to a spanning tree. `warm_cells`, when
  /// non-null, lists in index order the cells to allocate first.
  void initial_basis(const std::vector<std::uint32_t>* warm_cells) {
    least_cost_start(warm_cells);
    repair_basis_tree();
  }

  /// Adopt a previous optimal solve's basis tree instead (dirty-basis path).
  /// The caller guarantees it was solved under the same balanced supplies
  /// and demands, so its flows are primal-feasible here.
  void seed_basis(const std::vector<Arc>& arcs) {
    for (const Arc& arc : arcs) add_arc(arc.index, arc.flow);
  }

  /// Pivots until optimal or until `max_iterations` pivots in all; a later
  /// call with a higher limit resumes where this one stopped.
  Status solve(std::size_t max_iterations) {
    // Block search can cycle forever on degenerate instances (exact
    // supply/capacity ties, zero-capacity columns): every pivot has theta=0
    // and the same bases repeat. After a streak of m+n degenerate pivots,
    // switch to Bland's rule permanently — it guarantees termination.
    for (; iterations_ < max_iterations; ++iterations_) {
      // Under block search each pivot updates the potentials it moved; the
      // first iteration and Bland's rule walk the tree.
      if (iterations_ == 0 || bland_) compute_potentials();
      const auto [enter_i, enter_j, reduced] =
          bland_ ? first_negative_cell() : most_negative_cell();
      if (reduced >= -kEps) return Status::kOptimal;
      const double theta = pivot(enter_i, enter_j);
      if (theta <= kEps) {
        if (++degenerate_streak_ > bal_.m + bal_.n) bland_ = true;
      } else {
        degenerate_streak_ = 0;
      }
    }
    return Status::kIterationLimit;
  }

  [[nodiscard]] const std::vector<Arc>& arcs() const noexcept { return arcs_; }
  [[nodiscard]] std::size_t iterations() const noexcept { return iterations_; }
  /// u (rows) then v (columns), current for the basis at an optimal exit.
  [[nodiscard]] const std::vector<double>& potentials() const noexcept {
    return pot_;
  }
  /// True once the solve has switched to Bland's rule.
  [[nodiscard]] bool bland() const noexcept { return bland_; }

 private:
  void add_arc(std::size_t cell, double flow) {
    adj_[cell / bal_.n].push_back(arcs_.size());
    adj_[bal_.m + cell % bal_.n].push_back(arcs_.size());
    arcs_.push_back({cell, flow});
    arc_cost_.push_back(price_[cell]);
    price_[cell] = kInfinity;
  }

  [[nodiscard]] std::size_t other_end(std::size_t arc, std::size_t node) const {
    const std::size_t row = arcs_[arc].index / bal_.n;
    return node == row ? bal_.m + arcs_[arc].index % bal_.n : row;
  }

  // Least-cost method: allocate to open cells in (warm first, real rows
  // before the slack row, cost, cell) order. By cost alone the zero-cost
  // slack row would take spare capacity before any real row chose; last,
  // in index order, it only absorbs what the real rows left. Warm cells go
  // first (cheapest first) so the start reproduces the prior basis wherever
  // supplies and demands still admit it.
  void least_cost_start(const std::vector<std::uint32_t>* warm_cells) {
    std::vector<double> remaining_supply = bal_.supply;
    std::vector<double> remaining_demand = bal_.demand;
    // Allocates to `cell` unless its row or its column is exhausted.
    const auto take = [&](std::size_t cell) {
      const std::size_t i = cell / bal_.n;
      const std::size_t j = cell % bal_.n;
      if (remaining_supply[i] <= kEps || remaining_demand[j] <= kEps) return;
      const double quantity = std::min(remaining_supply[i], remaining_demand[j]);
      add_arc(cell, quantity);
      remaining_supply[i] -= quantity;
      remaining_demand[j] -= quantity;
    };
    const std::size_t real_cells = real_rows_ * bal_.n;
    if (warm_cells == nullptr) {
      for (std::size_t cell : least_cost_order({price_.data(), real_cells}))
        take(cell);
    } else {
      for (std::size_t cell : least_cost_order(price_, warm_cells)) take(cell);
      // Exhaustion is monotone and each warm cell left its row or its
      // column exhausted, so the full order would skip every real cell but
      // those whose row and column are both still open (none basic yet, so
      // each still prices at its cost): sort just those, in index order,
      // and the allocations match the full order's bit for bit.
      std::vector<std::uint32_t> open_columns, open_cells;
      for (std::size_t j = 0; j < bal_.n; ++j)
        if (remaining_demand[j] > kEps) open_columns.push_back(j);
      for (std::size_t i = 0; i < real_rows_; ++i) {
        if (remaining_supply[i] <= kEps) continue;
        for (std::uint32_t j : open_columns) open_cells.push_back(i * bal_.n + j);
      }
      for (std::size_t cell : least_cost_order(price_, &open_cells)) take(cell);
    }
    for (std::size_t cell = real_cells; cell < bal_.m * bal_.n; ++cell) take(cell);
  }

  // The basis must be a spanning tree with exactly m + n - 1 cells. The
  // least-cost start is acyclic (each allocation exhausts its row or its
  // column) but degenerate instances leave it short of cells; connect the
  // components with zero-flow cells, scanning in row-major order.
  void repair_basis_tree() {
    std::vector<std::size_t> parent(bal_.m + bal_.n);
    std::iota(parent.begin(), parent.end(), 0);
    const auto unite = [&parent](std::size_t a, std::size_t b) {
      while (parent[a] != a) a = parent[a] = parent[parent[a]];
      while (parent[b] != b) b = parent[b] = parent[parent[b]];
      if (a == b) return false;
      parent[a] = b;
      return true;
    };
    for (const Arc& arc : arcs_)
      unite(arc.index / bal_.n, bal_.m + arc.index % bal_.n);
    for (std::size_t cell = 0;
         cell < bal_.m * bal_.n && arcs_.size() + 1 < bal_.m + bal_.n; ++cell)
      if (price_[cell] != kInfinity && unite(cell / bal_.n, bal_.m + cell % bal_.n))
        add_arc(cell, 0.0);
  }

  // Potentials u_i + v_j = c_ij on basic cells (pot_[i] = u_i, pot_[m+j] =
  // v_j) by one walk of the tree from row 0, which also records each node's
  // parent arc and depth for the cycle search.
  void compute_potentials() {
    order_.assign(1, 0);
    pred_[0] = kNone;
    walk_subtree();
  }

  // Extends order_ (holding a subtree root whose pred_, depth_ and pot_ are
  // set) to the root's whole subtree, deriving each node's values from its
  // parent's: pot = cost - pot[parent]. A node's potential depends only on
  // its tree path to row 0, so a subtree walk yields the same bits as a
  // walk of the whole tree.
  void walk_subtree() {
    for (std::size_t k = 0; k < order_.size(); ++k) {
      const std::size_t node = order_[k];
      for (std::size_t arc : adj_[node]) {
        if (arc == pred_[node]) continue;
        const std::size_t child = other_end(arc, node);
        pred_[child] = arc;
        depth_[child] = depth_[node] + 1;
        pot_[child] = arc_cost_[arc] - pot_[node];
        order_.push_back(child);
      }
    }
  }

  // Reduced costs are differences of quantities that can carry big-M
  // magnitudes (~1e7) through the potentials, so the cancellation noise is
  // ~1e-9 absolute — larger than a fixed kEps. A cell only counts as
  // improving when its reduced cost clears a tolerance scaled to the
  // magnitudes that produced it; otherwise the solver chases phantom
  // improvements in an endless theta=0 loop.
  [[nodiscard]] double reduced_cost_tolerance(std::size_t i,
                                              std::size_t j) const {
    return kEps + 1e-12 * (std::abs(price_[i * bal_.n + j]) +
                           std::abs(pot_[i]) + std::abs(pot_[bal_.m + j]));
  }

  // Block search: scan the grid row-major from the cursor, wrapping, in
  // blocks of block_ cells, and return the most negative improving cell of
  // the first block that holds one (first in scan order on ties). The
  // cursor stays after the last cell scanned, so the next search resumes
  // there. Basic cells price at +inf and never improve. A full wrap without
  // an improving cell returns 0: the basis is optimal.
  [[nodiscard]] std::tuple<std::size_t, std::size_t, double>
  most_negative_cell() {
    const std::size_t cells = bal_.m * bal_.n;
    const double* v = pot_.data() + bal_.m;
    std::size_t i = cursor_ / bal_.n;
    std::size_t j = cursor_ % bal_.n;
    double best = 0.0;
    std::size_t bi = 0, bj = 0;
    for (std::size_t scanned = 0; scanned < cells && best == 0.0;) {
      const std::size_t block_end = scanned + std::min(block_, cells - scanned);
      while (scanned < block_end) {
        // The block's cells in row i: columns [j, end).
        const std::size_t end = std::min(bal_.n, j + (block_end - scanned));
        scanned += end - j;
        const double u = pot_[i];
        const double* price = price_.data() + i * bal_.n;
        for (; j < end; ++j) {
          const double reduced = price[j] - u - v[j];
          if (reduced < best && reduced < -reduced_cost_tolerance(i, j)) {
            best = reduced;
            bi = i;
            bj = j;
          }
        }
        if (j == bal_.n) {
          j = 0;
          i = i + 1 == bal_.m ? 0 : i + 1;
        }
      }
    }
    cursor_ = i * bal_.n + j;
    return {bi, bj, best};
  }

  // Bland's rule: the lowest-index improving cell (basic cells price at +inf
  // and never improve). Slower than block search but provably cycle-free.
  [[nodiscard]] std::tuple<std::size_t, std::size_t, double>
  first_negative_cell() const {
    for (std::size_t i = 0; i < bal_.m; ++i) {
      for (std::size_t j = 0; j < bal_.n; ++j) {
        const double reduced = price_[i * bal_.n + j] - pot_[i] - pot_[bal_.m + j];
        if (reduced < -reduced_cost_tolerance(i, j)) return {i, j, reduced};
      }
    }
    return {0, 0, 0.0};
  }

  // Adding (enter_i, enter_j) closes one cycle: the tree path from row
  // enter_i to column enter_j, plus the entering cell. Walk both ends up to
  // their common ancestor, shift theta around the cycle, and swap the
  // leaving arc for the entering cell. Returns theta (0 on a degenerate
  // pivot).
  double pivot(std::size_t enter_i, std::size_t enter_j) {
    path_.clear();
    down_.clear();
    std::size_t a = enter_i;
    std::size_t b = bal_.m + enter_j;
    while (a != b) {
      if (depth_[a] >= depth_[b]) {
        path_.push_back(pred_[a]);
        a = other_end(pred_[a], a);
      } else {
        down_.push_back(pred_[b]);
        b = other_end(pred_[b], b);
      }
    }
    const std::size_t row_side = path_.size();  // arcs above enter_i
    path_.insert(path_.end(), down_.rbegin(), down_.rend());
    // Walking from enter_i, path cells alternate '-', '+', ... (the entering
    // cell is the '+' that closes the loop). Theta = min flow on the '-'
    // cells, first along the path on ties; under Bland's rule ties break
    // toward the lowest cell index (required for the anti-cycling guarantee).
    double theta = kInfinity;
    std::size_t leaving_k = 0;
    for (std::size_t k = 0; k < path_.size(); k += 2) {
      const Arc& arc = arcs_[path_[k]];
      const bool tie_wins = bland_ && arc.flow == theta &&
                            arc.index < arcs_[path_[leaving_k]].index;
      if (arc.flow < theta || tie_wins) {
        theta = arc.flow;
        leaving_k = k;
      }
    }
    for (std::size_t k = 0; k < path_.size(); ++k) {
      if (k % 2 == 0)
        arcs_[path_[k]].flow -= theta;
      else
        arcs_[path_[k]].flow += theta;
    }
    // The entering cell takes over the leaving arc's slot.
    const std::size_t leaving = path_[leaving_k];
    const std::size_t cell = arcs_[leaving].index;
    for (std::size_t node : {cell / bal_.n, bal_.m + cell % bal_.n}) {
      std::vector<std::size_t>& list = adj_[node];
      *std::find(list.begin(), list.end(), leaving) = list.back();
      list.pop_back();
    }
    price_[cell] = arc_cost_[leaving];
    const std::size_t enter = enter_i * bal_.n + enter_j;
    arcs_[leaving] = {enter, theta};
    arc_cost_[leaving] = price_[enter];
    adj_[enter_i].push_back(leaving);
    adj_[bal_.m + enter_j].push_back(leaving);
    price_[enter] = kInfinity;
    // Dropping the leaving arc cut off the subtree holding the entering
    // end on the leaving arc's side of the cycle; the entering arc hangs it
    // back from the other end. Bland's rule re-walks the whole tree instead.
    if (!bland_) {
      const bool row_below = leaving_k < row_side;
      const std::size_t root = row_below ? enter_i : bal_.m + enter_j;
      const std::size_t parent = row_below ? bal_.m + enter_j : enter_i;
      pred_[root] = leaving;
      depth_[root] = depth_[parent] + 1;
      pot_[root] = arc_cost_[leaving] - pot_[parent];
      order_.assign(1, root);
      walk_subtree();
    }
    return theta;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  const Balanced& bal_;
  const std::size_t real_rows_;  ///< rows before the slack row
  bool bland_ = false;
  std::vector<double>& price_;    ///< m*n pricing grid: cost, or +inf if basic
  std::vector<Arc> arcs_;         ///< basic cells and their flows
  std::vector<double> arc_cost_;  ///< arc -> its cell's cost
  std::vector<std::vector<std::size_t>>& adj_;  ///< node -> incident arcs
  std::vector<double> pot_;         ///< u (rows) then v (columns)
  std::vector<std::size_t> pred_;   ///< node -> arc to its tree parent
  std::vector<std::size_t> depth_;  ///< node -> depth below row 0
  std::vector<std::size_t> order_, path_, down_;  ///< scratch
  std::size_t block_;       ///< block-search block size, max(sqrt(mn), 10)
  std::size_t cursor_ = 0;  ///< cell where the next block search starts
  std::size_t iterations_ = 0;
  std::size_t degenerate_streak_ = 0;  ///< theta=0 pivots in a row
};

// The probe (DESIGN.md §13) solves a transportation problem of its own, so
// it is declared ahead of the solve body that calls it.
bool shortfall(const TransportationProblem& problem, double total_supply);

// One solve body behind every public entry point. `basis`, when non-null, is
// consulted for the dirty-basis fast path and refreshed (or invalidated) on
// the way out. `record` is false only for the probe, which is part of the
// solve that ran it.
TransportationResult solve_impl(const TransportationProblem& problem,
                                const std::vector<TransportationCell>* warm,
                                TransportationBasis* basis, bool record) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  if (problem.cost.size() != m * n)
    throw std::invalid_argument("solve_transportation: cost size mismatch");
  for (double s : problem.supply)
    if (!(s >= 0))
      throw std::invalid_argument("solve_transportation: negative or NaN supply");
  for (double c : problem.capacity)
    if (!(c >= 0))
      throw std::invalid_argument("solve_transportation: negative or NaN capacity");
  // One branch-free pass over the costs keeps the largest finite magnitude
  // (for big-M) in four lanes; a NaN cost, which has no place in the start
  // order or in pricing, is reported after the loop.
  const double* cost = problem.cost.data();
  double lane[4] = {1.0, 1.0, 1.0, 1.0};  // a running max per cell % 4
  bool nan = false;
  const auto scan = [&](std::size_t cell, double& largest) {
    const double c = cost[cell];
    largest = std::max(largest, c == kInfinity ? 0.0 : std::abs(c));
    nan |= std::isnan(c);
  };
  std::size_t cell = 0;
  for (; cell + 4 <= m * n; cell += 4)
#pragma GCC unroll 4
    for (std::size_t k = 0; k < 4; ++k) scan(cell + k, lane[k]);
  for (; cell < m * n; ++cell) scan(cell, lane[0]);
  if (nan) throw std::invalid_argument("solve_transportation: NaN cost");
  const double max_finite =
      std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));

  TransportationResult result;
  const double total_supply =
      std::accumulate(problem.supply.begin(), problem.supply.end(), 0.0);
  const double total_capacity =
      std::accumulate(problem.capacity.begin(), problem.capacity.end(), 0.0);
  if (m == 0 || total_supply <= kEps) {
    // Nothing to ship: trivially optimal at zero.
    if (basis != nullptr) basis->valid = false;
    result.status = Status::kOptimal;
    return result;
  }
  if (n == 0 || total_supply > total_capacity + kEps) {
    if (basis != nullptr) basis->valid = false;
    result.status = Status::kInfeasible;
    return result;
  }

  Balanced bal;
  bal.has_dummy = total_capacity > total_supply + kEps;
  bal.m = m + (bal.has_dummy ? 1 : 0);
  bal.n = n;
  bal.supply = problem.supply;
  if (bal.has_dummy) bal.supply.push_back(total_capacity - total_supply);
  bal.demand = problem.capacity;
  // Big-M strictly dominates any finite objective.
  const double big_m = max_finite * 1e6 * static_cast<double>(m + n) + 1e6;
  // The price grid: the costs with big-M on forbidden cells, then the slack
  // row at 0. Each thread keeps its grid across solves, so a re-solve writes
  // into pages it already holds instead of faulting in fresh ones.
  static thread_local std::vector<double> grid;
  const auto fill_prices = [&] {
    grid.resize(bal.m * bal.n);
    double* price = grid.data();
    for (std::size_t c = 0; c < m * n; ++c)
      price[c] = cost[c] == kInfinity ? big_m : cost[c];
    std::fill(grid.begin() + m * n, grid.end(), 0.0);
  };

  // Dirty-basis eligibility: the retained basis must come from the *same*
  // balanced instance modulo costs — identical shape and bit-identical
  // supplies/capacities. Basic flows satisfy the supply/demand constraints
  // regardless of costs, so the old basis is primal-feasible here and MODI
  // can resume from it directly.
  const bool dirty = basis != nullptr && basis->valid && basis->m == bal.m &&
                     basis->n == bal.n && basis->supply == bal.supply &&
                     basis->demand == bal.demand;

  // The hint's usable cells, in index order: on the grid, carrying flow,
  // and never a now-forbidden route.
  std::vector<std::uint32_t> warm_cells;
  if (!dirty && warm != nullptr) {
    for (const TransportationCell& c : *warm)
      if (c.flow > kEps && c.index < m * n && problem.cost[c.index] != kInfinity)
        warm_cells.push_back(static_cast<std::uint32_t>(c.index));
    std::sort(warm_cells.begin(), warm_cells.end());
  }

  const std::size_t probe_at = 2 * (bal.m + bal.n);
  const std::size_t max_iterations = 100 * (bal.m + bal.n) * (bal.m + bal.n) + 1000;
  double start_seconds = 0.0;
  double pivot_seconds = 0.0;
  bool bland = false;
  // Builds the start and pivots up to `budget` pivots. Returns false if the
  // solve stopped at the probe's budget; otherwise finishes it into `result`
  // (and `basis`). Two timer reads split it into the initial basis (least-
  // cost start plus repair, or adopting the retained tree) and the pivots.
  const auto attempt = [&](std::size_t budget) {
    fill_prices();
    util::Timer timer;
    TransportSimplex simplex(bal, grid);
    if (dirty) {
      simplex.seed_basis(basis->cells);
      result.dirty_resolve = true;
    } else {
      simplex.initial_basis(warm != nullptr ? &warm_cells : nullptr);
    }
    const double started = timer.seconds();
    start_seconds += started;
    const Status status = simplex.solve(budget);
    pivot_seconds += timer.seconds() - started;
    result.iterations = simplex.iterations();
    bland = simplex.bland();
    if (status == Status::kIterationLimit && budget < max_iterations) return false;
    result.status = status;
    if (status == Status::kIterationLimit) {
      if (basis != nullptr) basis->valid = false;
      return true;
    }
    // Check forbidden cells and take the real rows' basic arcs (dummy-row
    // cells index past m*n) in cell order, the order the objective sums in.
    std::vector<Arc> real_arcs;
    for (const Arc& arc : simplex.arcs()) {
      if (arc.index >= m * n) continue;
      if (arc.flow > kEps && problem.cost[arc.index] == kInfinity) {
        if (basis != nullptr) basis->valid = false;
        result.status = Status::kInfeasible;  // needed a forbidden route
        return true;
      }
      real_arcs.push_back(arc);
    }
    std::sort(real_arcs.begin(), real_arcs.end(),
              [](const Arc& a, const Arc& b) { return a.index < b.index; });
    double objective = 0.0;
    for (const Arc& arc : real_arcs)
      if (arc.flow > 0) objective += arc.flow * problem.cost[arc.index];
    result.objective = objective;
    result.cells = std::move(real_arcs);
    const std::vector<double>& pot = simplex.potentials();
    result.potentials.assign(pot.begin(), pot.begin() + m);
    result.potentials.insert(result.potentials.end(), pot.begin() + bal.m, pot.end());
    if (basis != nullptr) {
      basis->valid = true;
      basis->m = bal.m;
      basis->n = bal.n;
      basis->supply = std::move(bal.supply);
      basis->demand = std::move(bal.demand);
      basis->cells = simplex.arcs();
    }
    return true;
  };
  // A solve still pivoting at 2(m+n) may be short of supply, which big-M
  // noise can keep pivoting until the whole budget is spent (DESIGN.md §13).
  // Only a forbidden cell can make it short, so only then is it probed, and
  // outside the simplex: the probe solves on this thread's grid and lists.
  // A solve that can ship starts over with the full budget; from the same
  // start it retraces the same pivots.
  if (!attempt(probe_at)) {
    util::Timer probe_timer;
    const bool short_of_supply =
        std::find(problem.cost.begin(), problem.cost.end(), kInfinity) !=
            problem.cost.end() &&
        shortfall(problem, total_supply);
    pivot_seconds += probe_timer.seconds();
    if (short_of_supply) {
      if (basis != nullptr) basis->valid = false;
      result.status = Status::kInfeasible;
    } else {
      attempt(max_iterations);
    }
  }
  if (record) {
    SolveMetrics& metrics = SolveMetrics::get();
    metrics.start_ms.observe(start_seconds * 1e3);
    metrics.pivot_ms.observe(pivot_seconds * 1e3);
    metrics.pivots.observe(static_cast<double>(result.iterations));
    if (bland) metrics.bland_fallbacks.inc();
  }
  return result;
}

// The explicitly balanced (m+1) x (n+1) grid of a partial solve: the real
// rows, then a slack row whose supply is the total capacity; the real
// columns, then an "unshipped" column whose capacity is the total supply.
// Phase 1's costs: w_i on row i's unshipped cell, 0 on allowed real cells
// and the slack row, and the finite 1 + max w on forbidden cells. A unit on
// a forbidden cell always does better shipped to "unshipped" (the slack
// row's unit there moves to the cell's column), so no optimum uses one, and
// no big-M enters the potentials.
TransportationProblem partial_grid(const TransportationProblem& problem,
                                   std::span<const double> row_weight) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  TransportationProblem grid;
  grid.supply = problem.supply;
  grid.supply.push_back(
      std::accumulate(problem.capacity.begin(), problem.capacity.end(), 0.0));
  grid.capacity = problem.capacity;
  grid.capacity.push_back(
      std::accumulate(problem.supply.begin(), problem.supply.end(), 0.0));
  grid.cost.assign((m + 1) * (n + 1), 0.0);
  const double forbidden =
      1.0 + *std::max_element(row_weight.begin(), row_weight.end());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      if (problem.cost[i * n + j] == kInfinity) grid.cost[i * (n + 1) + j] = forbidden;
    grid.cost[i * (n + 1) + n] = row_weight[i];
  }
  return grid;
}

// Phase 1 with unit weights ships the most the allowed cells carry (a max
// flow); the supply is short when the unshipped remainder, phase 1's
// objective, exceeds the tolerance.
bool shortfall(const TransportationProblem& problem, double total_supply) {
  const std::vector<double> unit(problem.sources(), 1.0);
  const TransportationResult ship =
      solve_impl(partial_grid(problem, unit), nullptr, nullptr, false);
  return ship.optimal() && ship.objective > kEps * (1.0 + total_supply);
}

}  // namespace

std::vector<std::uint32_t> least_cost_order(
    std::span<const double> cost, const std::vector<std::uint32_t>* cells) {
  if (cost.size() > UINT32_MAX)
    throw std::length_error("least_cost_order: more than 2^32 cells");
  // Stable LSD radix sort of the positions in `cells` on their cost keys,
  // 8 bits a pass; a pass whose digit is the same for every key is skipped.
  const std::size_t count = cells != nullptr ? cells->size() : cost.size();
  std::vector<std::uint64_t> key(count);
  for (std::size_t at = 0; at < count; ++at)
    key[at] = order_key(cost[cells != nullptr ? (*cells)[at] : at]);
  std::vector<std::uint32_t> order(count), next(count);
  std::iota(order.begin(), order.end(), 0u);
  for (unsigned shift = 0; shift < 64 && count != 0; shift += 8) {
    std::array<std::uint32_t, 257> start{};  // bucket b starts at start[b]
    for (std::uint64_t k : key) ++start[(k >> shift & 0xff) + 1];
    if (start[(key[0] >> shift & 0xff) + 1] == count) continue;
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (std::uint32_t at : order) next[start[key[at] >> shift & 0xff]++] = at;
    order.swap(next);
  }
  if (cells != nullptr)
    for (std::uint32_t& at : order) at = (*cells)[at];
  return order;
}

TransportationResult solve_transportation(
    const TransportationProblem& problem,
    const std::vector<TransportationCell>* warm) {
  return solve_impl(problem, warm, nullptr, true);
}

TransportationResult solve_transportation_dirty(
    const TransportationProblem& problem, TransportationBasis& basis,
    const std::vector<TransportationCell>* warm) {
  return solve_impl(problem, warm, &basis, true);
}

TransportationResult solve_transportation_partial(
    const TransportationProblem& problem, std::span<const double> row_weight) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  if (problem.cost.size() != m * n)
    throw std::invalid_argument("solve_transportation_partial: cost size mismatch");
  if (row_weight.size() != m)
    throw std::invalid_argument("solve_transportation_partial: one weight per row");
  for (double w : row_weight)
    if (!(w > 0.0 && w < kInfinity))
      throw std::invalid_argument(
          "solve_transportation_partial: weights must be positive and finite");
  if (m == 0) {
    TransportationResult nothing;
    nothing.status = Status::kOptimal;
    return nothing;
  }
  // Phase 1: the largest weighted shipment, Σ w_i·unshipped_i at its least.
  TransportationProblem grid = partial_grid(problem, row_weight);
  TransportationResult ship = solve_impl(grid, nullptr, nullptr, true);
  if (!ship.optimal() || ship.potentials.empty()) {  // empty: nothing to ship
    ship.potentials.clear();
    return ship;
  }
  // Phase 2: by complementary slackness, the flows optimal in phase 1 are
  // exactly the feasible ones on cells of zero reduced cost under any one
  // optimal dual (u, v). Forbid the rest and take the cheapest such flow at
  // the real cost. The unshipped column takes exactly Σ supply and the slack
  // row ships exactly Σ capacity, so a constant on either moves every
  // feasible objective alike: pricing both at 1 + max |c| instead of 0 lets
  // the least-cost start fill the real cells cheapest first rather than
  // send every row to "unshipped", a start a few pivots from the optimum.
  double shift = 1.0;
  for (double c : problem.cost)
    if (c != kInfinity) shift = std::max(shift, 1.0 + std::abs(c));
  const double* u = ship.potentials.data();
  const double* v = u + (m + 1);
  for (std::size_t i = 0; i <= m; ++i) {
    for (std::size_t j = 0; j <= n; ++j) {
      double& c = grid.cost[i * (n + 1) + j];
      const double reduced = c - u[i] - v[j];
      if (reduced > kEps * (1.0 + std::abs(c) + std::abs(u[i]) + std::abs(v[j])))
        c = kInfinity;
      else if (i < m && j < n)
        c = problem.cost[i * n + j];
      else
        c = (i == m ? shift : 0.0) + (j == n ? shift : 0.0);
    }
  }
  TransportationResult cheapest = solve_impl(grid, nullptr, nullptr, true);
  cheapest.iterations += ship.iterations;
  cheapest.potentials.clear();
  // Keep the real cells, renumbered onto the m x n grid (order preserved),
  // and sum the objective over them alone.
  std::vector<TransportationCell> real;
  double objective = 0.0;
  for (const TransportationCell& c : cheapest.cells) {
    if (c.index / (n + 1) == m || c.index % (n + 1) == n) continue;
    real.push_back({c.index / (n + 1) * n + c.index % (n + 1), c.flow});
    if (c.flow > 0) objective += c.flow * problem.cost[real.back().index];
  }
  cheapest.cells = std::move(real);
  cheapest.objective = objective;
  return cheapest;
}

}  // namespace dust::solver
