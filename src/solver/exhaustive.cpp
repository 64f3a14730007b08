#include "solver/exhaustive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dust::solver {

namespace {

constexpr double kEps = 1e-9;

/// C(n, k) saturated at size_t max.
std::size_t binomial_saturated(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t result = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    const std::size_t factor = n - k + i;
    if (result > kMax / factor) return kMax;
    result = result * factor / i;  // exact: result*factor divisible by i here
  }
  return result;
}

struct Shape {
  std::size_t n = 0;
  std::size_t rows = 0;  ///< m + dummy
  std::vector<double> supply;  ///< rows entries (dummy last)
};

/// Solve the unique flow on a spanning tree by leaf elimination. Returns
/// false when any flow goes negative (infeasible vertex). `cells` holds the
/// rows*n cell indices of the tree.
bool tree_flows(const Shape& shape, const std::vector<double>& demand,
                const std::vector<std::size_t>& cells,
                std::vector<double>& flow_out) {
  const std::size_t nodes = shape.rows + shape.n;
  std::vector<double> residual(nodes);
  for (std::size_t i = 0; i < shape.rows; ++i) residual[i] = shape.supply[i];
  for (std::size_t j = 0; j < shape.n; ++j)
    residual[shape.rows + j] = demand[j];

  std::vector<std::size_t> degree(nodes, 0);
  std::vector<char> alive(cells.size(), 1);
  for (std::size_t cell : cells) {
    ++degree[cell / shape.n];
    ++degree[shape.rows + cell % shape.n];
  }
  flow_out.assign(shape.rows * shape.n, 0.0);
  // Peel leaves: a node with one live incident cell fixes that cell's flow.
  for (std::size_t peeled = 0; peeled < cells.size(); ++peeled) {
    std::size_t leaf_pos = cells.size();
    for (std::size_t pos = 0; pos < cells.size(); ++pos) {
      if (!alive[pos]) continue;
      const std::size_t row = cells[pos] / shape.n;
      const std::size_t col = shape.rows + cells[pos] % shape.n;
      if (degree[row] == 1 || degree[col] == 1) {
        leaf_pos = pos;
        break;
      }
    }
    if (leaf_pos == cells.size()) return false;  // cycle (not a tree)
    const std::size_t cell = cells[leaf_pos];
    const std::size_t row = cell / shape.n;
    const std::size_t col = shape.rows + cell % shape.n;
    const std::size_t leaf = degree[row] == 1 ? row : col;
    const std::size_t other = leaf == row ? col : row;
    const double quantity = residual[leaf];
    if (quantity < -kEps) return false;
    flow_out[cell] = quantity;
    residual[leaf] = 0.0;
    residual[other] -= quantity;
    alive[leaf_pos] = 0;
    --degree[row];
    --degree[col];
  }
  for (double r : residual)
    if (std::abs(r) > 1e-6) return false;  // disconnected component leftover
  return true;
}

}  // namespace

std::size_t exhaustive_base_count(const TransportationProblem& problem) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  if (m == 0 || n == 0) return 0;
  const double total_supply =
      std::accumulate(problem.supply.begin(), problem.supply.end(), 0.0);
  const double total_capacity =
      std::accumulate(problem.capacity.begin(), problem.capacity.end(), 0.0);
  const std::size_t rows = m + (total_capacity > total_supply + kEps ? 1 : 0);
  return binomial_saturated(rows * n, rows + n - 1);
}

TransportationResult solve_transportation_exhaustive(
    const TransportationProblem& problem, std::size_t max_bases) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  if (problem.cost.size() != m * n)
    throw std::invalid_argument("exhaustive: cost size mismatch");

  TransportationResult result;
  const double total_supply =
      std::accumulate(problem.supply.begin(), problem.supply.end(), 0.0);
  const double total_capacity =
      std::accumulate(problem.capacity.begin(), problem.capacity.end(), 0.0);
  if (m == 0 || total_supply <= kEps) {
    result.status = Status::kOptimal;
    return result;
  }
  if (n == 0 || total_supply > total_capacity + kEps) {
    result.status = Status::kInfeasible;
    return result;
  }

  Shape shape;
  const bool has_dummy = total_capacity > total_supply + kEps;
  shape.n = n;
  shape.rows = m + (has_dummy ? 1 : 0);
  shape.supply = problem.supply;
  if (has_dummy) shape.supply.push_back(total_capacity - total_supply);

  const std::size_t cells = shape.rows * n;
  const std::size_t tree_size = shape.rows + n - 1;
  if (binomial_saturated(cells, tree_size) > max_bases)
    throw std::invalid_argument("exhaustive: instance too large to enumerate");

  std::vector<std::size_t> pick(tree_size);
  std::iota(pick.begin(), pick.end(), 0);
  // Standard lexicographic next-combination over [0, cells).
  const auto advance = [&]() -> bool {
    for (std::size_t slot = tree_size; slot-- > 0;) {
      if (pick[slot] < cells - (tree_size - slot)) {
        ++pick[slot];
        for (std::size_t later = slot + 1; later < tree_size; ++later)
          pick[later] = pick[later - 1] + 1;
        return true;
      }
    }
    return false;
  };

  double best_objective = kInfinity;
  std::vector<double> flow;
  do {
    // tree_flows rejects subsets with cycles or disconnected leftovers, so a
    // separate spanning check is unnecessary.
    if (!tree_flows(shape, problem.capacity, pick, flow)) continue;
    double objective = 0.0;
    bool forbidden = false;
    for (std::size_t i = 0; i < m && !forbidden; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double f = flow[i * n + j];
        if (f <= kEps) continue;
        const double c = problem.cost[i * n + j];
        if (c == kInfinity) {
          forbidden = true;
          break;
        }
        objective += f * c;
      }
    }
    if (forbidden || objective >= best_objective) continue;
    best_objective = objective;
    result.cells.clear();
    for (std::size_t cell = 0; cell < m * n; ++cell)
      if (flow[cell] > 0.0) result.cells.push_back({cell, flow[cell]});
  } while (advance());

  if (best_objective == kInfinity) {
    result.status = Status::kInfeasible;
    return result;
  }
  result.status = Status::kOptimal;
  result.objective = best_objective;
  return result;
}

}  // namespace dust::solver
