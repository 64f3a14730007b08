// Differential test for the warm least-cost start.
//
// Under a warm hint the start sorts only the warm cells, allocates them, and
// then sorts only the cells whose row and column are both still open
// (DESIGN.md §13). This test holds it to the full (warm first, real rows
// before the slack row, cost, cell) order over every cell. For each problem of the seeded families and
// several hints per problem, the full-order start is built here (allocation
// in that order, then the row-major tree repair) and handed to the solver
// as a retained basis, so the simplex runs from exactly that start. The
// solver's own hinted start must then give the same status, pivot count,
// final basis and flows, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "solver/transportation.hpp"
#include "solver_dense_flow.hpp"
#include "solver_transportation_families.hpp"
#include "util/rng.hpp"

namespace dust::solver {
namespace {

constexpr double kEps = 1e-9;  // the solver's exhaustion threshold

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The full-order start on `p` under `hint`, completed to a spanning tree,
// as a basis solve_transportation_dirty resumes from. False when the solve
// never reaches the simplex (nothing to ship, or too little capacity).
bool full_order_start(const TransportationProblem& p,
                      const std::vector<double>& hint,
                      TransportationBasis& basis) {
  const std::size_t m = p.sources();
  const std::size_t n = p.destinations();
  const double total_supply = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  const double total_capacity =
      std::accumulate(p.capacity.begin(), p.capacity.end(), 0.0);
  if (m == 0 || total_supply <= kEps || n == 0 ||
      total_supply > total_capacity + kEps)
    return false;
  basis.supply = p.supply;
  if (total_capacity > total_supply + kEps)
    basis.supply.push_back(total_capacity - total_supply);  // the dummy row
  basis.demand = p.capacity;
  basis.m = basis.supply.size();
  basis.n = n;
  // Forbidden cells keep +inf: it sorts where the solver's big-M does,
  // after every finite cost. The dummy row costs 0.
  std::vector<double> cost(basis.m * n, 0.0);
  std::copy(p.cost.begin(), p.cost.end(), cost.begin());
  std::vector<std::uint32_t> warm, real;
  for (std::uint32_t cell = 0; cell < m * n; ++cell) {
    const bool hinted = hint[cell] > kEps && cost[cell] != kInfinity;
    (hinted ? warm : real).push_back(cell);
  }
  warm = least_cost_order(cost, &warm);
  real = least_cost_order(cost, &real);
  std::vector<std::uint32_t> slack(cost.size() - m * n);  // unsorted
  std::iota(slack.begin(), slack.end(), static_cast<std::uint32_t>(m * n));
  std::vector<double> supply = basis.supply;
  std::vector<double> demand = basis.demand;
  std::vector<char> basic(cost.size(), 0);
  basis.cells.clear();
  for (const std::vector<std::uint32_t>* order : {&warm, &real, &slack}) {
    for (std::uint32_t cell : *order) {
      const std::size_t i = cell / n;
      const std::size_t j = cell % n;
      if (supply[i] <= kEps || demand[j] <= kEps) continue;
      const double quantity = std::min(supply[i], demand[j]);
      basis.cells.push_back({cell, quantity});
      basic[cell] = 1;
      supply[i] -= quantity;
      demand[j] -= quantity;
    }
  }
  // Connect the components with zero-flow cells in row-major order.
  std::vector<std::size_t> parent(basis.m + n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto root = [&parent](std::size_t a) {
    while (parent[a] != a) a = parent[a];
    return a;
  };
  for (const TransportationCell& c : basis.cells)
    parent[root(c.index / n)] = root(basis.m + c.index % n);
  for (std::size_t cell = 0;
       cell < cost.size() && basis.cells.size() + 1 < basis.m + n; ++cell) {
    const std::size_t a = root(cell / n);
    const std::size_t b = root(basis.m + cell % n);
    if (basic[cell] != 0 || a == b) continue;
    parent[a] = b;
    basis.cells.push_back({cell, 0.0});
  }
  basis.valid = true;
  return true;
}

// Solves `p` from the solver's hinted start and from the full-order start
// and expects the two runs to agree bit for bit.
void expect_same_run(const TransportationProblem& p,
                     const std::vector<double>& hint, std::size_t kind) {
  const std::string what = "hint kind " + std::to_string(kind);
  TransportationBasis pruned_basis;  // empty: the hinted start runs
  const std::vector<TransportationCell> cells = hint_cells(hint);
  const TransportationResult pruned =
      solve_transportation_dirty(p, pruned_basis, &cells);
  ASSERT_FALSE(pruned.dirty_resolve);
  TransportationBasis full_basis;
  if (!full_order_start(p, hint, full_basis)) {
    EXPECT_EQ(pruned.status, solve_transportation(p).status) << what;
    return;
  }
  const TransportationResult full = solve_transportation_dirty(p, full_basis);
  ASSERT_TRUE(full.dirty_resolve) << what;
  EXPECT_EQ(pruned.status, full.status) << what;
  EXPECT_EQ(pruned.iterations, full.iterations) << what;
  EXPECT_TRUE(same_bits(pruned.objective, full.objective)) << what;
  ASSERT_EQ(pruned.cells.size(), full.cells.size()) << what;
  for (std::size_t k = 0; k < full.cells.size(); ++k) {
    ASSERT_EQ(pruned.cells[k].index, full.cells[k].index) << what;
    ASSERT_TRUE(same_bits(pruned.cells[k].flow, full.cells[k].flow))
        << what << ", cell " << full.cells[k].index;
  }
  EXPECT_EQ(pruned_basis.valid, full_basis.valid) << what;
  if (!full_basis.valid) return;
  ASSERT_EQ(pruned_basis.cells.size(), full_basis.cells.size()) << what;
  for (std::size_t k = 0; k < full_basis.cells.size(); ++k) {
    EXPECT_EQ(pruned_basis.cells[k].index, full_basis.cells[k].index) << what;
    EXPECT_TRUE(same_bits(pruned_basis.cells[k].flow, full_basis.cells[k].flow))
        << what << ", arc " << k;
  }
}

// The hint of kind `kind` for `p`: none at all, every cell, a random
// basis-sized scatter with ±0.0 and sub-threshold entries (forbidden cells
// included, which the start must pass over), and the problem's own optimum,
// as it is and perturbed (the scatter again when there is no optimum).
std::vector<double> hint_of(std::size_t kind, util::Rng& rng,
                            const TransportationProblem& p,
                            const TransportationResult& optimum) {
  const std::size_t cells = p.cost.size();
  const bool has_optimum = optimum.optimal();
  switch (kind) {
    case 0: return std::vector<double>(cells, 0.0);
    case 1: return std::vector<double>(cells, 1.0);
    case 3:
      if (has_optimum) return dense_flow(optimum, cells);
      break;
    case 4:
      if (has_optimum) {
        std::vector<double> moved = dense_flow(optimum, cells);
        for (double& h : moved)
          if (rng.bernoulli(0.2)) h = h > 0.0 ? 0.0 : rng.uniform(0.0, 2.0);
        return moved;
      }
      break;
    default: break;
  }
  std::vector<double> scatter(cells, 0.0);
  const double share =
      cells == 0 ? 0.0
                 : std::min(1.0, static_cast<double>(p.sources() + p.destinations()) /
                                     static_cast<double>(cells));
  for (double& h : scatter) {
    if (rng.bernoulli(share)) h = rng.uniform(0.0, 10.0);
    else if (rng.bernoulli(0.1)) h = rng.bernoulli(0.5) ? -0.0 : kEps * 0.5;
  }
  return scatter;
}

constexpr std::size_t kHintKinds = 5;

// Every solve of `family`, each under the next hint kind in turn (some
// families hold instances that spend their whole pivot budget, so one
// hint per problem keeps the test about twice the cost of the digests).
void check_family(void (*family)(const families::SolveSink&), std::uint64_t seed) {
  util::Rng rng(seed);
  std::size_t solve = 0;
  family([&](const TransportationProblem& p, const TransportationResult& r) {
    const std::size_t kind = solve++ % kHintKinds;
    expect_same_run(p, hint_of(kind, rng, p, r), kind);
  });
}

TEST(TransportationPrunedStart, ColdSolves) {
  check_family(families::cold_solves, 1);
}
TEST(TransportationPrunedStart, WarmFlowHints) {
  check_family(families::warm_flow_hints, 2);
}
TEST(TransportationPrunedStart, DirtyBasisResolves) {
  check_family(families::dirty_basis_resolves, 3);
}
TEST(TransportationPrunedStart, IntegerTies) {
  check_family(families::integer_ties, 4);
}
TEST(TransportationPrunedStart, ForbiddenCells) {
  check_family(families::forbidden_cells, 5);
}
TEST(TransportationPrunedStart, DummyRowAndInfeasible) {
  check_family(families::dummy_row_and_infeasible, 6);
}
TEST(TransportationPrunedStart, DegenerateCycling) {
  check_family(families::degenerate_cycling, 7);
}
TEST(TransportationPrunedStart, EdgeShapes) {
  check_family(families::edge_shapes, 8);
}
TEST(TransportationPrunedStart, LongDirtyChains) {
  check_family(families::long_dirty_chains, 9);
}
TEST(TransportationPrunedStart, ReplanShaped) {
  check_family(families::replan_shaped, 10);
}
TEST(TransportationPrunedStart, BlandFallbacks) {
  check_family(families::bland_fallbacks, 11);
}

// Costs of -0.0, +0.0 and a few small integers: the two zeros are one cost,
// so ties among them fall to the cell index in both starts.
TEST(TransportationPrunedStart, SignedZeroCostTies) {
  util::Rng rng(0x5160ull);
  const double levels[] = {-0.0, 0.0, 1.0, 2.0, kInfinity};
  for (int t = 0; t < 60; ++t) {
    TransportationProblem p;
    const auto m = static_cast<std::size_t>(rng.range(1, 15));
    const auto n = static_cast<std::size_t>(rng.range(1, 25));
    for (std::size_t i = 0; i < m; ++i)
      p.supply.push_back(static_cast<double>(rng.range(1, 5)));
    const double total = families::sum(p.supply);
    for (std::size_t j = 0; j < n; ++j)
      p.capacity.push_back(
          std::ceil(total / static_cast<double>(n)) + (t % 2 == 0 ? 1.0 : 0.0));
    for (std::size_t c = 0; c < m * n; ++c) p.cost.push_back(levels[rng.below(5)]);
    const TransportationResult optimum = solve_transportation(p);
    for (std::size_t kind = 0; kind < kHintKinds; ++kind)
      expect_same_run(p, hint_of(kind, rng, p, optimum), kind);
  }
}

}  // namespace
}  // namespace dust::solver
