#include "solver/transportation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "check/simplex.hpp"
#include "obs/metrics.hpp"
#include "solver/min_cost_flow.hpp"
#include "solver_dense_flow.hpp"
#include "util/rng.hpp"

namespace dust::solver {
namespace {

using namespace dust::check;

double row_sum(const std::vector<double>& flow, std::size_t i, std::size_t n) {
  double s = 0;
  for (std::size_t j = 0; j < n; ++j) s += flow[i * n + j];
  return s;
}

double col_sum(const std::vector<double>& flow, std::size_t j, std::size_t m,
               std::size_t n) {
  double s = 0;
  for (std::size_t i = 0; i < m; ++i) s += flow[i * n + j];
  return s;
}

TEST(Transportation, TextbookBalanced) {
  // Classic 3x3 with supplies 300/400/500 and demands 250/350/400 + dummy
  // absorbed by capacities exactly (total 1200 vs 1000): capacities chosen
  // so the instance is tight where it matters.
  TransportationProblem p;
  p.supply = {300, 400, 500};
  p.capacity = {250, 350, 600};
  p.cost = {3, 1, 7,
            2, 6, 5,
            8, 3, 3};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  // Cross-check against the general simplex.
  const Solution s = solve_simplex(to_linear_program(p));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, s.objective, 1e-6);
}

TEST(Transportation, SingleCellExact) {
  TransportationProblem p;
  p.supply = {5};
  p.capacity = {7};
  p.cost = {2.5};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 12.5, 1e-9);
  EXPECT_NEAR(dense_flow(r, 1)[0], 5.0, 1e-9);
}

TEST(Transportation, PicksCheaperDestination) {
  TransportationProblem p;
  p.supply = {10};
  p.capacity = {10, 10};
  p.cost = {5.0, 1.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(dense_flow(r, 2)[1], 10.0, 1e-9);
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
}

TEST(Transportation, SplitsWhenCapacityBinds) {
  TransportationProblem p;
  p.supply = {10};
  p.capacity = {4, 10};
  p.cost = {1.0, 2.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(dense_flow(r, 2)[0], 4.0, 1e-9);
  EXPECT_NEAR(dense_flow(r, 2)[1], 6.0, 1e-9);
  EXPECT_NEAR(r.objective, 16.0, 1e-9);
}

TEST(Transportation, InfeasibleWhenSupplyExceedsCapacity) {
  TransportationProblem p;
  p.supply = {10, 5};
  p.capacity = {8};
  p.cost = {1.0, 1.0};
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
}

TEST(Transportation, ForbiddenCellAvoided) {
  TransportationProblem p;
  p.supply = {5};
  p.capacity = {10, 10};
  p.cost = {kInfinity, 3.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(dense_flow(r, 2)[1], 5.0, 1e-9);
  EXPECT_NEAR(r.objective, 15.0, 1e-9);
}

TEST(Transportation, InfeasibleWhenOnlyForbiddenRoutesRemain) {
  TransportationProblem p;
  p.supply = {5, 5};
  p.capacity = {5, 5};
  p.cost = {kInfinity, kInfinity,
            1.0, 1.0};
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
}

TEST(Transportation, ZeroSupplyTrivial) {
  TransportationProblem p;
  p.supply = {0.0, 0.0};
  p.capacity = {5.0};
  p.cost = {1.0, 1.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

TEST(Transportation, EmptyProblem) {
  TransportationProblem p;
  const TransportationResult r = solve_transportation(p);
  EXPECT_EQ(r.status, Status::kOptimal);
}

TEST(Transportation, NoDestinationsWithSupplyInfeasible) {
  TransportationProblem p;
  p.supply = {1.0};
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
}

TEST(Transportation, NegativeInputsThrow) {
  TransportationProblem p;
  p.supply = {-1.0};
  p.capacity = {5.0};
  p.cost = {1.0};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  p.supply = {1.0};
  p.capacity = {-5.0};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
}

// A NaN breaks every comparison the start order and pricing make, so each
// input rejects it, even where the instance would be trivial otherwise.
TEST(Transportation, NaNInputsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TransportationProblem p;
  p.supply = {1.0, 2.0};
  p.capacity = {5.0};
  p.cost = {1.0, nan};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  p.supply = {0.0, 0.0};  // nothing to ship
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  p.cost = {1.0, 2.0};
  p.supply = {1.0, nan};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  p.supply = {1.0, 2.0};
  p.capacity = {nan};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  TransportationBasis basis;
  EXPECT_THROW(solve_transportation_dirty(p, basis), std::invalid_argument);
}

// The cost scan runs four cells at a time and checks for NaN after the
// loop: a NaN in the last cell of a grid whose size leaves a tail past the
// last group of four still throws, as does one in the first cell.
TEST(Transportation, NaNCostInTheScanTailThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{3, 3},
                             {1, 7}, {5, 3}, {2, 1}, {1, 1}}) {
    TransportationProblem p;
    p.supply.assign(m, 1.0);
    p.capacity.assign(n, static_cast<double>(m));
    p.cost.assign(m * n, 1.0);
    ASSERT_NE(m * n % 4, 0u);
    p.cost.back() = nan;
    EXPECT_THROW(solve_transportation(p), std::invalid_argument) << m << "x" << n;
    p.cost.back() = 1.0;
    p.cost.front() = nan;
    EXPECT_THROW(solve_transportation(p), std::invalid_argument) << m << "x" << n;
  }
}

// Supplies are checked before the cost scan, so a problem with both a NaN
// supply and a NaN cost reports the supply.
TEST(Transportation, NaNSupplyReportedBeforeNaNCost) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TransportationProblem p;
  p.supply = {1.0, nan};
  p.capacity = {5.0};
  p.cost = {nan, 1.0};
  try {
    (void)solve_transportation(p);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("supply"), std::string::npos) << e.what();
  }
}

// Big-M comes from the finite costs alone. A row with every cell forbidden
// and nothing to ship leaves the optimum of the other rows as it is (an
// infinite big-M would turn reduced costs into NaN); with supply to ship it
// makes the instance infeasible.
TEST(Transportation, AllForbiddenRowPinsBigM) {
  TransportationProblem p;
  p.supply = {0.0, 300, 400, 500};
  p.capacity = {250, 350, 600};
  p.cost = {kInfinity, kInfinity, kInfinity,
            3, 1, 7,
            2, 6, 5,
            8, 3, 3};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  const Solution s = solve_simplex(to_linear_program(p));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, s.objective, 1e-6);
  for (const TransportationCell& c : r.cells) {
    if (c.index < 3) {
      EXPECT_EQ(c.flow, 0.0);  // row 0 ships nothing
    }
  }
  p.supply[0] = 1.0;
  p.capacity[2] += 1.0;
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
}

// -0.0 is a cost like +0.0: an all -0.0 grid ships at objective 0 straight
// from the start, and a mix of -0.0, +0.0 and positive costs reaches the
// general simplex's optimum.
TEST(Transportation, NegativeZeroCosts) {
  TransportationProblem p;
  p.supply = {2, 3};
  p.capacity = {4, 4, 4};
  p.cost.assign(6, -0.0);
  const TransportationResult zero = solve_transportation(p);
  ASSERT_EQ(zero.status, Status::kOptimal);
  EXPECT_EQ(zero.objective, 0.0);
  EXPECT_EQ(zero.iterations, 0u);
  p.cost = {-0.0, 2.0, 0.0,
            1.0, -0.0, 3.0};
  const TransportationResult mixed = solve_transportation(p);
  ASSERT_EQ(mixed.status, Status::kOptimal);
  const Solution s = solve_simplex(to_linear_program(p));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(mixed.objective, s.objective, 1e-9);
}

// Equal costs leave the start order to the cell index alone, so the
// least-cost start is the north-west corner allocation, whatever the sort
// algorithm; every reduced cost is zero, so it is also the optimum.
TEST(Transportation, AllEqualCostsStartAtNorthWestCorner) {
  util::Rng rng(0x4E57ull);
  constexpr std::size_t m = 12, n = 20;
  TransportationProblem p;
  for (std::size_t i = 0; i < m; ++i)
    p.supply.push_back(static_cast<double>(rng.range(1, 9)));
  double left = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  for (std::size_t j = 0; j + 1 < n; ++j) {
    p.capacity.push_back(std::min(left, static_cast<double>(rng.range(1, 5))));
    left -= p.capacity.back();
  }
  p.capacity.push_back(left);  // tight: no dummy row
  p.cost.assign(m * n, 2.5);
  std::vector<double> corner(m * n, 0.0);
  std::vector<double> supply = p.supply, demand = p.capacity;
  for (std::size_t i = 0, j = 0; i < m && j < n;) {
    const double q = std::min(supply[i], demand[j]);
    corner[i * n + j] = q;
    supply[i] -= q;
    demand[j] -= q;
    if (supply[i] == 0.0) ++i;
    if (demand[j] == 0.0) ++j;
  }
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(dense_flow(r, m * n), corner);
}

// The radix order of a list of cells is the order a stable comparison sort
// by cost gives: negative and positive costs, exact duplicates, -0.0 next to
// +0.0, subnormals and big-M magnitudes, over every cell in index order (the
// cold start), a subset in index order (the warm phases) and a subset in any
// order.
TEST(Transportation, LeastCostOrderMatchesStableSort) {
  util::Rng rng(0x50F7ull);
  const double pool[] = {-0.0, 0.0, -1.5, 1.5, 3.0, -1e-310, 1e-310,
                         7.0e13, -7.0e13, 1e6};
  for (int t = 0; t < 1500; ++t) {
    const auto size = static_cast<std::size_t>(rng.range(1, 400));
    std::vector<double> cost;
    for (std::size_t c = 0; c < size; ++c)
      cost.push_back(rng.bernoulli(0.5) ? pool[rng.below(std::size(pool))]
                                        : rng.uniform(-100.0, 100.0));
    std::vector<std::uint32_t> cells;
    const double share = t % 3 == 0 ? 1.0 : rng.uniform(0.0, 1.0);
    for (std::uint32_t c = 0; c < size; ++c)
      if (rng.bernoulli(share)) cells.push_back(c);
    if (t % 3 == 2) std::shuffle(cells.begin(), cells.end(), rng);
    std::vector<std::uint32_t> expected = cells;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return cost[a] < cost[b];
                     });
    EXPECT_EQ(least_cost_order(cost, &cells), expected) << "instance " << t;
    if (t % 3 == 0) {  // every cell in index order: the cold start's call
      EXPECT_EQ(least_cost_order(cost), expected) << "instance " << t;
    }
  }
}

TEST(Transportation, CostSizeMismatchThrows) {
  TransportationProblem p;
  p.supply = {1.0};
  p.capacity = {1.0};
  p.cost = {1.0, 2.0};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
}

TEST(Transportation, DegenerateTiesTerminate) {
  // All costs equal and supplies exactly matching capacities: maximally
  // degenerate; any assignment is optimal.
  TransportationProblem p;
  p.supply = {2, 2, 2};
  p.capacity = {2, 2, 2};
  p.cost = std::vector<double>(9, 1.0);
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-9);
}

// Each simplex solve reports its two phases: building the initial basis and
// the pivot loop. A solve that never reaches the simplex reports neither.
TEST(Transportation, ExportsStartAndPivotTimes) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  obs::Histogram& start = registry.histogram("dust_solver_start_ms");
  obs::Histogram& pivot = registry.histogram("dust_solver_pivot_ms");
  const std::uint64_t starts = start.count();
  const std::uint64_t pivots = pivot.count();
  TransportationProblem p;
  p.supply = {300, 400, 500};
  p.capacity = {250, 350, 600};
  p.cost = {3, 1, 7, 2, 6, 5, 8, 3, 3};
  ASSERT_TRUE(solve_transportation(p).optimal());
  EXPECT_EQ(start.count(), starts + 1);
  EXPECT_EQ(pivot.count(), pivots + 1);
  p.capacity = {1, 1, 1};  // short of supply: rejected before any pivot
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
  EXPECT_EQ(start.count(), starts + 1);
  EXPECT_EQ(pivot.count(), pivots + 1);
}

// Each simplex solve also records its pivot count, once per solve.
TEST(Transportation, ExportsPivotCount) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  const auto pivots = [&registry]() -> obs::NamedHistogramSnapshot {
    const obs::RegistrySnapshot snapshot = registry.snapshot();
    const obs::NamedHistogramSnapshot* h =
        snapshot.find_histogram("dust_solver_pivots");
    return h ? *h : obs::NamedHistogramSnapshot{};
  };
  const obs::NamedHistogramSnapshot before = pivots();
  TransportationProblem p;
  p.supply = {300, 400, 500};
  p.capacity = {250, 350, 600};
  p.cost = {3, 1, 7, 2, 6, 5, 8, 3, 3};
  const TransportationResult first = solve_transportation(p);
  ASSERT_TRUE(first.optimal());
  p.cost = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  const TransportationResult second = solve_transportation(p);
  ASSERT_TRUE(second.optimal());
  const obs::NamedHistogramSnapshot after = pivots();
  EXPECT_EQ(after.count, before.count + 2);
  EXPECT_DOUBLE_EQ(after.sum - before.sum,
                   static_cast<double>(first.iterations + second.iterations));
}

// A heavily forbidden (big-M) instance whose supply the allowed cells cannot
// carry: pricing noise on the big-M potentials kept it pivoting until the
// iteration limit, even under Bland's rule. The max-flow probe once the
// pivots reach 2(m+n) reports it infeasible there. Found by seeded search
// over 25x26 continuous instances with 75-80% forbidden cells.
TEST(Transportation, IterationLimitOnShortfallIsInfeasible) {
  util::Rng rng(16);
  const double forbidden = rng.uniform(0.75, 0.8);
  TransportationProblem p;
  for (int i = 0; i < 25; ++i) p.supply.push_back(rng.uniform(0.5, 20.0));
  const double total = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  for (int j = 0; j < 26; ++j)
    p.capacity.push_back(1.3 * total / 26 + rng.uniform(0.0, 5.0));
  for (int c = 0; c < 25 * 26; ++c)
    p.cost.push_back(rng.bernoulli(forbidden) ? kInfinity
                                              : rng.uniform(0.1, 10.0));
  const TransportationResult r = solve_transportation(p);
  EXPECT_EQ(r.status, Status::kInfeasible);
  // 2 * (m + n) over 26 balanced rows, not the whole 100 * (m + n)^2 + 1000
  // budget: the verdict comes from the probe, not from the simplex.
  EXPECT_EQ(r.iterations, 2u * 52);
}

// The largest shipment over the allowed cells, as a plain max flow:
// source -> row i (supply) -> allowed cell -> column j (capacity) -> sink.
double max_flow(const TransportationProblem& p) {
  const std::size_t m = p.sources(), n = p.destinations();
  MinCostFlow flow(m + n + 2);
  for (std::size_t i = 0; i < m; ++i) flow.add_arc(m + n, i, p.supply[i], 0.0);
  for (std::size_t cell = 0; cell < m * n; ++cell)
    if (p.cost[cell] != kInfinity)
      flow.add_arc(cell / n, m + cell % n, kInfinity, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    flow.add_arc(m + j, m + n + 1, p.capacity[j], 0.0);
  return flow.solve(m + n, m + n + 1).max_flow;
}

// Row and column sums of a partial optimum stay within supply and capacity,
// and no flow uses a forbidden cell.
void expect_partial_feasible(const TransportationProblem& p,
                             const TransportationResult& r) {
  const std::size_t m = p.sources(), n = p.destinations();
  const std::vector<double> flow = dense_flow(r, m * n);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_LE(row_sum(flow, i, n), p.supply[i] + 1e-7);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_LE(col_sum(flow, j, m, n), p.capacity[j] + 1e-7);
  for (std::size_t cell = 0; cell < m * n; ++cell) {
    if (p.cost[cell] == kInfinity) {
      EXPECT_EQ(flow[cell], 0.0);
    }
  }
}

// With unit weights the partial solve's phase 1 is a max flow over the
// allowed cells (the infeasibility probe's question): it ships what
// MinCostFlow's max flow ships, on grids up to 71x178 with 0-99% of the
// cells forbidden, where 95-99% leaves long chains of single routes.
TEST(TransportationPartial, UnitWeightsShipTheMaxFlow) {
  util::Rng rng(2311);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {3, 5}, {8, 4}, {25, 26}, {40, 90}, {71, 178}};
  const std::vector<double> forbidden = {0.0, 0.5, 0.8, 0.95, 0.99};
  for (const auto& [m, n] : shapes) {
    for (const double share : forbidden) {
      TransportationProblem p;
      for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(0.5, 20.0));
      const double total = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
      for (std::size_t j = 0; j < n; ++j)
        p.capacity.push_back(rng.uniform(0.2, 1.6) * total / static_cast<double>(n));
      for (std::size_t c = 0; c < m * n; ++c)
        p.cost.push_back(rng.bernoulli(share) ? kInfinity : rng.uniform(0.1, 10.0));
      const std::vector<double> unit(m, 1.0);
      const TransportationResult r = solve_transportation_partial(p, unit);
      ASSERT_TRUE(r.optimal()) << m << 'x' << n << " share " << share;
      double shipped = 0.0;
      for (const TransportationCell& c : r.cells) shipped += c.flow;
      const double reference = max_flow(p);
      EXPECT_NEAR(shipped, reference, 1e-9 * (1.0 + reference))
          << m << 'x' << n << " share " << share;
      expect_partial_feasible(p, r);
      // The exact solve's verdict is the same question.
      EXPECT_EQ(solve_transportation(p).optimal(),
                reference + 1e-9 * (1.0 + total) >= total)
          << m << 'x' << n << " share " << share;
    }
  }
}

// Weights pick which rows ship: one column of capacity 4 reachable from two
// rows of supply 3. Weighted 1 and 2, the second row ships all it has and
// the first the rest, whatever the costs say; among shipments of equal
// weight the cheaper one wins.
TEST(TransportationPartial, WeightsThenCost) {
  TransportationProblem p;
  p.supply = {3.0, 3.0};
  p.capacity = {4.0};
  p.cost = {1.0, 5.0};
  const std::vector<double> heavy_second = {1.0, 2.0};
  TransportationResult r = solve_transportation_partial(p, heavy_second);
  ASSERT_TRUE(r.optimal());
  std::vector<double> flow = dense_flow(r, 2);
  EXPECT_NEAR(flow[0], 1.0, 1e-12);
  EXPECT_NEAR(flow[1], 3.0, 1e-12);
  EXPECT_NEAR(r.objective, 16.0, 1e-12);
  const std::vector<double> equal = {1.0, 1.0};
  r = solve_transportation_partial(p, equal);
  ASSERT_TRUE(r.optimal());
  flow = dense_flow(r, 2);
  EXPECT_NEAR(flow[0], 3.0, 1e-12);
  EXPECT_NEAR(flow[1], 1.0, 1e-12);
  EXPECT_NEAR(r.objective, 8.0, 1e-12);
}

// A feasible problem ships in full at the exact solve's optimum; an empty
// one ships nothing; bad weights are rejected.
TEST(TransportationPartial, FeasibleEmptyAndInvalid) {
  TransportationProblem p;
  p.supply = {300, 400, 500};
  p.capacity = {250, 350, 600};
  p.cost = {3, 1, 7, 2, 6, 5, 8, 3, 3};
  const std::vector<double> unit(3, 1.0);
  const TransportationResult partial = solve_transportation_partial(p, unit);
  ASSERT_TRUE(partial.optimal());
  EXPECT_NEAR(partial.objective, solve_transportation(p).objective, 1e-9);
  EXPECT_TRUE(partial.potentials.empty());
  EXPECT_TRUE(solve_transportation_partial(TransportationProblem{}, {}).optimal());
  const std::vector<double> zero = {1.0, 0.0, 1.0};
  EXPECT_THROW((void)solve_transportation_partial(p, zero), std::invalid_argument);
  EXPECT_THROW((void)solve_transportation_partial(p, {unit.data(), 2}),
               std::invalid_argument);
}

// The optimal potentials price every basic cell at zero reduced cost and
// no allowed cell below the pivot tolerance; a slack row's potential is
// left out.
TEST(Transportation, PotentialsAreOptimalDuals) {
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 2 + rng.below(8), n = 2 + rng.below(8);
    TransportationProblem p;
    for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(1.0, 10.0));
    const double total = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j)
      p.capacity.push_back(rng.uniform(1.2, 2.0) * total / static_cast<double>(n));
    for (std::size_t c = 0; c < m * n; ++c) p.cost.push_back(rng.uniform(0.1, 5.0));
    const TransportationResult r = solve_transportation(p);
    ASSERT_TRUE(r.optimal());
    ASSERT_EQ(r.potentials.size(), m + n);
    const auto reduced = [&](std::size_t cell) {
      return p.cost[cell] - r.potentials[cell / n] - r.potentials[m + cell % n];
    };
    for (const TransportationCell& c : r.cells) EXPECT_NEAR(reduced(c.index), 0.0, 1e-9);
    for (std::size_t cell = 0; cell < m * n; ++cell) EXPECT_GE(reduced(cell), -1e-9);
  }
}

class TransportationRandomSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

// Property: the specialized solver and the general simplex agree on the
// optimum, and the flow satisfies all constraints.
TEST_P(TransportationRandomSweep, AgreesWithSimplexAndFeasible) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 1 + rng.below(4);
    const std::size_t n = 1 + rng.below(5);
    TransportationProblem p;
    for (std::size_t i = 0; i < m; ++i)
      p.supply.push_back(rng.uniform(0.0, 10.0));
    const double total =
        std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
    // Guarantee feasibility: capacities cover supply with slack.
    for (std::size_t j = 0; j < n; ++j)
      p.capacity.push_back(total / n + rng.uniform(0.0, 5.0));
    for (std::size_t c = 0; c < m * n; ++c)
      p.cost.push_back(rng.uniform(0.1, 9.0));
    const TransportationResult r = solve_transportation(p);
    ASSERT_EQ(r.status, Status::kOptimal) << "seed " << GetParam();
    // Feasibility invariants.
    const std::vector<double> flow = dense_flow(r, m * n);
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(row_sum(flow, i, n), p.supply[i], 1e-6);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_LE(col_sum(flow, j, m, n), p.capacity[j] + 1e-6);
    for (double f : flow) EXPECT_GE(f, -1e-9);
    // Optimality: simplex agreement.
    const Solution s = solve_simplex(to_linear_program(p));
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, s.objective, 1e-5);
  }
}

// Property: tight instances (capacity == supply exactly) stay solvable.
TEST_P(TransportationRandomSweep, TightInstances) {
  util::Rng rng(GetParam() ^ 0x7777);
  const std::size_t m = 3, n = 3;
  TransportationProblem p;
  double total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    p.supply.push_back(rng.uniform(1.0, 5.0));
    total += p.supply.back();
  }
  p.capacity = {total / 3, total / 3, total / 3};
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.uniform(0.5, 3.0));
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  const Solution s = solve_simplex(to_linear_program(p));
  EXPECT_NEAR(r.objective, s.objective, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportationRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(ToLinearProgram, StructureMatches) {
  TransportationProblem p;
  p.supply = {3, 4};
  p.capacity = {5, 6, 7};
  p.cost = {1, 2, kInfinity, 4, 5, 6};
  const LinearProgram lp = to_linear_program(p);
  EXPECT_EQ(lp.variable_count(), 6u);
  EXPECT_EQ(lp.constraint_count(), 5u);  // 2 supply + 3 capacity
  // Forbidden cell is fixed at zero.
  EXPECT_DOUBLE_EQ(lp.variable(2).upper, 0.0);
}

}  // namespace
}  // namespace dust::solver
