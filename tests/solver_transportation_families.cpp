#include "solver_transportation_families.hpp"

#include <algorithm>
#include <numeric>

#include "util/rng.hpp"

namespace dust::solver::families {

namespace {

// Continuous supplies and costs; capacities cover the supply with slack, so
// the balanced instance carries a dummy row.
TransportationProblem continuous_instance(util::Rng& rng, std::size_t m,
                                          std::size_t n, double forbidden) {
  TransportationProblem p;
  for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(0.5, 20.0));
  const double total = sum(p.supply);
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(1.3 * total / static_cast<double>(n) +
                         rng.uniform(0.0, 5.0));
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.bernoulli(forbidden) ? kInfinity
                                              : rng.uniform(0.1, 10.0));
  return p;
}

// Small-integer supplies, capacities and costs: exact quantity ties and many
// equal-cost cells, the degenerate regime. `zero_columns` is the share of
// destinations with zero capacity.
TransportationProblem integer_instance(util::Rng& rng, std::size_t m,
                                       std::size_t n, double forbidden,
                                       double zero_columns, bool tight) {
  TransportationProblem p;
  for (std::size_t i = 0; i < m; ++i)
    p.supply.push_back(static_cast<double>(rng.range(1, 5)));
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(
        rng.bernoulli(zero_columns) ? 0.0 : static_cast<double>(rng.range(1, 6)));
  // Make capacity cover supply (and, when tight, match it exactly so the
  // balanced instance has no dummy row).
  double deficit = sum(p.supply) - sum(p.capacity);
  for (std::size_t j = 0; deficit > 0; j = (j + 1) % n) {
    p.capacity[j] += 1.0;
    deficit -= 1.0;
  }
  if (tight) {
    for (std::size_t j = 0; deficit < 0; j = (j + 1) % n) {
      if (p.capacity[j] >= 1.0) {
        p.capacity[j] -= 1.0;
        deficit += 1.0;
      }
    }
  }
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.bernoulli(forbidden)
                         ? kInfinity
                         : static_cast<double>(rng.range(1, 4)));
  return p;
}

void reprice(util::Rng& rng, TransportationProblem& p, double share) {
  for (double& c : p.cost) {
    if (c == kInfinity || !rng.bernoulli(share)) continue;
    c = std::max(1e-9, c * rng.uniform(0.5, 2.0));
  }
}

// Solve cold and hand the result on.
void cold(const SolveSink& sink, const TransportationProblem& p) {
  sink(p, solve_transportation(p));
}

// One DegenerateCycling instance (cycling_instance, declared in the header)
// solved cold, then dirty from scratch, then dirty again after repricing 30%
// of its allowed cells.
void cycling_chain(const SolveSink& sink, std::uint64_t seed,
                   bool integer_costs) {
  TransportationProblem p =
      cycling_instance(seed * 7919 + (integer_costs ? 4 : 2), integer_costs);
  cold(sink, p);
  TransportationBasis basis;
  sink(p, solve_transportation_dirty(p, basis));
  util::Rng rng(seed);
  reprice(rng, p, 0.3);
  sink(p, solve_transportation_dirty(p, basis));
}

}  // namespace

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TransportationProblem cycling_instance(std::uint64_t seed, bool integer_costs) {
  util::Rng rng(seed);
  const auto m = static_cast<std::size_t>(rng.range(2, 40));
  const auto n = static_cast<std::size_t>(rng.range(2, 60));
  const double forbidden = rng.uniform(0.3, 0.95);
  const double zero_columns = rng.uniform(0.1, 0.8);
  TransportationProblem p;
  for (std::size_t i = 0; i < m; ++i)
    p.supply.push_back(static_cast<double>(rng.range(1, 5)));
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(
        rng.bernoulli(zero_columns) ? 0.0 : static_cast<double>(rng.range(1, 6)));
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.bernoulli(forbidden) ? kInfinity
                     : integer_costs ? static_cast<double>(rng.range(1, 4))
                                     : rng.uniform(0.001, 100.0));
  return p;
}

void cold_solves(const SolveSink& sink) {
  util::Rng rng(0xC01Dull);
  for (int t = 0; t < 80; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.range(1, 30));
    const std::size_t n = static_cast<std::size_t>(rng.range(1, 60));
    cold(sink, continuous_instance(rng, m, n, 0.0));
  }
  // Placement-cycle sized: the shape of a k=16 fat-tree replan.
  for (int t = 0; t < 3; ++t) cold(sink, continuous_instance(rng, 71, 178, 0.05));
}

void warm_flow_hints(const SolveSink& sink) {
  util::Rng rng(0x3A53ull);
  for (int t = 0; t < 50; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.range(2, 25));
    const std::size_t n = static_cast<std::size_t>(rng.range(2, 50));
    TransportationProblem p = continuous_instance(rng, m, n, 0.1);
    const TransportationResult first = solve_transportation(p);
    sink(p, first);
    reprice(rng, p, 0.2);
    for (double& s : p.supply) s *= rng.uniform(0.95, 1.05);
    sink(p, solve_transportation(p, &first.cells));
    // A hint whose cells lie off the grid is ignored.
    const std::vector<TransportationCell> off_grid = {{p.cost.size(), 1.0}};
    sink(p, solve_transportation(p, &off_grid));
  }
}

void dirty_basis_resolves(const SolveSink& sink) {
  util::Rng rng(0xD127ull);
  for (int t = 0; t < 40; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.range(1, 20));
    const std::size_t n = static_cast<std::size_t>(rng.range(1, 40));
    TransportationProblem p = t % 2 == 0
                                  ? continuous_instance(rng, m, n, 0.1)
                                  : integer_instance(rng, m, n, 0.1, 0.1, t % 4 == 1);
    TransportationBasis basis;
    sink(p, solve_transportation_dirty(p, basis));
    for (int step = 0; step < 5; ++step) {
      reprice(rng, p, 0.15);
      if (rng.bernoulli(0.2)) p.cost[rng.below(p.cost.size())] = kInfinity;
      const TransportationResult r = solve_transportation_dirty(p, basis);
      sink(p, r);
      // The warm-flow hint is ignored on the dirty path but used on a
      // fallback; pass the previous flow like the engine does.
      if (step == 3 && r.optimal()) {
        p.supply[0] += 0.5;
        p.capacity[0] += 0.5;
        sink(p, solve_transportation_dirty(p, basis, &r.cells));
      }
    }
  }
}

void integer_ties(const SolveSink& sink) {
  util::Rng rng(0x71E5ull);
  for (int t = 0; t < 80; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.range(1, 20));
    const std::size_t n = static_cast<std::size_t>(rng.range(1, 30));
    cold(sink, integer_instance(rng, m, n, 0.0, 0.0, t % 2 == 0));
  }
}

void forbidden_cells(const SolveSink& sink) {
  util::Rng rng(0xF0B1ull);
  for (int t = 0; t < 60; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.range(1, 20));
    const std::size_t n = static_cast<std::size_t>(rng.range(1, 30));
    const double forbidden = rng.uniform(0.2, 0.7);
    cold(sink, t % 2 == 0 ? continuous_instance(rng, m, n, forbidden)
                          : integer_instance(rng, m, n, forbidden, 0.0,
                                             t % 4 == 1));
  }
}

void dummy_row_and_infeasible(const SolveSink& sink) {
  util::Rng rng(0xDDDDull);
  for (int t = 0; t < 40; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.range(1, 15));
    const std::size_t n = static_cast<std::size_t>(rng.range(1, 25));
    TransportationProblem p = continuous_instance(rng, m, n, 0.2);
    cold(sink, p);  // dummy row absorbs the slack
    // Exactly balanced: no dummy row.
    const double scale = sum(p.supply) / sum(p.capacity);
    for (double& c : p.capacity) c *= scale;
    cold(sink, p);
    // Capacity short of supply: infeasible before any pivot.
    p.capacity[0] *= 0.5;
    cold(sink, p);
  }
  // Zero total supply, no destinations, single cells.
  TransportationProblem p;
  p.supply = {0.0, 0.0};
  p.capacity = {3.0};
  p.cost = {1.0, 2.0};
  cold(sink, p);
  p.capacity.clear();
  p.cost.clear();
  p.supply = {1.0};
  cold(sink, p);
  p.capacity = {4.0};
  p.cost = {2.5};
  cold(sink, p);
}

void degenerate_cycling(const SolveSink& sink) {
  for (std::uint64_t seed : {148, 373, 514, 1137, 1650, 2756, 2785})
    cycling_chain(sink, seed, false);
  for (std::uint64_t seed : {240, 338, 2948}) cycling_chain(sink, seed, true);
}

void bland_fallbacks(const SolveSink& sink) {
  for (std::uint64_t seed : {388, 610, 713, 795, 1398, 1808})
    cycling_chain(sink, seed, false);
  for (std::uint64_t seed : {37, 40, 872, 1006}) cycling_chain(sink, seed, true);
}

void edge_shapes(const SolveSink& sink) {
  util::Rng rng(0xED6Eull);
  const auto solve_chain = [&](TransportationProblem p) {
    cold(sink, p);
    TransportationBasis basis;
    sink(p, solve_transportation_dirty(p, basis));
    for (int step = 0; step < 3; ++step) {
      reprice(rng, p, 0.4);
      sink(p, solve_transportation_dirty(p, basis));
    }
  };
  for (std::size_t n : {1, 2, 3, 5, 7, 9, 40})
    solve_chain(continuous_instance(rng, 1, n, 0.0));
  for (std::size_t m : {1, 2, 3, 6, 25}) {
    solve_chain(continuous_instance(rng, m, 1, 0.0));
    solve_chain(integer_instance(rng, m, 1, 0.0, 0.0, true));
  }
  for (std::size_t n : {2, 3, 5, 7}) {
    for (int t = 0; t < 6; ++t) {
      const auto m = static_cast<std::size_t>(rng.range(2, 30));
      solve_chain(t % 2 == 0
                      ? continuous_instance(rng, m, n, 0.1 * t)
                      : integer_instance(rng, m, n, 0.1 * t, 0.0, t % 3 == 1));
    }
  }
}

void long_dirty_chains(const SolveSink& sink) {
  util::Rng rng(0xC4A1ull);
  for (int t = 0; t < 8; ++t) {
    const auto m = static_cast<std::size_t>(rng.range(5, 40));
    const auto n = static_cast<std::size_t>(rng.range(5, 80));
    TransportationProblem p = t % 2 == 0
                                  ? continuous_instance(rng, m, n, 0.05)
                                  : integer_instance(rng, m, n, 0.05, 0.1, t % 4 == 1);
    TransportationBasis basis;
    sink(p, solve_transportation_dirty(p, basis));
    for (int step = 0; step < 24; ++step) {
      reprice(rng, p, 0.3);
      sink(p, solve_transportation_dirty(p, basis));
    }
  }
}

void replan_shaped(const SolveSink& sink) {
  util::Rng rng(0x4E91ull);
  constexpr std::size_t m = 71, n = 178;
  TransportationProblem p;
  for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(0.5, 20.0));
  const double total = sum(p.supply);
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(1.5 * total / static_cast<double>(n) +
                         rng.uniform(0.0, 2.0));
  const double levels[] = {0.8, 1.2, 1.6, 2.4, 3.2};
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.bernoulli(0.05) ? kInfinity : levels[rng.below(5)]);
  TransportationResult last = solve_transportation(p);
  sink(p, last);
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (double& s : p.supply)
      if (rng.bernoulli(0.05)) s = rng.uniform(0.5, 20.0);
    if (cycle % 4 == 3)
      for (double& c : p.cost)
        if (c != kInfinity && rng.bernoulli(0.02)) c = levels[rng.below(5)];
    last = solve_transportation(p, last.optimal() ? &last.cells : nullptr);
    sink(p, last);
  }
}

}  // namespace dust::solver::families
