// Ablation (google-benchmark): the two exact placement backends and the
// general simplex that cross-checks them (oracle O1), on random
// transportation instances of growing size. All return the same optimum
// (asserted in tests); this bench quantifies the cost of generality —
// transportation simplex < min-cost-flow << general simplex.
#include <benchmark/benchmark.h>

#include "check/simplex.hpp"
#include "solver/min_cost_flow.hpp"
#include "solver/transportation.hpp"
#include "util/rng.hpp"

namespace {

using namespace dust;

solver::TransportationProblem make_instance(std::size_t m, std::size_t n,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  solver::TransportationProblem p;
  double total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    p.supply.push_back(rng.uniform(1.0, 20.0));
    total += p.supply.back();
  }
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(total / static_cast<double>(n) + rng.uniform(0.0, 10.0));
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.uniform(0.01, 5.0));
  return p;
}

void BM_Transportation(benchmark::State& state) {
  const auto p = make_instance(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 42);
  for (auto _ : state)
    benchmark::DoNotOptimize(solver::solve_transportation(p));
}

void BM_Simplex(benchmark::State& state) {
  const auto p = make_instance(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 42);
  const check::LinearProgram lp = check::to_linear_program(p);
  for (auto _ : state) benchmark::DoNotOptimize(check::solve_simplex(lp));
}

void BM_MinCostFlow(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto p = make_instance(m, n, 42);
  for (auto _ : state) {
    solver::MinCostFlow mcf(m + n + 2);
    const std::size_t source = m + n, sink = m + n + 1;
    for (std::size_t i = 0; i < m; ++i)
      mcf.add_arc(source, i, p.supply[i], 0.0);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        mcf.add_arc(i, m + j, solver::kInfinity, p.cost[i * n + j]);
    for (std::size_t j = 0; j < n; ++j)
      mcf.add_arc(m + j, sink, p.capacity[j], 0.0);
    benchmark::DoNotOptimize(mcf.solve(source, sink));
  }
}

void SolverSizes(benchmark::internal::Benchmark* bench) {
  bench->Args({4, 8})->Args({10, 20})->Args({20, 40})->Args({40, 80});
}

BENCHMARK(BM_Transportation)->Apply(SolverSizes);
BENCHMARK(BM_MinCostFlow)->Apply(SolverSizes);
BENCHMARK(BM_Simplex)->Apply(SolverSizes);

}  // namespace

BENCHMARK_MAIN();
