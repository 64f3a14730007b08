// Figure 7: Infeasible-Optimization (io) rate vs Δ_io on the 4-k fat-tree.
// Paper: over 1000 iterations the io rate ranges from 69% at Δ_io = 0.8 down
// to 0.2% at Δ_io = 3.5; recommendation K_io >= 2.
//
// Δ_io = (COmax - x_min) / (100 - Cmax)  (Eq. 5). We sweep COmax with
// Cmax = 80, x_min = 10 fixed, so Δ_io = (COmax - 10) / 20.
#include <iostream>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace dust;
  bench::print_header(
      "Figure 7 — infeasible-optimization rate vs Δ_io (4-k fat-tree)",
      "io rate 69% at Δ=0.8 falling to 0.2% at Δ=3.5; choose K_io >= 2");

  const std::size_t runs = bench::iterations(1000, 200);
  const double deltas[] = {0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5};

  util::Table table("Figure 7 — io rate vs Δ_io");
  table.set_precision(2).header(
      {"delta_io", "co_max", "infeasible_%", "iterations"});

  for (double delta : deltas) {
    core::Thresholds thresholds;
    thresholds.c_max = 80.0;
    thresholds.x_min = 10.0;
    thresholds.co_max = 10.0 + 20.0 * delta;
    thresholds.validate();

    std::vector<int> infeasible(runs, 0);
    util::Rng root(bench::base_seed() + static_cast<std::uint64_t>(delta * 100));
    std::vector<util::Rng> streams;
    streams.reserve(runs);
    for (std::size_t i = 0; i < runs; ++i) streams.push_back(root.fork(i));

    util::global_pool().parallel_for(runs, [&](std::size_t i) {
      core::Nmdb nmdb = bench::fat_tree_scenario(4, streams[i], thresholds);
      core::OptimizerOptions options;
      options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
      const core::PlacementResult r = core::OptimizationEngine(options).run(nmdb);
      infeasible[i] = r.optimal() ? 0 : 1;
    });
    int total = 0;
    for (int x : infeasible) total += x;
    table.row({delta, thresholds.co_max,
               100.0 * total / static_cast<double>(runs),
               static_cast<std::int64_t>(runs)});
  }
  bench::emit(table);
  std::cout << "\nexpectation: io rate decreases monotonically in Δ_io; high "
               "(tens of %) below Δ=1, near zero at Δ >= 2\n";
  return 0;
}
