// Ablation: zone size (paper §V-B recommends <= 80-node zones). Sweeps the
// zone cap on an 8-k fat-tree and reports the optimization-cost premium and
// runtime vs one global solve — quantifying the zoning trade-off the paper
// states qualitatively.
#include <iostream>

#include "bench_common.hpp"
#include "core/zones.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dust;
  bench::print_header(
      "Ablation — zone size vs cost premium and runtime (8-k fat-tree)",
      "smaller zones cut runtime, pay a cost premium, and may strand load");

  const std::size_t runs = bench::iterations(20, 6);
  const std::size_t zone_sizes[] = {10, 20, 40, 80};

  core::OptimizerOptions options;
  options.placement.max_hops = 4;
  options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
  options.allow_partial = true;

  util::Table table("zone size sweep");
  table.set_precision(4).header({"zone_cap", "zones", "avg_premium_%",
                                 "avg_unplaced_%cap", "avg_time_s",
                                 "global_time_s"});

  util::Rng root(bench::base_seed());
  for (std::size_t zone_size : zone_sizes) {
    util::RunningStats premium, unplaced, zoned_s, global_s;
    std::size_t zone_count = 0;
    for (std::size_t i = 0; i < runs; ++i) {
      util::Rng rng = root.fork(i);
      core::Nmdb nmdb = bench::fat_tree_scenario(8, rng);
      const core::PlacementResult global =
          core::OptimizationEngine(options).run(nmdb);
      const core::ZonedResult zoned =
          core::optimize_by_zones(nmdb, zone_size, options);
      zone_count = zoned.zones;
      global_s.add(global.build_seconds + global.solve_seconds);
      zoned_s.add(zoned.total_seconds);
      unplaced.add(zoned.unplaced);
      if (global.objective > 0 && zoned.unplaced <= global.unplaced + 1e-9)
        premium.add((zoned.objective / global.objective - 1.0) * 100.0);
    }
    table.row({static_cast<std::int64_t>(zone_size),
               static_cast<std::int64_t>(zone_count), premium.mean(),
               unplaced.mean(), zoned_s.mean(), global_s.mean()});
  }
  bench::emit(table);
  std::cout << "\nexpectation: premium and unplaced shrink as zones grow "
               "toward the whole network; the paper's 80-node cap keeps both "
               "small\n";
  return 0;
}
