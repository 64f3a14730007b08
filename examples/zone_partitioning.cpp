// Zone partitioning at scale (the paper's §V-B recommendation): split a
// 16-k fat-tree (320 switches) into zones of at most 80 nodes and run the
// optimization per zone. Compares cost and runtime against one global solve.
//
//   ./build/examples/zone_partitioning [k] [zone_size]
#include <cstdlib>
#include <iostream>

#include "core/zones.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace dust;
  const std::uint32_t k =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 16;
  const std::size_t zone_size =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 80;

  util::Rng rng(2024);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(k).graph(), net::LinkProfile{}, net::NodeLoadProfile{},
      rng);
  core::Nmdb nmdb(std::move(state), core::Thresholds{});
  std::cout << k << "-k fat-tree: " << nmdb.node_count() << " nodes, "
            << nmdb.network().edge_count() << " links; "
            << nmdb.busy_nodes().size() << " busy, "
            << nmdb.candidate_nodes().size() << " candidates\n";

  core::OptimizerOptions options;
  options.placement.max_hops = 4;
  options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
  options.placement.solver_threads = 0;  // the whole pool
  options.allow_partial = true;

  util::Timer global_timer;
  const core::PlacementResult global =
      core::OptimizationEngine(options).run(nmdb);
  const double global_seconds = global_timer.seconds();

  util::Timer zoned_timer;
  const core::ZonedResult zoned =
      core::optimize_by_zones(nmdb, zone_size, options);
  const double zoned_seconds = zoned_timer.seconds();

  util::Table table("global vs zoned optimization");
  table.set_precision(4).header(
      {"approach", "zones", "objective_beta", "unplaced_%cap", "wall_s"});
  table.row({std::string("global"), std::int64_t{1}, global.objective,
             global.unplaced, global_seconds});
  table.row({std::string("zoned (<=" + std::to_string(zone_size) + " nodes)"),
             static_cast<std::int64_t>(zoned.zones), zoned.objective,
             zoned.unplaced, zoned_seconds});
  table.print(std::cout);

  std::cout << "\nzoned cost premium: "
            << (global.objective > 0
                    ? (zoned.objective / global.objective - 1.0) * 100.0
                    : 0.0)
            << "% — the price of keeping each optimization within a zone\n";
  return 0;
}
