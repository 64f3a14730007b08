// Heuristic vs ILP, side by side: run both engines plus the greedy/random
// baselines on the same random fat-tree scenarios and print a comparison of
// cost, completeness, and runtime — the trade-off §V-B discusses.
//
//   ./build/examples/heuristic_vs_ilp [k] [iterations]
#include <cstdlib>
#include <iostream>

#include "core/baselines.hpp"
#include "core/heuristic.hpp"
#include "core/optimizer.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dust;
  const std::uint32_t k =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 8;
  const std::size_t iterations =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 25;

  struct Row {
    util::RunningStats objective, seconds, shipped;
  };
  Row ilp, heuristic, greedy, random_rows;
  std::size_t counted = 0;

  util::Rng root(99);
  for (std::size_t i = 0; i < iterations; ++i) {
    util::Rng rng = root.fork(i);
    net::NetworkState state = net::make_random_state(
        graph::FatTree(k).graph(), net::LinkProfile{}, net::NodeLoadProfile{},
        rng);
    core::Nmdb nmdb(std::move(state), core::Thresholds{});
    if (nmdb.busy_nodes().empty()) continue;
    ++counted;
    const double total_excess = nmdb.total_excess();

    core::OptimizerOptions options;
    options.placement.max_hops = 4;
    options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
    options.allow_partial = true;
    const core::PlacementResult opt = core::OptimizationEngine(options).run(nmdb);
    ilp.objective.add(opt.objective);
    ilp.seconds.add(opt.build_seconds + opt.solve_seconds);
    ilp.shipped.add((total_excess - opt.unplaced) / total_excess * 100.0);

    const core::HeuristicResult h = core::HeuristicEngine().run(nmdb);
    heuristic.objective.add(h.objective);
    heuristic.seconds.add(h.solve_seconds);
    heuristic.shipped.add(100.0 - h.hfr_percent());

    const core::BaselineResult g = core::greedy_nearest_placement(nmdb, 4);
    greedy.objective.add(g.objective);
    greedy.seconds.add(g.solve_seconds);
    greedy.shipped.add((total_excess - g.unplaced) / total_excess * 100.0);

    util::Rng baseline_rng = rng.fork(777);
    const core::BaselineResult r = core::random_placement(nmdb, baseline_rng, 4);
    random_rows.objective.add(r.objective);
    random_rows.seconds.add(r.solve_seconds);
    random_rows.shipped.add((total_excess - r.unplaced) / total_excess * 100.0);
  }

  std::cout << k << "-k fat-tree, " << counted << " scenarios with busy nodes\n";
  util::Table table("placement strategies compared");
  table.set_precision(5).header(
      {"strategy", "avg_objective_beta", "avg_offloaded_%", "avg_time_s"});
  auto add = [&table](const char* name, const Row& row) {
    table.row({std::string(name), row.objective.mean(), row.shipped.mean(),
               row.seconds.mean()});
  };
  add("ILP optimizer (max-hop 4)", ilp);
  add("one-hop heuristic (Alg. 1)", heuristic);
  add("greedy nearest (max-hop 4)", greedy);
  add("random placement (max-hop 4)", random_rows);
  table.print(std::cout);

  std::cout << "\nreading: ILP minimizes cost at full coverage; the heuristic "
               "trades a little coverage (its HFR) for near-zero runtime; "
               "random shows what optimization buys\n";
  return 0;
}
