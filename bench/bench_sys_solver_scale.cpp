// System bench: solver & path-engine scaling (DESIGN.md §13).
//
// Three scales, one pipeline — the shared-frontier Trmin evaluator feeding
// the chunked-parallel row fill, the dirty-aware cache, and the dirty-basis
// transportation re-solve:
//
//   fat-tree k=16  320 nodes / 2048 links — the paper's large evaluation
//                  topology; sanity scale for the trajectory.
//   fat-tree k=32  1280 nodes / 16384 links — production-scale fabric.
//                  Acceptance: cold first cycle < 1 s, steady-state
//                  placement cycle < 25 ms.
//   random-100k    10^5 nodes / 1.5*10^5 links — hardware-agnostic sprawl
//                  (§III's "various network topologies"). Acceptance: the
//                  cold build + solve completes (no OOM, no hour-long
//                  enumeration); timing is recorded, not gated.
//
// Fat-tree runs measure a churned steady state: cold first cycle, then
// `cycles` jittered cycles served by the incremental machinery. Results land
// in BENCH_solver_scale.json (dust-bench-v1); per-record configs carry
// nodes=/edges= so bench_compare.py refuses cross-scale comparisons. The
// cold solve's pivot count (`cold_pivots`) repeats exactly from run to run,
// so bench_compare.py fails any rise in it.
//
// The k=16 row also times the partial-offload fallback
// (`partial_ms_per_cycle`): its cold model with every candidate at platform
// factor 0.02, so the exact solve is infeasible and each of 5 solves falls
// back to placing the most load that fits, at least cost.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "net/response_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace dust;

struct ScaleStats {
  std::string label;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t busy = 0;
  std::size_t candidates = 0;
  double cold_ms = 0.0;    ///< first full build + solve
  std::size_t cold_pivots = 0;  ///< simplex pivots of the first solve
  double steady_ms = 0.0;  ///< per churned cycle, incremental pipeline
  double partial_ms = 0.0;  ///< per partial-offload solve (k=16 only)
  double hit_rate = 0.0;
  std::size_t dirty_resolves = 0;
  std::size_t warm_solves = 0;
};

void jitter(net::NetworkState& net, util::Rng& rng) {
  // 10% of links drift <= 3% per cycle — inside the 5% link-epsilon band,
  // the telemetry steady state the incremental pipeline targets (the same
  // regime bench_sys_incremental_cycle gates its speedup on).
  const std::size_t count = net.edge_count() / 10;
  for (std::size_t i = 0; i < count; ++i) {
    const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
    net::LinkState state = net.link(e);
    state.utilization =
        std::clamp(state.utilization * rng.uniform(0.97, 1.03), 0.01, 1.0);
    net.set_link(e, state);
  }
}

core::OptimizerOptions pipeline_options(net::ResponseTimeCache* cache,
                                        std::uint32_t max_hops) {
  core::OptimizerOptions options;
  options.placement.max_hops = max_hops;
  options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
  options.placement.solver_threads = 0;  // the whole pool
  options.placement.response_cache = cache;
  options.allow_partial = true;
  options.warm_start = true;
  return options;
}

// Solves `problem` with every candidate at platform factor 0.02 `solves`
// times on a cold engine; each exact attempt fails and falls back to the
// partial solve. Returns ms per solve, exact attempt included.
double run_partial(core::PlacementProblem problem, std::size_t solves) {
  problem.candidate_factor.assign(problem.candidates.size(), 0.02);
  core::OptimizerOptions options;
  options.allow_partial = true;
  const core::OptimizationEngine engine(options);
  util::Timer timer;
  for (std::size_t s = 0; s < solves; ++s) {
    const core::PlacementResult result = engine.solve(problem);
    if (!result.optimal() || !(result.unplaced > 0.0)) {
      std::cerr << "partial solve did not place a part: "
                << solver::to_string(result.status) << '\n';
      return 0.0;
    }
  }
  return timer.millis() / static_cast<double>(solves);
}

ScaleStats run_fat_tree(std::uint32_t k, std::size_t cycles,
                        std::uint32_t max_hops, std::size_t partial_solves) {
  util::Rng rng(bench::base_seed());
  core::Nmdb nmdb = bench::fat_tree_scenario(k, rng);
  nmdb.network().set_link_epsilon(0.05);

  net::ResponseTimeCache cache;
  cache.set_lu_quantum(0.50);
  cache.set_reprice_epsilon(0.10);
  const core::OptimizationEngine engine(pipeline_options(&cache, max_hops));

  ScaleStats stats;
  stats.label = "fat-tree-k" + std::to_string(k);
  stats.nodes = nmdb.network().node_count();
  stats.edges = nmdb.network().edge_count();

  util::Timer cold_timer;
  cache.begin_cycle(nmdb.network());
  core::PlacementProblem problem;
  stats.cold_pivots = engine.run(nmdb, &problem).solver_iterations;
  stats.cold_ms = cold_timer.millis();
  stats.busy = problem.busy.size();
  stats.candidates = problem.candidates.size();
  if (partial_solves > 0) stats.partial_ms = run_partial(problem, partial_solves);

  util::Timer timer;
  for (std::size_t c = 0; c < cycles; ++c) {
    jitter(nmdb.network(), rng);
    cache.begin_cycle(nmdb.network());
    (void)engine.run(nmdb);
  }
  stats.steady_ms = timer.millis() / static_cast<double>(cycles);
  stats.hit_rate = cache.stats().hit_rate();
  stats.dirty_resolves = engine.dirty_resolves();
  stats.warm_solves = engine.warm_solves();
  return stats;
}

ScaleStats run_random_100k(std::size_t node_count, std::size_t busy_count,
                           std::size_t candidate_count) {
  util::Rng rng(bench::base_seed());
  graph::Graph graph = graph::make_random_connected(
      static_cast<std::uint32_t>(node_count),
      static_cast<std::uint32_t>(node_count / 2), rng);
  net::NetworkState state(std::move(graph));
  net::randomize_links(state, net::LinkProfile{}, rng);
  // Controlled busy/candidate sets: everyone neutral (not busy, not spare),
  // then a scatter of overloaded sources and underloaded destinations. The
  // matrix is busy_count x candidate_count; the path engine still sweeps
  // the full 10^5-node graph once per busy row.
  for (graph::NodeId v = 0; v < state.node_count(); ++v) {
    state.set_node_utilization(v, 70.0);
    state.set_monitoring_data_mb(v, 50.0);
  }
  for (std::size_t i = 0; i < busy_count; ++i)
    state.set_node_utilization(static_cast<graph::NodeId>(rng.below(node_count)),
                               90.0);
  for (std::size_t i = 0; i < candidate_count; ++i) {
    const auto v = static_cast<graph::NodeId>(rng.below(node_count));
    if (state.node_utilization(v) < 85.0) state.set_node_utilization(v, 30.0);
  }
  core::Nmdb nmdb(std::move(state), core::Thresholds{});

  // Hop bound 20 covers the typical inter-node distance of the random
  // topology (~16 at average degree 3) while bounding the frontier sweep's
  // layer memory to 20 rows per worker.
  const core::OptimizationEngine engine(pipeline_options(nullptr, 20));

  ScaleStats stats;
  stats.label = "random-100k";
  stats.nodes = nmdb.network().node_count();
  stats.edges = nmdb.network().edge_count();

  util::Timer cold_timer;
  core::PlacementProblem problem;
  (void)engine.run(nmdb, &problem);
  stats.cold_ms = cold_timer.millis();
  stats.busy = problem.busy.size();
  stats.candidates = problem.candidates.size();
  return stats;
}

void write_json(const std::vector<ScaleStats>& rows, std::size_t cycles) {
  bench::JsonReport json("solver_scale");
  {
    // Top-level topology records the gated scale (k=32); per-record configs
    // carry each row's own nodes=/edges= so cross-scale diffs are refused
    // per record too.
    const graph::FatTree topo(32);
    json.set_topology(topo.graph().node_count(), topo.graph().edge_count());
  }
  for (const ScaleStats& row : rows) {
    const std::string config =
        "topology=" + row.label + ",nodes=" + std::to_string(row.nodes) +
        ",edges=" + std::to_string(row.edges) +
        ",cycles=" + std::to_string(cycles);
    json.add("cold_ms_per_cycle", row.cold_ms, "ms", config);
    if (row.steady_ms > 0.0) {
      json.add("cold_pivots", static_cast<double>(row.cold_pivots), "count",
               config);
      json.add("steady_ms_per_cycle", row.steady_ms, "ms", config);
      json.add("cache_hit_rate", row.hit_rate, "ratio", config);
      json.add("dirty_resolves", static_cast<double>(row.dirty_resolves),
               "count", config);
      json.add("warm_solves", static_cast<double>(row.warm_solves), "count",
               config);
    }
    if (row.partial_ms > 0.0)
      json.add("partial_ms_per_cycle", row.partial_ms, "ms", config);
    json.add("busy_nodes", static_cast<double>(row.busy), "count", config);
    json.add("candidate_nodes", static_cast<double>(row.candidates), "count",
             config);
  }
  json.write();
}

}  // namespace

int main() {
  bench::print_header(
      "System — solver & path-engine scaling (k=16 / k=32 / random-100k)",
      "(acceptance: k=32 cold solve < 1 s; k=32 steady-state cycle < 25 ms; "
      "100k-node cold solve completes)");
  std::cout << "# pool: " << util::global_pool().size() << " workers"
            << " (size via DUST_THREADS)\n";

  const std::size_t cycles = bench::iterations(100, 20);
  std::vector<ScaleStats> rows;
  rows.push_back(run_fat_tree(16, cycles, 4, 5));
  rows.push_back(run_fat_tree(32, cycles, 4, 0));
  rows.push_back(run_random_100k(100000, 64, 2000));

  util::Table table("solver & path-engine scaling");
  table.set_precision(3).header({"scale", "nodes", "edges", "busy", "cand",
                                 "cold ms", "cold pivots", "steady ms/cycle",
                                 "hit rate", "dirty resolves"});
  for (const ScaleStats& row : rows)
    table.row({row.label, static_cast<double>(row.nodes),
               static_cast<double>(row.edges), static_cast<double>(row.busy),
               static_cast<double>(row.candidates), row.cold_ms,
               static_cast<double>(row.cold_pivots), row.steady_ms,
               row.hit_rate, static_cast<double>(row.dirty_resolves)});
  bench::emit(table);
  write_json(rows, cycles);

  std::cout << "\ncold_pivots: k=16 " << rows[0].cold_pivots << ", k=32 "
            << rows[1].cold_pivots << "\n";
  std::cout << "k=16 partial offload (candidates at factor 0.02): "
            << rows[0].partial_ms << " ms/cycle\n";
  const double k32_cold = rows[1].cold_ms;
  const bool k32_cold_ok = k32_cold < 1000.0;
  std::cout << "k=32 cold solve " << (k32_cold_ok ? "PASS" : "FAIL") << ": "
            << k32_cold << " ms (budget < 1 s)\n";
  const double k32_steady = rows[1].steady_ms;
  const bool k32_ok = k32_steady < 25.0;
  std::cout << "k=32 steady-state " << (k32_ok ? "PASS" : "FAIL") << ": "
            << k32_steady << " ms/cycle (budget < 25 ms)\n";
  const bool random_ok = rows.size() > 2 && rows[2].cold_ms > 0.0;
  std::cout << "random-100k cold solve " << (random_ok ? "PASS" : "FAIL")
            << ": " << (rows.size() > 2 ? rows[2].cold_ms : 0.0) << " ms ("
            << (rows.size() > 2 ? rows[2].busy : 0) << " busy x "
            << (rows.size() > 2 ? rows[2].candidates : 0) << " candidates)\n";
  return k32_cold_ok && k32_ok && random_ok ? 0 : 1;
}
