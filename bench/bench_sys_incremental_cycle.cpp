// System bench: incremental placement pipeline (DESIGN.md §8) vs cold
// recompute on the k=8 fat-tree. Both runners replay the *same* seeded link
// churn; the incremental one adds the dirty-aware Trmin cache and solver
// warm starts, the cold one rebuilds the model and solves from scratch each
// cycle (the pre-incremental behaviour). Three churn regimes:
//
//   steady-jitter   10% of links drift by <=3% per cycle — inside the 5%
//                   epsilon band, the telemetry steady state the pipeline
//                   targets (acceptance: >= 2x here)
//   hot-links       the same jitter plus 4 fixed links random-walking hard
//                   (up to ~33%/cycle, sweeping the whole utilization range
//                   over the run) — localized congestion is autocorrelated:
//                   a hot link stays hot, it does not teleport. Partial
//                   invalidation territory.
//   scattered-heavy 10% of links per cycle with heavy-tailed moves — most
//                   are moderate drift, one in five is a large burst
//                   (0.4x-2.2x). The burst links genuinely change Trmin
//                   rows (no correct cache can serve those); the drift is
//                   what Lu quantization must absorb.
//
// A fourth record times ResponseTimeCache::begin_cycle alone on the k=32
// fat-tree, the cache sync a manager pays every placement period: 10% of
// links jitter by up to 3% per cycle (all dirty at link epsilon 0), once
// with no cached row and once with 32 shared-frontier rows re-cached
// between syncs.
//
// Results land in BENCH_incremental_cycle.json, and the cache/warm counters
// are printed via a dust::obs scrape so the speedup is attributable.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "net/response_cache.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace {

using namespace dust;

enum class Pattern { kSteadyJitter, kHotLinks, kScatteredHeavy };

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::kSteadyJitter: return "steady-jitter";
    case Pattern::kHotLinks: return "hot-links";
    case Pattern::kScatteredHeavy: return "scattered-heavy";
  }
  return "?";
}

void jitter_links(net::NetworkState& net, util::Rng& rng, double fraction,
                  double lo, double hi) {
  const auto count =
      static_cast<std::size_t>(static_cast<double>(net.edge_count()) * fraction);
  for (std::size_t i = 0; i < count; ++i) {
    const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
    net::LinkState state = net.link(e);
    state.utilization = std::clamp(state.utilization * rng.uniform(lo, hi),
                                   0.01, 1.0);
    net.set_link(e, state);
  }
}

void churn(net::NetworkState& net, util::Rng& rng, Pattern pattern) {
  switch (pattern) {
    case Pattern::kSteadyJitter:
      // 10% of links per cycle, moves well inside the 5% epsilon band.
      jitter_links(net, rng, 0.10, 0.97, 1.03);
      break;
    case Pattern::kHotLinks: {
      jitter_links(net, rng, 0.10, 0.97, 1.03);
      // Congested links random-walk: large multiplicative steps that sweep
      // [0.2, 0.95] over the run, but consecutive cycles are correlated the
      // way real congestion is (a queue drains or builds, it does not
      // teleport across the utilization range each placement period).
      for (graph::EdgeId e = 0; e < 4; ++e) {
        net::LinkState state = net.link(e);
        state.utilization =
            std::clamp(state.utilization * rng.uniform(0.75, 1.33), 0.2, 0.95);
        net.set_link(e, state);
      }
      break;
    }
    case Pattern::kScatteredHeavy: {
      // Heavy-tailed churn across the whole topology: every cycle 10% of
      // links move, mostly moderate drift with a 20% chance of a large
      // burst. The bursts dirty rows all over the fat-tree; the drift is
      // the "small nonzero delta" traffic that used to flush every row.
      const auto count = net.edge_count() / 10;
      for (std::size_t i = 0; i < count; ++i) {
        const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
        net::LinkState state = net.link(e);
        const double factor = rng.below(5) == 0 ? rng.uniform(0.4, 2.2)
                                                : rng.uniform(0.85, 1.18);
        state.utilization =
            std::clamp(state.utilization * factor, 0.01, 1.0);
        net.set_link(e, state);
      }
      break;
    }
  }
}

struct RunStats {
  double ms_per_cycle = 0.0;
  net::ResponseTimeCacheStats cache;
  std::size_t warm_solves = 0;
  std::size_t cold_solves = 0;
};

RunStats run_cycles(Pattern pattern, bool incremental, std::size_t cycles,
                    double lu_quantum = 0.0, double reprice_epsilon = 0.0) {
  util::Rng rng(bench::base_seed());
  core::Nmdb nmdb = bench::fat_tree_scenario(8, rng);
  nmdb.network().set_link_epsilon(0.05);

  net::ResponseTimeCache cache;
  cache.set_lu_quantum(lu_quantum);
  cache.set_reprice_epsilon(reprice_epsilon);
  core::OptimizerOptions options;
  options.placement.max_hops = 4;
  options.placement.evaluator = net::EvaluatorMode::kEnumerate;
  options.placement.solver_threads = 0;  // the whole pool
  options.allow_partial = true;
  if (incremental) {
    options.placement.response_cache = &cache;
    options.warm_start = true;
  }
  const core::OptimizationEngine engine(options);

  // Warm-up cycle: pays the first full build on both runners so the timed
  // region measures steady-state cycles only.
  if (incremental) cache.begin_cycle(nmdb.network());
  (void)engine.run(nmdb);

  util::Timer timer;
  for (std::size_t c = 0; c < cycles; ++c) {
    churn(nmdb.network(), rng, pattern);
    if (incremental) cache.begin_cycle(nmdb.network());
    (void)engine.run(nmdb);
  }
  RunStats stats;
  stats.ms_per_cycle = timer.millis() / static_cast<double>(cycles);
  stats.cache = cache.stats();
  stats.warm_solves = engine.warm_solves();
  stats.cold_solves = engine.cold_solves();
  return stats;
}

struct SyncRow {
  std::size_t cached_rows = 0;
  double ms_per_cycle = 0.0;  ///< begin_cycle alone
  std::uint64_t invalidations = 0;
};

constexpr std::uint32_t kSyncK = 32;

SyncRow run_sync_cycles(std::size_t cached_rows, std::size_t cycles) {
  util::Rng rng(bench::base_seed());
  const graph::FatTree topo(kSyncK);
  net::NetworkState net(topo.graph());
  for (graph::EdgeId e = 0; e < net.edge_count(); ++e)
    net.set_link(e, net::LinkState{10000.0, rng.uniform(0.2, 0.9)});
  net::ResponseTimeCache cache;
  const net::ResponseTimeOptions options{4, net::EvaluatorMode::kSharedFrontier,
                                         0};
  cache.begin_cycle(net);
  SyncRow row;
  row.cached_rows = cached_rows;
  for (std::size_t c = 0; c < cycles; ++c) {
    // Re-cache the rows the last sync dropped (a hit for the survivors).
    for (std::size_t i = 0; i < cached_rows; ++i)
      (void)cache.row(net,
                      static_cast<graph::NodeId>(i * net.node_count() /
                                                 cached_rows),
                      1.0, options);
    jitter_links(net, rng, 0.10, 0.97, 1.03);
    const util::Timer timer;
    cache.begin_cycle(net);
    row.ms_per_cycle += timer.millis();
  }
  row.ms_per_cycle /= static_cast<double>(cycles);
  row.invalidations = cache.stats().invalidations;
  return row;
}

struct ScenarioRow {
  Pattern pattern;
  RunStats cold;
  RunStats incremental;
  RunStats quantized;  ///< incremental + Lu bucket quantization
  [[nodiscard]] double speedup() const {
    return incremental.ms_per_cycle > 0.0
               ? cold.ms_per_cycle / incremental.ms_per_cycle
               : 0.0;
  }
};

/// Multiplicative Lu bucket width for the quantized runner: utilization moves
/// inside a ~50% multiplicative band keep a dirty link's cached cost
/// representative, so drift traffic stops flushing rows wholesale. The price
/// is bounded staleness — each link cost is served within sqrt(1 + 0.5) ~=
/// 1.22x of exact (see ResponseTimeCache::set_lu_quantum) — the same
/// precision-for-stability trade the epsilon-filtered STAT reporting makes.
constexpr double kLuQuantum = 0.50;

/// Repricing deadband for the quantized runner (see
/// ResponseTimeCache::set_reprice_epsilon): hairline link improvements no
/// longer flush rows whose Trmin they could only shave by < 10%. Together
/// with the Lu buckets this is what lifts the scattered-heavy hit rate —
/// the burst links still invalidate correctly, the drift stops repricing.
constexpr double kRepriceEpsilon = 0.10;

void write_json(const std::vector<ScenarioRow>& rows, std::size_t cycles,
                const std::vector<SyncRow>& sync_rows,
                std::size_t sync_cycles) {
  // Shared dust-bench-v1 schema (see bench_common.hpp): flat records keyed
  // by metric + config so CI can diff against a baseline with one parser.
  bench::JsonReport json("incremental_cycle");
  {
    const graph::FatTree topo(8);
    json.set_topology(topo.graph().node_count(), topo.graph().edge_count());
  }
  const std::string common =
      "topology=fat-tree-k8,cycles=" + std::to_string(cycles);
  for (const ScenarioRow& row : rows) {
    const std::string config =
        "pattern=" + std::string(to_string(row.pattern)) + "," + common;
    json.add("cold_ms_per_cycle", row.cold.ms_per_cycle, "ms", config);
    json.add("incremental_ms_per_cycle", row.incremental.ms_per_cycle, "ms",
             config);
    json.add("speedup", row.speedup(), "x", config);
    json.add("cache_hits", static_cast<double>(row.incremental.cache.hits),
             "count", config);
    json.add("cache_misses",
             static_cast<double>(row.incremental.cache.misses), "count",
             config);
    json.add("cache_hit_rate", row.incremental.cache.hit_rate(), "ratio",
             config);
    json.add("invalidations",
             static_cast<double>(row.incremental.cache.invalidations),
             "count", config);
    json.add("warm_solves",
             static_cast<double>(row.incremental.warm_solves), "count",
             config);
    json.add("cold_solves",
             static_cast<double>(row.incremental.cold_solves), "count",
             config);
    const std::string qconfig = config +
                                ",lu_quantum=" + std::to_string(kLuQuantum) +
                                ",reprice_epsilon=" +
                                std::to_string(kRepriceEpsilon);
    json.add("quantized_ms_per_cycle", row.quantized.ms_per_cycle, "ms",
             qconfig);
    json.add("quantized_cache_hit_rate", row.quantized.cache.hit_rate(),
             "ratio", qconfig);
    json.add("quantized_invalidations",
             static_cast<double>(row.quantized.cache.invalidations), "count",
             qconfig);
  }
  const graph::FatTree sync_topo(kSyncK);
  for (const SyncRow& row : sync_rows) {
    const std::string config =
        "topology=fat-tree-k32,nodes=" +
        std::to_string(sync_topo.graph().node_count()) +
        ",edges=" + std::to_string(sync_topo.graph().edge_count()) +
        ",jitter=0.10,cycles=" + std::to_string(sync_cycles) +
        ",cached_rows=" + std::to_string(row.cached_rows);
    json.add("sync_ms_per_cycle", row.ms_per_cycle, "ms", config);
    json.add("sync_invalidations", static_cast<double>(row.invalidations),
             "count", config);
  }
  json.write();
}

}  // namespace

int main() {
  bench::print_header(
      "System — incremental placement cycle vs cold recompute (k=8 fat-tree)",
      "(acceptance: >= 2x steady-state cycle speedup at <= 10% link churn)");

  const std::size_t cycles = bench::iterations(200, 40);
  obs::MetricRegistry::global().reset();

  std::vector<ScenarioRow> rows;
  for (Pattern pattern : {Pattern::kSteadyJitter, Pattern::kHotLinks,
                          Pattern::kScatteredHeavy}) {
    ScenarioRow row;
    row.pattern = pattern;
    row.cold = run_cycles(pattern, /*incremental=*/false, cycles);
    row.incremental = run_cycles(pattern, /*incremental=*/true, cycles);
    row.quantized = run_cycles(pattern, /*incremental=*/true, cycles,
                               kLuQuantum, kRepriceEpsilon);
    rows.push_back(row);
  }

  util::Table table("incremental placement cycle");
  table.set_precision(3).header({"pattern", "cold ms/cycle", "incr ms/cycle",
                                 "speedup", "hit rate", "quantized hit rate",
                                 "warm solves"});
  for (const ScenarioRow& row : rows)
    table.row({std::string(to_string(row.pattern)), row.cold.ms_per_cycle,
               row.incremental.ms_per_cycle, row.speedup(),
               row.incremental.cache.hit_rate(),
               row.quantized.cache.hit_rate(),
               static_cast<double>(row.incremental.warm_solves)});
  bench::emit(table);

  const std::size_t sync_cycles = bench::iterations(100, 20);
  std::vector<SyncRow> sync_rows;
  for (std::size_t cached_rows : {std::size_t{0}, std::size_t{32}})
    sync_rows.push_back(run_sync_cycles(cached_rows, sync_cycles));
  util::Table sync_table("begin_cycle alone, k=32 fat-tree, 10% link jitter");
  sync_table.set_precision(3).header(
      {"cached rows", "sync ms/cycle", "invalidations"});
  for (const SyncRow& row : sync_rows)
    sync_table.row({static_cast<std::int64_t>(row.cached_rows),
                    row.ms_per_cycle,
                    static_cast<std::int64_t>(row.invalidations)});
  bench::emit(sync_table);
  write_json(rows, cycles, sync_rows, sync_cycles);

  // The obs scrape the acceptance criteria ask for: cache and warm/cold
  // counters accumulated across the incremental runs above.
  std::cout << "\n# obs scrape (dust_net_trmin_cache_* / dust_solver_*)\n";
  const obs::RegistrySnapshot snapshot =
      obs::MetricRegistry::global().snapshot();
  for (const auto& counter : snapshot.counters)
    if (counter.name.find("trmin_cache") != std::string::npos ||
        counter.name.find("dust_solver_warm") != std::string::npos ||
        counter.name.find("dust_solver_cold") != std::string::npos)
      std::cout << counter.name << " " << counter.value << "\n";

  const double steady_speedup = rows.front().speedup();
  bool pass = steady_speedup >= 2.0;
  std::cout << "\nincremental cycle " << (pass ? "PASS" : "FAIL")
            << ": steady-state speedup " << steady_speedup
            << "x (budget >= 2x)\n";

  // Regression floors for the Lu-quantization + reprice-deadband fixes:
  // exact-cost caching decays to ~0% hits under hot-links / scattered-heavy
  // (every cycle some dirty link lands in almost every row's support);
  // bucket representatives, direction-aware invalidation, and the repricing
  // deadband together must keep a meaningful fraction of rows alive.
  // Calibrated values at kLuQuantum = 0.5, kRepriceEpsilon = 0.1 are ~0.61
  // (hot-links) and ~0.20 (scattered-heavy, up from 0.14 before the
  // deadband); floors sit at roughly half so only a real regression trips
  // them.
  const double hot_rate = rows[1].quantized.cache.hit_rate();
  const double scattered_rate = rows[2].quantized.cache.hit_rate();
  const bool hot_ok = hot_rate >= 0.30;
  const bool scattered_ok = scattered_rate >= 0.10;
  std::cout << "quantized hit rate " << (hot_ok && scattered_ok ? "PASS"
                                                                : "FAIL")
            << ": hot-links " << hot_rate << " (floor 0.30), scattered-heavy "
            << scattered_rate << " (floor 0.10)\n";
  pass = pass && hot_ok && scattered_ok;
  return pass ? 0 : 1;
}
