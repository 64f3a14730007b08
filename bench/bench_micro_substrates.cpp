// Micro-benchmarks (google-benchmark) for the hot substrate paths: Gorilla
// compression, TSDB queries, hop-bounded path evaluation, the full
// placement pipeline at small scale, and the virtual-time message path
// (event queue, transport send and delivery).
#include <benchmark/benchmark.h>

#include <memory>

#include "core/heuristic.hpp"
#include "core/optimizer.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "sim/event_queue.hpp"
#include "sim/transport.hpp"
#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"

namespace {

using namespace dust;

void BM_GorillaAppend(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<telemetry::Sample> samples;
  double v = 50.0;
  for (int i = 0; i < 1024; ++i) {
    v += rng.uniform(-0.5, 0.5);
    samples.push_back({1000LL * i, v});
  }
  for (auto _ : state) {
    telemetry::CompressedBlock block;
    for (const auto& s : samples) block.append(s);
    benchmark::DoNotOptimize(block.compressed_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

void BM_GorillaDecode(benchmark::State& state) {
  util::Rng rng(1);
  telemetry::CompressedBlock block;
  double v = 50.0;
  for (int i = 0; i < 1024; ++i) {
    v += rng.uniform(-0.5, 0.5);
    block.append({1000LL * i, v});
  }
  for (auto _ : state) benchmark::DoNotOptimize(block.decode());
  state.SetItemsProcessed(state.iterations() * 1024);
}

void BM_TsdbRangeQuery(benchmark::State& state) {
  telemetry::Tsdb db;
  const auto id = db.register_metric({"cpu", "%", telemetry::MetricKind::kGauge});
  util::Rng rng(2);
  for (int i = 0; i < 100000; ++i)
    db.append(id, {100LL * i, rng.uniform(0, 100)});
  for (auto _ : state)
    benchmark::DoNotOptimize(db.query(id, 5000000, 6000000));
}

void BM_HopBoundedDp(benchmark::State& state) {
  const graph::FatTree ft(static_cast<std::uint32_t>(state.range(0)));
  std::vector<double> cost(ft.graph().edge_count(), 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::hop_bounded_min_cost(ft.graph(), 0, cost, 6));
}
BENCHMARK(BM_HopBoundedDp)->Arg(4)->Arg(8)->Arg(16);

void BM_PathEnumeration(benchmark::State& state) {
  const graph::FatTree ft(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::count_simple_paths(
        ft.graph(), ft.edge_switch(0, 0), ft.edge_switch(1, 0),
        static_cast<std::uint32_t>(state.range(0))));
}
BENCHMARK(BM_PathEnumeration)->Arg(4)->Arg(6)->Arg(8);

core::Nmdb bench_scenario(std::uint32_t k) {
  util::Rng rng(7);
  net::NetworkState s = net::make_random_state(
      graph::FatTree(k).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  return core::Nmdb(std::move(s), core::Thresholds{});
}

void BM_PlacementPipelineFrontier(benchmark::State& state) {
  core::Nmdb nmdb = bench_scenario(static_cast<std::uint32_t>(state.range(0)));
  core::OptimizerOptions options;
  options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
  options.allow_partial = true;
  const core::OptimizationEngine engine(options);
  for (auto _ : state) benchmark::DoNotOptimize(engine.run(nmdb));
}
BENCHMARK(BM_PlacementPipelineFrontier)->Arg(4)->Arg(8);

void BM_HeuristicEngine(benchmark::State& state) {
  core::Nmdb nmdb = bench_scenario(static_cast<std::uint32_t>(state.range(0)));
  const core::HeuristicEngine engine;
  for (auto _ : state) benchmark::DoNotOptimize(engine.run(nmdb));
}
BENCHMARK(BM_HeuristicEngine)->Arg(4)->Arg(8)->Arg(16);

/// The event core alone on a STAT-round shape: Arg(0) one-second timers
/// fire in the same ms, each scheduling a 1 ms one-shot (its delivery),
/// and an eighth as many 10 s timers (keepalive checks) live beyond the
/// ring. One iteration is one simulated second; reports events per second.
void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  std::size_t deliveries = 0;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
  for (std::size_t i = 0; i < timers; ++i)
    tasks.push_back(std::make_unique<sim::PeriodicTask>(
        sim, 0, 1000, [&sim, &deliveries](sim::TimeMs) {
          sim.schedule(1, [&deliveries] { ++deliveries; });
        }));
  for (std::size_t i = 0; i < timers / 8; ++i)
    tasks.push_back(std::make_unique<sim::PeriodicTask>(
        sim, static_cast<sim::TimeMs>(i), 10000, [](sim::TimeMs) {}));
  std::size_t events = 0;
  for (auto _ : state) events += sim.run_until(sim.now() + 1000);
  benchmark::DoNotOptimize(deliveries);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(64)->Arg(1280);

/// A STAT round: Arg(0) clients each send one message to the manager, then
/// the simulator delivers them; reports messages per second.
void BM_TransportSendDeliver(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(3));
  std::uint64_t received = 0;
  transport.register_endpoint("dust-manager",
                              [&received](const sim::Envelope& envelope) {
                                received += envelope.trace_id;
                              });
  std::vector<std::string> names;
  for (std::size_t i = 0; i < clients; ++i)
    names.push_back("dust-client-" + std::to_string(1000 + i));
  const std::string manager = "dust-manager";
  for (auto _ : state) {
    for (std::size_t i = 0; i < clients; ++i)
      transport.send(names[i], manager, static_cast<int>(i),
                     sim::Priority::kNormal, "stat", 1);
    sim.run_until(sim.now() + 1);
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
}
BENCHMARK(BM_TransportSendDeliver)->Arg(64)->Arg(1280);

BENCHMARK(BM_GorillaAppend);
BENCHMARK(BM_GorillaDecode);
BENCHMARK(BM_TsdbRangeQuery);

}  // namespace

BENCHMARK_MAIN();
