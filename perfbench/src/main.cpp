// DUST benchmark: one closed-loop workload per run.
//
//   dust_perfbench --workload replan|fleet|fleet_quiet|stream --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]
//                  [--ops-out FILE]
//
// The workload is set up several times (setup_s is the median), half before
// the timed phase and half after it, so the median samples the machine at
// both ends of the run. Ops run one at a time for S seconds of wall time and
// at least kMinOps ops, so p90 always has ten samples beyond it. Each op's
// outputs are checked outside the timed region. With --trace 0 the result
// line carries the end-to-end metrics, taken over the faster half of the
// timed phase (see fastest_blocks); with --trace 1 half the ops run traced
// and the result line carries per-layer self times and counts plus the
// tracing overhead (traced vs untraced op p50). --ops-out
// writes each untraced op's time (ms) and work, one op a line. The last
// stdout line is the JSON result; the exit code is 0 only when every check
// passed.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinOps = 100;
/// Hard stop for slow machines: the run must end well inside its budget.
constexpr double kMaxTimedSeconds = 100.0;

constexpr WorkloadSpec kWorkloads[] = {
    {"replan", 31, 25, make_replan},
    // 20 ops = one 60 s placement period, so every block holds one cycle.
    {"fleet", 9, 20, make_fleet},
    {"fleet_quiet", 9, 20, make_fleet_quiet},
    {"stream", 41, 100, make_stream},
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, printed by every traced run (0 where a workload
/// does not touch the layer). Time metrics are self time per traced op.
constexpr LayerMetric kLayerMetrics[] = {
    {"solver.solve_ms", "ms"},
    {"solver.iterations", "count/op"},
    {"solver.cold_solves", "count/op"},
    {"solver.dirty_resolves", "count/op"},
    {"net.update_ms", "ms"},
    {"net.begin_cycle_ms", "ms"},
    {"net.cache_hit_rate", "ratio"},
    {"net.cache_misses", "count/op"},
    {"net.invalidations", "count/op"},
    {"core.build_ms", "ms"},
    {"core.trmin_cells", "count/op"},
    {"core.cycle_ms", "ms"},
    {"core.offloads_created", "count/op"},
    {"core.releases", "count/op"},
    {"core.redirects", "count/op"},
    {"core.keepalive_failures", "count/op"},
    {"core.relief_s_p50", "s"},
    {"core.relief_s_p90", "s"},
    {"sim.run_ms", "ms"},
    {"sim.msgs_sent", "count/op"},
    {"sim.msgs_delivered", "count/op"},
    {"sim.msgs_dropped", "count/op"},
    {"sim.events", "count/op"},
    {"sim.ns_per_msg", "ns"},
    {"telemetry.append_ms", "ms"},
    {"telemetry.compression_ratio", "ratio"},
    {"dataplane.pump_ms", "ms"},
    {"dataplane.blocks", "count/op"},
    {"dataplane.payload_bytes", "bytes/op"},
    {"wire.leaf_poll_ms", "ms"},
    {"wire.hub_poll_ms", "ms"},
    {"bench.self_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string ops_out;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--ops-out") {
      args.ops_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: dust_perfbench"
                 " --workload replan|fleet|fleet_quiet|stream"
                 " --seed N --seconds S --trace 0|1 [--trace-out FILE]"
                 " [--ops-out FILE]\n";
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads)
    if (args.workload == candidate.name) spec = &candidate;
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Ledger ledger;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::int64_t start = now_ns();
    std::unique_ptr<Workload> instance = spec->make(args.seed);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    instance->check_setup(ledger);
    return instance;
  };
  std::unique_ptr<Workload> workload;
  for (std::size_t i = 0; i < (spec->setups + 1) / 2; ++i) {
    workload.reset();  // one instance alive at a time
    workload = set_up();
  }

  Tracer tracer;
  std::vector<OpSample> plain;
  std::vector<double> traced_ms;
  const std::int64_t timed_start = now_ns();
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        static_cast<double>(now_ns() - timed_start) / 1e9;
    if ((elapsed >= args.seconds && i >= kMinOps) ||
        elapsed >= kMaxTimedSeconds)
      break;
    const std::size_t op_index = ledger.begin_op();
    // Half the ops, in a golden-ratio sequence that no workload's period
    // aliases with (a fleet cycle lands every 20th op).
    const bool traced = args.trace && (i * 0x9E3779B97F4A7C15ull) >> 63;
    tracer.set_enabled(traced);
    tracer.set_op(op_index);
    const std::int64_t untimed = workload->untimed_ns();
    const std::int64_t start = now_ns();
    double work = 0.0;
    {
      Scope root(tracer, "op");
      work = workload->op(tracer);
    }
    const double ms =
        static_cast<double>(now_ns() - start -
                            (workload->untimed_ns() - untimed)) /
        1e6;
    tracer.set_enabled(false);
    if (traced)
      traced_ms.push_back(ms);
    else
      plain.push_back({ms, work});
    workload->check(ledger, op_index);
  }
  workload->finish(ledger);
  const std::size_t ops = ledger.attempted();
  if (!args.ops_out.empty()) {
    std::ofstream out(args.ops_out);
    out << std::setprecision(9);
    for (const OpSample& op : plain) out << op.ms << " " << op.work << "\n";
    if (!out) ledger.fail_run("cannot write ops to " + args.ops_out);
  }

  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    // Timings over the faster half of the timed phase (see kFastShare): a
    // shared host switches between speed regimes ~1.6x apart for seconds at
    // a time, and whole-run percentiles flip with the share of the run each
    // regime got. No op_ms_p50: a median flips at a share near a half
    // whichever ops it is taken over (fleet_quiet medians of two ten-seed
    // sets differed by 32%).
    std::vector<double> fast_ms;
    for (const OpSample& op : fastest_blocks(plain, spec->block_ops,
                                             BlockRank::kMedianMs, kFastShare,
                                             kMinOps))
      fast_ms.push_back(op.ms);
    const std::optional<double> p90 = percentile(fast_ms, 0.9);
    if (!p90) ledger.fail_run("too few ops for p90: " + std::to_string(ops));
    double fast_work = 0.0;
    double fast_s = 0.0;
    for (const OpSample& op : fastest_blocks(plain, spec->block_ops,
                                             BlockRank::kThroughput,
                                             kFastShare, kMinOps)) {
      fast_work += op.work;
      fast_s += op.ms / 1e3;
    }
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["op_ms_p90"] = {p90.value_or(0.0), "ms"};
    metrics["work_per_s"] = {fast_s > 0.0 ? fast_work / fast_s : 0.0, "1/s"};
  } else {
    std::map<std::string, double> layer;
    for (const LayerMetric& m : kLayerMetrics) layer[m.name] = 0.0;
    const double traced_ops =
        static_cast<double>(std::max<std::size_t>(traced_ms.size(), 1));
    for (const auto& [span, self] : tracer.self_ms())
      layer[span == "op" ? "bench.self_ms" : span + "_ms"] = self / traced_ops;
    workload->layer_counts(layer, ops);
    if (layer["sim.msgs_delivered"] > 0.0)
      layer["sim.ns_per_msg"] =
          layer["sim.run_ms"] * 1e6 / layer["sim.msgs_delivered"];
    std::vector<double> plain_ms;
    for (const OpSample& op : plain) plain_ms.push_back(op.ms);
    const std::optional<double> plain_p50 = percentile(plain_ms, 0.5);
    const std::optional<double> traced = percentile(traced_ms, 0.5);
    if (plain_p50 && traced)
      layer["trace.overhead_pct"] = (*traced / *plain_p50 - 1.0) * 100.0;
    for (const LayerMetric& m : kLayerMetrics)
      metrics[m.name] = {layer[m.name], m.unit};
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      tracer.write_json(out);
      if (!out) ledger.fail_run("cannot write trace to " + args.trace_out);
    }
  }

  const auto shape = workload->shape();
  const std::string work_unit = workload->work_unit();
  workload.reset();
  while (setup_s.size() < spec->setups) set_up();  // each dropped at once
  if (!args.trace) metrics["setup_s"] = {median(setup_s), "s"};

  std::cout << "workload " << spec->name << "  seed " << args.seed
            << "  trace " << (args.trace ? 1 : 0) << "\n";
  for (const auto& [key, value] : shape)
    std::cout << "  shape  " << key << ": " << value << "\n";
  std::cout << "  work unit: " << work_unit << "\n"
            << "  setups: " << setup_s.size() << "  ops: " << ops
            << "  failed: " << ledger.failed() << "\n";
  for (const std::string& message : ledger.messages())
    std::cout << "  FAIL " << message << "\n";
  for (const auto& [name, metric] : metrics)
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(16) << metric.value << " " << metric.unit << "\n";
  write_result(std::cout, ledger, metrics);
  return ledger.correct() ? 0 : 1;
}
