// Scenario CLI: load a scenario file, run the ILP optimizer and the one-hop
// heuristic, and print the offload plans (optionally the topology as DOT).
//
//   ./build/examples/scenario_cli <scenario-file> [max_hops] [--dot]
//   ./build/examples/scenario_cli <scenario-file> --trace <trace-file>
//   ./build/examples/scenario_cli <scenario-file> --trace-out <out.json>
//   ./build/examples/scenario_cli <scenario-file> --obs-top
//   ./build/examples/scenario_cli --demo            # built-in Fig. 4 demo
//   ./build/examples/scenario_cli --attack=capacity-lie|blackhole|flap
//                                 [--topology=fat-tree|random]
//
// --attack runs the crafted byzantine scenario of that kind (DESIGN.md §14)
// twice — trust-blind and trust-weighted — and prints the differential: how
// many of the expected telemetry samples each mode actually delivered, how
// often keepalives failed, and how far the attacker's trust fell. Exit 0
// iff both runs hold every invariant and trust weighting improved delivery.
//
// Scenario format: see src/core/scenario.hpp. Trace format (CSV
// "<time_ms>,<node>,<utilization>[,<data_mb>]"): see src/core/replay.hpp.
// --trace-out runs the scenario live (manager, one DUST-Client per node) and
// writes the reconstructed causal span trees as Perfetto/Chrome trace-event
// JSON (open in ui.perfetto.dev). --transport picks the live run's plumbing:
// "sim" (default) is the in-memory bus; "socket" pushes every message
// through the wire codec and real loopback TCP (manager on a
// wire::SocketTransport hub, all clients on a leaf) — same protocol run,
// bytes actually framed and reassembled.
//
// --obs-top runs the same live protocol and renders the fleet-top dashboard
// (obs::Aggregator::write_top — per-node scrape status, biggest counters,
// histogram tails) once per virtual second when stdout is a terminal, and a
// final dashboard either way. Combines with --trace-out and --transport.
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/attacks.hpp"
#include "check/runner.hpp"
#include "core/client.hpp"
#include "core/heuristic.hpp"
#include "core/manager.hpp"
#include "core/optimizer.hpp"
#include "core/replay.hpp"
#include "core/scenario.hpp"
#include "dataplane/block_streamer.hpp"
#include "dataplane/collector.hpp"
#include "graph/dot.hpp"
#include "obs/aggregator.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "wire/socket_transport.hpp"

namespace {

constexpr const char* kDemoScenario = R"(# paper Fig. 4: S1 busy, S2/S6 candidates
nodes 7
thresholds 80 60 10
edge 0 3 1000 1.0   # e1 S1-S4
edge 3 1 1000 1.0   # e2 S4-S2
edge 3 4 1000 1.0   # e3 S4-S5
edge 4 1 1000 1.0   # e4 S5-S2
edge 1 2 1000 1.0   # e5 S2-S3
edge 2 6 1000 1.0   # e6 S3-S7
edge 3 5 1000 1.0   # e7 S4-S6
load 0 93 80
load 1 42 10
load 5 52 10
load 2 70 10
load 3 70 10
load 4 70 10
load 6 70 10
)";

void print_plan(const std::string& title,
                const std::vector<dust::core::Assignment>& plan) {
  dust::util::Table table(title);
  table.set_precision(4).header({"from", "to", "amount_%cap", "trmin_s"});
  for (const dust::core::Assignment& a : plan)
    table.row({static_cast<std::int64_t>(a.from),
               static_cast<std::int64_t>(a.to), a.amount, a.trmin_seconds});
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dust;
  if (argc < 2) {
    std::cerr << "usage: " << argv[0]
              << " <scenario-file>|--demo [max_hops] [--dot]"
                 " [--trace <csv>] [--trace-out <json>] [--obs-top]"
                 " [--transport=sim|socket]\n       "
              << argv[0]
              << " --attack=capacity-lie|blackhole|flap"
                 " [--topology=fat-tree|random]\n";
    return 2;
  }

  if (std::string(argv[1]).rfind("--attack=", 0) == 0) {
    const std::string which = std::string(argv[1]).substr(9);
    check::AttackKind kind;
    if (which == "capacity-lie") {
      kind = check::AttackKind::kCapacityLie;
    } else if (which == "blackhole") {
      kind = check::AttackKind::kBlackhole;
    } else if (which == "flap") {
      kind = check::AttackKind::kKeepaliveFlap;
    } else {
      std::cerr << "unknown attack '" << which
                << "' (capacity-lie|blackhole|flap)\n";
      return 2;
    }
    check::TopologyKind topology = check::TopologyKind::kFatTree;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--topology=fat-tree") {
        topology = check::TopologyKind::kFatTree;
      } else if (arg == "--topology=random") {
        topology = check::TopologyKind::kRandomRegular;
      } else {
        std::cerr << "unknown option '" << arg
                  << "' (--topology=fat-tree|random)\n";
        return 2;
      }
    }

    const check::ScenarioSpec spec = check::make_attack_spec(kind, topology);
    std::cout << "byzantine scenario: " << check::to_string(kind) << " on "
              << check::to_string(spec.topology) << ", " << spec.node_count
              << " nodes, attacker node " << spec.attacks.front().node
              << ", " << spec.duration_ms / 1000 << " s\n\n";
    const check::TrustComparison c = check::compare_trust_placement(spec);

    util::Table table("trust-blind vs trust-weighted");
    table.set_precision(3).header({"metric", "blind", "trusted"});
    table.row({std::string("delivered samples (%)"),
               c.blind.delivered_fraction() * 100.0,
               c.trusted.delivered_fraction() * 100.0});
    table.row({std::string("offloads created"),
               static_cast<std::int64_t>(c.blind.offloads_created),
               static_cast<std::int64_t>(c.trusted.offloads_created)});
    table.row({std::string("keepalive failures"),
               static_cast<std::int64_t>(c.blind.keepalive_failures),
               static_cast<std::int64_t>(c.trusted.keepalive_failures)});
    table.row({std::string("trust evictions"),
               static_cast<std::int64_t>(c.blind.trust_evictions),
               static_cast<std::int64_t>(c.trusted.trust_evictions)});
    table.row({std::string("min node trust"), c.blind.min_trust,
               c.trusted.min_trust});
    table.row({std::string("invariant violations"),
               static_cast<std::int64_t>(c.blind.violations.size()),
               static_cast<std::int64_t>(c.trusted.violations.size())});
    table.print(std::cout);

    const std::vector<check::Violation> verdict =
        check::check_trust_improvement(c);
    for (const check::Violation& v : c.blind.violations)
      std::cout << "blind:   " << v.invariant << ": " << v.detail << "\n";
    for (const check::Violation& v : c.trusted.violations)
      std::cout << "trusted: " << v.invariant << ": " << v.detail << "\n";
    for (const check::Violation& v : verdict)
      std::cout << "verdict: " << v.invariant << ": " << v.detail << "\n";
    const bool ok = c.blind.passed() && c.trusted.passed() && verdict.empty();
    std::cout << "\nO7 verdict: "
              << (ok ? "trust weighting improves delivery under this attack"
                     : "FAILED")
              << "\n";
    return ok ? 0 : 1;
  }
  std::uint32_t max_hops = 0;
  bool dot = false;
  bool socket_transport = false;
  bool obs_top = false;
  std::string trace_file;
  std::string trace_out_file;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dot") {
      dot = true;
    } else if (arg == "--obs-top") {
      obs_top = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out_file = argv[++i];
    } else if (arg.rfind("--transport=", 0) == 0) {
      const std::string which = arg.substr(12);
      if (which == "socket") {
        socket_transport = true;
      } else if (which != "sim") {
        std::cerr << "unknown transport '" << which << "' (sim|socket)\n";
        return 2;
      }
    } else {
      max_hops = static_cast<std::uint32_t>(std::stoul(arg));
    }
  }

  core::Nmdb nmdb = [&] {
    const std::string source = argv[1];
    if (source == "--demo") {
      std::istringstream demo(kDemoScenario);
      return core::load_scenario(demo);
    }
    std::ifstream file(source);
    if (!file) {
      std::cerr << "cannot open " << source << "\n";
      std::exit(2);
    }
    return core::load_scenario(file);
  }();

  std::cout << "scenario: " << nmdb.node_count() << " nodes, "
            << nmdb.network().edge_count() << " links, "
            << nmdb.busy_nodes().size() << " busy, "
            << nmdb.candidate_nodes().size() << " candidates, ΣCs="
            << nmdb.total_excess() << " ΣCd=" << nmdb.total_spare() << "\n\n";

  if (!trace_out_file.empty() || obs_top) {
    // Live protocol run: the scenario's nodes become DUST-Clients reporting
    // their configured load to a manager over the simulated transport; the
    // causal span trees the run produces are exported as Perfetto JSON.
    obs::set_enabled(true);
    obs::MetricRegistry::global().reset();
    obs::FlightRecorder::global().clear();
    obs::reset_trace_ids();

    // --obs-top: the run's registry is folded through the fleet aggregator
    // (single node "local" — every in-process component shares one
    // registry) and rendered as the fleet-top dashboard each virtual
    // second. Live redraw only on a terminal; CI gets the final frame.
    obs::Aggregator aggregator;
    const bool live_redraw = obs_top && isatty(1) != 0;
    const auto obs_tick = [&](sim::TimeMs t) {
      if (!obs_top) return;
      aggregator.ingest_local("local", obs::MetricRegistry::global(),
                              static_cast<std::int64_t>(t));
      if (live_redraw) {
        std::cout << "\033[H\033[2J";
        aggregator.write_top(std::cout, static_cast<std::int64_t>(t));
        std::cout << std::flush;
      }
    };

    sim::Simulator sim;
    sim::Transport sim_transport(sim, util::Rng(7));
    // --transport=socket: manager on a loopback hub, every client on one
    // leaf. Same protocol objects, but each hop is codec-framed and crosses
    // real TCP.
    std::unique_ptr<wire::SocketTransport> hub;
    std::unique_ptr<wire::SocketTransport> leaf;
    std::unique_ptr<dataplane::Collector> collector;
    std::unique_ptr<dataplane::BlockStreamer> streamer;
    telemetry::Tsdb node_telemetry;
    std::vector<telemetry::MetricId> node_metrics;
    if (socket_transport) {
      wire::SocketTransportConfig hub_config;
      hub_config.role = wire::SocketTransportConfig::Role::kHub;
      hub_config.now = [&sim] { return sim.now(); };
      hub = std::make_unique<wire::SocketTransport>(hub_config);
      wire::SocketTransportConfig leaf_config;
      leaf_config.role = wire::SocketTransportConfig::Role::kLeaf;
      leaf_config.port = hub->listen_port();
      leaf_config.now = [&sim] { return sim.now(); };
      leaf = std::make_unique<wire::SocketTransport>(leaf_config);
      // The data plane rides the same sockets as the protocol (DESIGN.md
      // §12): each node's utilization telemetry is appended to a leaf-side
      // TSDB and streamed as sealed Gorilla blocks to a collector endpoint
      // on the hub — the manager's control decisions and the monitoring
      // data itself cross the same wire, at different QoS.
      collector = std::make_unique<dataplane::Collector>(*hub,
                                                         "dust-collector");
      for (graph::NodeId v = 0; v < nmdb.node_count(); ++v)
        node_metrics.push_back(
            node_telemetry.register_metric(telemetry::MetricDescriptor{
                "node" + std::to_string(v) + ".utilization.percent", "%",
                telemetry::MetricKind::kGauge}));
      leaf->register_endpoint("dust-streamer-0", [](const sim::Envelope&) {});
      dataplane::BlockStreamerConfig streamer_config;
      streamer_config.owner = 0;
      streamer_config.local_endpoint = "dust-streamer-0";
      streamer = std::make_unique<dataplane::BlockStreamer>(
          *leaf, node_telemetry, streamer_config);
    }
    sim::TransportBase& manager_transport =
        socket_transport ? static_cast<sim::TransportBase&>(*hub)
                         : sim_transport;
    sim::TransportBase& client_transport =
        socket_transport ? static_cast<sim::TransportBase&>(*leaf)
                         : sim_transport;
    core::ManagerConfig config;
    config.update_interval_ms = 1000;
    config.placement_period_ms = 5000;
    config.keepalive_timeout_ms = 4000;
    config.keepalive_check_period_ms = 1000;
    core::DustManager manager(sim, manager_transport, nmdb, config);
    std::vector<std::unique_ptr<core::DustClient>> clients;
    for (graph::NodeId v = 0; v < nmdb.node_count(); ++v) {
      core::ClientConfig client_config;
      client_config.offload_capable = nmdb.offload_capable(v);
      client_config.keepalive_interval_ms = 1000;
      client_config.platform_factor = nmdb.platform_factor(v);
      clients.push_back(std::make_unique<core::DustClient>(
          sim, client_transport, v, client_config, util::Rng(100 + v)));
      clients.back()->set_reported_state(
          nmdb.network().node_utilization(v),
          nmdb.network().monitoring_data_mb(v),
          std::max<std::uint32_t>(1, nmdb.agent_count(v)));
    }
    for (auto& client : clients) client->start();
    manager.start();
    if (socket_transport) {
      // Step virtual time, draining both socket loops to quiescence between
      // steps — handshakes + several placement cycles, byte-exact framing.
      // Every second of virtual time each node's reported utilization is
      // sampled into the TSDB and the streamer ships whatever sealed.
      for (sim::TimeMs t = 0; t <= 30000; t += 50) {
        sim.run_until(t);
        if (t % 1000 == 0) {
          for (graph::NodeId v = 0; v < nmdb.node_count(); ++v)
            node_telemetry.append(
                node_metrics[v],
                telemetry::Sample{static_cast<std::int64_t>(t),
                                  nmdb.network().node_utilization(v)});
          streamer->pump();
          obs_tick(t);
        }
        while (hub->poll_once(1) + leaf->poll_once(1) > 0) {
        }
      }
      streamer->flush();
      while (hub->poll_once(1) + leaf->poll_once(1) > 0) {
      }
    } else if (obs_top) {
      for (sim::TimeMs t = 1000; t <= 30000; t += 1000) {
        sim.run_until(t);
        obs_tick(t);
      }
    } else {
      sim.run_until(30000);  // handshakes + several placement cycles
    }

    const obs::RegistrySnapshot scrape =
        obs::MetricRegistry::global().snapshot();
    if (!trace_out_file.empty()) {
      std::ofstream out(trace_out_file);
      if (!out) {
        std::cerr << "cannot write " << trace_out_file << "\n";
        return 2;
      }
      obs::write_perfetto(scrape, out);

      const std::vector<obs::TraceTree> traces = obs::assemble_traces(scrape);
      std::cout << "wrote " << trace_out_file << ": " << scrape.spans.size()
                << " spans in " << traces.size()
                << " traces (open in ui.perfetto.dev)\n";
      for (const obs::TraceTree& trace : traces)
        if (trace.find("offload_request") != nullptr)
          std::cout << "  trace " << trace.trace_id << ": " << trace.chain()
                    << "\n";
    }
    if (obs_top) {
      // Final frame (the only one in a pipe/CI), then a parseable line.
      aggregator.ingest_local("local", obs::MetricRegistry::global(),
                              static_cast<std::int64_t>(sim.now()));
      aggregator.write_top(std::cout, static_cast<std::int64_t>(sim.now()));
      const obs::FleetNodeStatus* local = aggregator.status("local");
      std::cout << "OBS_TOP nodes=" << aggregator.nodes().size()
                << " applied=" << (local != nullptr ? local->snapshots_applied : 0)
                << " spans=" << aggregator.span_count() << "\n";
    }
    std::cout << "active offloads after " << sim.now() / 1000
              << " s: " << manager.active_offload_count() << "\n";
    if (socket_transport) {
      const dataplane::CollectorStats& dp = collector->stats();
      std::cout << "data plane: " << dp.samples << " samples in "
                << dp.batches << " batches -> dust-collector ("
                << (collector->loss_fully_declared()
                        ? "all loss declared"
                        : "UNDECLARED LOSS")
                << ")\n";
    }
    return 0;
  }

  if (!trace_file.empty()) {
    std::ifstream trace_in(trace_file);
    if (!trace_in) {
      std::cerr << "cannot open trace " << trace_file << "\n";
      return 2;
    }
    const auto trace = core::load_trace(trace_in);
    core::ReplayOptions replay_options;
    replay_options.optimizer.placement.max_hops = max_hops;
    const core::ReplayReport report =
        core::replay_trace(nmdb, trace, replay_options);
    util::Table table("trace replay report");
    table.set_precision(3).header({"metric", "value"});
    table.row({std::string("updates applied"),
               static_cast<std::int64_t>(report.updates_applied)});
    table.row({std::string("placement cycles"),
               static_cast<std::int64_t>(report.placement_cycles)});
    table.row({std::string("cycles with offloads"),
               static_cast<std::int64_t>(report.cycles_with_offloads)});
    table.row({std::string("capacity moved (%-points)"),
               report.total_offloaded});
    table.row({std::string("unplaced (%-points)"), report.total_unplaced});
    table.row({std::string("overloaded node-cycles (%)"),
               report.overload_fraction() * 100.0});
    table.print(std::cout);
    return 0;
  }

  core::OptimizerOptions options;
  options.placement.max_hops = max_hops;
  options.allow_partial = true;
  const core::PlacementResult opt = core::OptimizationEngine(options).run(nmdb);
  std::cout << "ILP: " << solver::to_string(opt.status) << ", β = "
            << opt.objective << " s, unplaced = " << opt.unplaced << "\n";
  print_plan("ILP offload plan", opt.assignments);

  const core::HeuristicResult heuristic = core::HeuristicEngine().run(nmdb);
  std::cout << "\nheuristic: HFR = " << heuristic.hfr_percent()
            << "%, β = " << heuristic.objective << " s\n";
  print_plan("heuristic offload plan", heuristic.assignments);

  if (dot) {
    graph::DotOptions dot_options;
    dot_options.node_color = [&nmdb](graph::NodeId v) -> std::string {
      switch (nmdb.role(v)) {
        case core::NodeRole::kBusy: return "tomato";
        case core::NodeRole::kOffloadCandidate: return "gold";
        default: return "";
      }
    };
    std::cout << "\n";
    graph::write_dot(std::cout, nmdb.network().graph(), dot_options);
  }
  return opt.optimal() ? 0 : 1;
}
