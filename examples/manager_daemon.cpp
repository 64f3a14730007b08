// DUST-Manager as an OS process (DESIGN.md §11).
//
// Binds a wire::SocketTransport hub, waits until every node in the scenario
// has reported a STAT over the wire, runs one placement cycle, then keeps
// supervising keepalives (substituting dead destinations with replicas)
// until --run-ms elapses. Protocol state machine and solver are exactly the
// in-process ones — only the transport differs.
//
//   ./build/examples/manager_daemon [--port N] [--scenario FILE]
//       [--run-ms MS] [--settle-ms MS] [--metrics FILE]
//       [--obs-scrape-ms MS] [--obs-export FILE] [--obs-trace-out FILE]
//
// Machine-readable stdout (consumed by tests/wire_daemon_test):
//   PORT <listen-port>                     once the hub is bound
//   HFR <hex-bits> <value>                 heuristic HFR at the gated NMDB
//   CYCLE offloads=<n>                     after the placement cycle
//   ASSIGN <busy> <dest> <amount-hex>      one per created relationship
//   FINAL offloads=<n> keepalive_failures=<n> redirects=<n>
//   FINAL_ASSIGN <busy> <dest> <amount-hex>
//   OBS nodes=<n> applied=<n> rejected=<n> spans=<n>   fleet scrape summary
//   OBS_NODE <name> seq=<n> bytes=<n>      one per scraped node
//   OBS_ALERT rule=<rule> node=<name>      one per watchdog alert on the
//                                          fleet view (node empty unless
//                                          the rule is node-silent)
//   OBS_STITCHED trace=<id> processes=<n>  best cross-process trace
//
// With --obs-scrape-ms > 0 (default 500) the manager becomes the fleet
// observability plane (DESIGN.md §15): it discovers every "dust-obs-*"
// responder on the hub, pulls delta snapshots on that cadence, merges them
// (plus its own registry, as node "manager") into an obs::Aggregator, and
// runs obs::Watchdog's rules over the merged view. --obs-export writes the
// fleet Prometheus text (node-labelled series); --obs-trace-out writes the
// stitched cross-process Perfetto trace.
//
// Doubles are printed as IEEE-754 bit patterns so equivalence checks are
// bit-exact, never epsilon-ish.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <string>

#include "core/heuristic.hpp"
#include "core/manager.hpp"
#include "core/scenario.hpp"
#include "obs/aggregator.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/log.hpp"
#include "obs/metrics.hpp"
#include "wire/demo_scenario.hpp"
#include "wire/obs_scrape.hpp"
#include "wire/socket_transport.hpp"

namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

int main(int argc, char** argv) {
  using namespace dust;
  util::init_log_level_from_env();
  std::uint16_t port = 0;
  std::string scenario_file;
  std::string metrics_file;
  std::string obs_export_file;
  std::string obs_trace_file;
  std::int64_t run_ms = 10000;
  std::int64_t settle_ms = 15000;
  std::int64_t obs_scrape_ms = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_file = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--run-ms" && i + 1 < argc) {
      run_ms = std::stoll(argv[++i]);
    } else if (arg == "--settle-ms" && i + 1 < argc) {
      settle_ms = std::stoll(argv[++i]);
    } else if (arg == "--obs-scrape-ms" && i + 1 < argc) {
      obs_scrape_ms = std::stoll(argv[++i]);
    } else if (arg == "--obs-export" && i + 1 < argc) {
      obs_export_file = argv[++i];
    } else if (arg == "--obs-trace-out" && i + 1 < argc) {
      obs_trace_file = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--port N] [--scenario FILE] [--run-ms MS]"
                   " [--settle-ms MS] [--metrics FILE] [--obs-scrape-ms MS]"
                   " [--obs-export FILE] [--obs-trace-out FILE]\n";
      return 2;
    }
  }
  // Disjoint span-id block: this process's spans must not collide with the
  // clients'/collector's when the aggregator stitches fleet traces.
  obs::seed_span_ids(std::hash<std::string>{}("manager"));

  core::Nmdb nmdb = [&] {
    if (scenario_file.empty()) return wire::demo_nmdb();
    std::ifstream file(scenario_file);
    if (!file) {
      std::cerr << "cannot open " << scenario_file << "\n";
      std::exit(2);
    }
    return core::load_scenario(file);
  }();
  const std::size_t fleet = nmdb.node_count();

  sim::Simulator sim;
  wire::SocketTransportConfig wire_config;
  wire_config.role = wire::SocketTransportConfig::Role::kHub;
  wire_config.port = port;
  wire_config.now = [&sim] { return sim.now(); };
  wire::SocketTransport transport(wire_config);
  std::cout << "PORT " << transport.listen_port() << "\n" << std::flush;

  // Wall-clock protocol cadences: tight enough that a full daemon run —
  // handshakes, STAT gate, placement, a keepalive death, and the REP
  // substitution — fits in a few seconds of real time.
  core::ManagerConfig config;
  config.update_interval_ms = 200;
  config.placement_period_ms = 1LL << 40;  // cycles are driven manually below
  config.keepalive_timeout_ms = 1500;
  config.keepalive_check_period_ms = 200;
  core::DustManager manager(sim, transport, std::move(nmdb), config);
  manager.start();

  // Fleet observability plane: scrape every dust-obs-* responder announced
  // on the hub, merge the deltas (plus this process's own registry, as node
  // "manager"), and run the watchdog's rules over the merged view.
  obs::Aggregator aggregator;
  wire::ObsScraper scraper(transport, aggregator, "dust-obs-scraper");
  obs::Watchdog fleet_dog;

  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_ms = [&t0] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::int64_t next_obs_at = obs_scrape_ms;
  // The pump: socket events feed protocol handlers; the simulator clock
  // tracks the wall so PeriodicTasks (keepalive sweeps) fire in real time.
  const auto pump = [&] {
    transport.poll_once(5);
    sim.run_until(wall_ms());
    if (obs_scrape_ms > 0 && wall_ms() >= next_obs_at) {
      const std::int64_t now = wall_ms();
      aggregator.ingest_local("manager", obs::MetricRegistry::global(), now);
      scraper.scrape(now);
      for (const obs::Alert& alert : fleet_dog.evaluate(aggregator, now))
        std::cout << "OBS_ALERT rule=" << alert.rule << " node=" << alert.node
                  << "\n"
                  << std::flush;
      next_obs_at = now + obs_scrape_ms;
    }
  };

  while (manager.nodes_reporting() < fleet) {
    if (wall_ms() > settle_ms) {
      std::cerr << "manager_daemon: only " << manager.nodes_reporting() << "/"
                << fleet << " nodes reported within " << settle_ms << " ms\n";
      return 3;
    }
    pump();
  }

  // The fleet is fully visible: the NMDB now reflects wire-reported STATs.
  // Heuristic first (it reads the same NMDB the cycle will plan on), then
  // the cycle itself.
  const core::HeuristicResult heuristic =
      core::HeuristicEngine().run(manager.nmdb());
  std::cout << "HFR " << std::hex << bits(heuristic.hfr_percent()) << std::dec
            << " " << heuristic.hfr_percent() << "\n";
  manager.run_placement_cycle();
  std::cout << "CYCLE offloads=" << manager.active_offload_count() << "\n";
  for (const core::ActiveOffload& offload : manager.active_offloads())
    std::cout << "ASSIGN " << offload.busy << " " << offload.destination << " "
              << std::hex << bits(offload.amount) << std::dec << "\n";
  std::cout << std::flush;

  while (wall_ms() < run_ms) pump();

  std::cout << "FINAL offloads=" << manager.active_offload_count()
            << " keepalive_failures=" << manager.keepalive_failures()
            << " redirects=" << manager.redirects() << "\n";
  for (const core::ActiveOffload& offload : manager.active_offloads())
    std::cout << "FINAL_ASSIGN " << offload.busy << " " << offload.destination
              << " " << std::hex << bits(offload.amount) << std::dec << "\n";
  std::cout << std::flush;

  if (obs_scrape_ms > 0) {
    // One last sweep so snapshots still in flight land before the summary.
    aggregator.ingest_local("manager", obs::MetricRegistry::global(),
                            wall_ms());
    scraper.scrape(wall_ms());
    for (int i = 0; i < 40; ++i) transport.poll_once(5);

    std::uint64_t applied = 0;
    std::uint64_t rejected = 0;
    for (const std::string& node : aggregator.nodes()) {
      const obs::FleetNodeStatus* status = aggregator.status(node);
      applied += status->snapshots_applied;
      rejected += status->snapshots_rejected;
    }
    std::cout << "OBS nodes=" << aggregator.nodes().size()
              << " applied=" << applied << " rejected=" << rejected
              << " spans=" << aggregator.span_count() << "\n";
    for (const std::string& node : aggregator.nodes()) {
      const obs::FleetNodeStatus* status = aggregator.status(node);
      std::cout << "OBS_NODE " << node << " seq=" << status->applied_seq
                << " bytes=" << status->bytes_received << "\n";
    }
    // Best stitched trace: the chain whose spans come from the most
    // distinct processes (the track prefix before '/' names the node).
    const obs::RegistrySnapshot traces = aggregator.trace_snapshot();
    std::uint64_t best_trace = 0;
    std::size_t best_processes = 0;
    for (const obs::TraceTree& tree : obs::assemble_traces(traces)) {
      std::set<std::string> processes;
      for (const obs::SpanRecord& span : tree.spans)
        processes.insert(span.track.substr(0, span.track.find('/')));
      if (processes.size() > best_processes) {
        best_processes = processes.size();
        best_trace = tree.trace_id;
      }
    }
    if (best_trace != 0)
      std::cout << "OBS_STITCHED trace=" << best_trace
                << " processes=" << best_processes << "\n";
    std::cout << std::flush;
    if (!obs_export_file.empty()) {
      std::ofstream out(obs_export_file);
      aggregator.write_prometheus(out);
    }
    if (!obs_trace_file.empty()) {
      std::ofstream out(obs_trace_file);
      obs::write_perfetto(traces, out);
    }
  }

  if (!metrics_file.empty()) {
    std::ofstream out(metrics_file);
    obs::write_prometheus(obs::MetricRegistry::global().snapshot(), out);
  }
  return 0;
}
