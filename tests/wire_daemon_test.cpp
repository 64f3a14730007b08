// Multi-process integration: the daemon binaries (examples/manager_daemon,
// examples/client_daemon) speaking the wire protocol over loopback TCP must
// reach the exact placement an in-process simulator run computes — same
// destinations, bit-identical amounts, same HFR — and must survive a client
// process dying mid-run by substituting a replica destination (§III-B Rep).
//
// The daemons print doubles as IEEE-754 bit patterns, so equality here is
// bit-exact string/integer comparison, never epsilon.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/heuristic.hpp"
#include "core/manager.hpp"
#include "daemon_harness.hpp"
#include "sim/transport.hpp"
#include "util/rng.hpp"
#include "wire/demo_scenario.hpp"

#ifndef DUST_MANAGER_DAEMON_BIN
#error "DUST_MANAGER_DAEMON_BIN must point at the manager_daemon binary"
#endif
#ifndef DUST_CLIENT_DAEMON_BIN
#error "DUST_CLIENT_DAEMON_BIN must point at the client_daemon binary"
#endif
#ifndef DUST_COLLECTOR_DAEMON_BIN
#error "DUST_COLLECTOR_DAEMON_BIN must point at the collector_daemon binary"
#endif

namespace dust {
namespace {

using daemon_harness::Daemon;
using daemon_harness::wall_ms;

using Assign = std::tuple<unsigned, unsigned, std::uint64_t>;

struct ManagerReport {
  std::uint16_t port = 0;
  std::uint64_t hfr_bits = ~0ULL;
  std::set<Assign> assigns;
  std::set<Assign> final_assigns;
  long final_offloads = -1;
  long keepalive_failures = -1;
  long redirects = -1;
  // Observability plane (OBS* lines, printed after FINAL).
  long obs_nodes = -1;
  long obs_applied = -1;
  long obs_spans = -1;
  long stitched_processes = -1;
  std::map<std::string, long> obs_node_seq;
};

void parse_line(const std::string& line, ManagerReport& report) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag == "PORT") {
    in >> report.port;
  } else if (tag == "HFR") {
    std::string hex;
    in >> hex;
    report.hfr_bits = std::stoull(hex, nullptr, 16);
  } else if (tag == "ASSIGN" || tag == "FINAL_ASSIGN") {
    unsigned busy = 0;
    unsigned destination = 0;
    std::string hex;
    in >> busy >> destination >> hex;
    (tag == "ASSIGN" ? report.assigns : report.final_assigns)
        .emplace(busy, destination, std::stoull(hex, nullptr, 16));
  } else if (tag == "FINAL") {
    std::string field;
    while (in >> field) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = field.substr(0, eq);
      const long value = std::stol(field.substr(eq + 1));
      if (key == "offloads") report.final_offloads = value;
      if (key == "keepalive_failures") report.keepalive_failures = value;
      if (key == "redirects") report.redirects = value;
    }
  } else if (tag == "OBS" || tag == "OBS_STITCHED") {
    std::string field;
    while (in >> field) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      // Note: trace= carries a full u64 id — left unparsed, stol would throw.
      if (key == "nodes") report.obs_nodes = std::stol(value);
      if (key == "applied") report.obs_applied = std::stol(value);
      if (key == "spans") report.obs_spans = std::stol(value);
      if (key == "processes") report.stitched_processes = std::stol(value);
    }
  } else if (tag == "OBS_NODE") {
    std::string node;
    std::string field;
    in >> node;
    while (in >> field) {
      const std::size_t eq = field.find('=');
      if (eq != std::string::npos && field.substr(0, eq) == "seq")
        report.obs_node_seq[node] = std::stol(field.substr(eq + 1));
    }
  }
}

struct Reference {
  std::uint64_t hfr_bits = 0;
  std::set<Assign> assigns;
};

// The in-process ground truth: same demo scenario, same scripted constant
// states, simulated transport. What the daemons must reproduce bit-for-bit.
Reference in_process_reference() {
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(7));
  core::ManagerConfig config;
  config.update_interval_ms = 200;
  config.placement_period_ms = 1LL << 40;
  core::DustManager manager(sim, transport, wire::demo_nmdb(), config);
  core::Nmdb scenario = wire::demo_nmdb();
  std::vector<std::unique_ptr<core::DustClient>> clients;
  for (graph::NodeId v = 0; v < scenario.node_count(); ++v) {
    core::ClientConfig client_config;
    client_config.offload_capable = scenario.offload_capable(v);
    client_config.platform_factor = scenario.platform_factor(v);
    clients.push_back(std::make_unique<core::DustClient>(
        sim, transport, v, client_config, util::Rng(100 + v)));
    clients.back()->set_reported_state(
        scenario.network().node_utilization(v),
        scenario.network().monitoring_data_mb(v), 1);
    clients.back()->start();
  }
  manager.start();
  sim.run_until(2000);
  EXPECT_EQ(manager.nodes_reporting(), scenario.node_count());

  Reference reference;
  reference.hfr_bits = std::bit_cast<std::uint64_t>(
      core::HeuristicEngine().run(manager.nmdb()).hfr_percent());
  manager.run_placement_cycle();
  for (const core::ActiveOffload& offload : manager.active_offloads())
    reference.assigns.emplace(offload.busy, offload.destination,
                              std::bit_cast<std::uint64_t>(offload.amount));
  EXPECT_FALSE(reference.assigns.empty());
  return reference;
}

// Read manager stdout until the PORT line shows up, then hand each client
// fleet slice its own OS process.
std::uint16_t await_port(Daemon& manager, ManagerReport& report) {
  const std::int64_t deadline = wall_ms() + 10000;
  std::string line;
  while (report.port == 0 && manager.read_line(line, deadline))
    parse_line(line, report);
  return report.port;
}

void drain(Daemon& manager, ManagerReport& report, std::int64_t deadline_ms) {
  std::string line;
  while (manager.read_line(line, deadline_ms)) parse_line(line, report);
}

TEST(WireDaemon, FourClientProcessesMatchInProcessPlacement) {
  const Reference reference = in_process_reference();

  Daemon manager(DUST_MANAGER_DAEMON_BIN,
                 {"--run-ms", "4000", "--settle-ms", "15000"},
                 /*capture_stdout=*/true);
  ASSERT_TRUE(manager.running());
  ManagerReport report;
  const std::uint16_t port = await_port(manager, report);
  ASSERT_NE(port, 0) << "manager_daemon never printed PORT";

  const std::string port_arg = std::to_string(port);
  std::vector<std::unique_ptr<Daemon>> clients;
  for (const char* slice : {"0,1", "2,3", "4,5", "6,7"})
    clients.push_back(std::make_unique<Daemon>(
        DUST_CLIENT_DAEMON_BIN,
        std::vector<std::string>{"--port", port_arg, "--nodes", slice,
                                 "--run-ms", "4000"},
        /*capture_stdout=*/false));

  drain(manager, report, wall_ms() + 30000);
  EXPECT_EQ(manager.wait_exit(), 0);
  for (auto& client : clients) EXPECT_EQ(client->wait_exit(), 0);

  // Same heuristic fallback ratio, same placement, bit-identical amounts.
  EXPECT_EQ(report.hfr_bits, reference.hfr_bits);
  EXPECT_EQ(report.assigns, reference.assigns);
  EXPECT_EQ(report.final_assigns, reference.assigns)
      << "no relationship should churn when every process stays alive";
  EXPECT_EQ(report.keepalive_failures, 0);
}

// collector_daemon's FINAL line: "FINAL samples=N batches=N ...".
struct CollectorReport {
  long samples = -1;
  long batches = -1;
  long blocks = -1;
  long undeclared = -1;
  long verify_failures = -1;
  long out_of_order = -1;
  bool seen = false;
};

void parse_collector_line(const std::string& line, CollectorReport& report) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag != "FINAL") return;
  report.seen = true;
  std::string field;
  while (in >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = field.substr(0, eq);
    const long value = std::stol(field.substr(eq + 1));
    if (key == "samples") report.samples = value;
    if (key == "batches") report.batches = value;
    if (key == "blocks") report.blocks = value;
    if (key == "undeclared") report.undeclared = value;
    if (key == "verify_failures") report.verify_failures = value;
    if (key == "out_of_order") report.out_of_order = value;
  }
}

TEST(WireDaemon, DestinationStreamsBlocksToCollectorWhilePlacementMatches) {
  // The data plane must not perturb the control plane: the node that
  // receives the offloaded monitoring load also streams its telemetry
  // blocks through the hub to a collector process, and the placement still
  // matches the in-process simulation bit for bit.
  const Reference reference = in_process_reference();
  ASSERT_EQ(reference.assigns.size(), 1u);
  const unsigned destination = std::get<1>(*reference.assigns.begin());

  std::string others;
  for (unsigned v = 0; v < wire::kDemoNodeCount; ++v) {
    if (v == destination) continue;
    if (!others.empty()) others += ',';
    others += std::to_string(v);
  }

  Daemon manager(DUST_MANAGER_DAEMON_BIN,
                 {"--run-ms", "5000", "--settle-ms", "15000"},
                 /*capture_stdout=*/true);
  ASSERT_TRUE(manager.running());
  ManagerReport report;
  const std::uint16_t port = await_port(manager, report);
  ASSERT_NE(port, 0) << "manager_daemon never printed PORT";

  const std::string port_arg = std::to_string(port);
  Daemon collector(DUST_COLLECTOR_DAEMON_BIN,
                   {"--port", port_arg, "--run-ms", "6000"},
                   /*capture_stdout=*/true);
  ASSERT_TRUE(collector.running());
  std::string line;
  ASSERT_TRUE(collector.read_line(line, wall_ms() + 10000));
  ASSERT_EQ(line.rfind("READY", 0), 0u)
      << "collector_daemon spoke before READY: " << line;

  constexpr long kStreamSamples = 1500;  // per series, two series
  Daemon quiet(DUST_CLIENT_DAEMON_BIN,
               {"--port", port_arg, "--nodes", others, "--run-ms", "5000"},
               /*capture_stdout=*/false);
  Daemon origin(DUST_CLIENT_DAEMON_BIN,
                {"--port", port_arg, "--nodes", std::to_string(destination),
                 "--run-ms", "5000", "--stream", "--stream-samples",
                 std::to_string(kStreamSamples), "--stream-delay-ms", "1500"},
                /*capture_stdout=*/false);
  ASSERT_TRUE(quiet.running());
  ASSERT_TRUE(origin.running());

  drain(manager, report, wall_ms() + 30000);
  EXPECT_EQ(manager.wait_exit(), 0);
  EXPECT_EQ(quiet.wait_exit(), 0);
  EXPECT_EQ(origin.wait_exit(), 0);

  CollectorReport data;
  const std::int64_t collector_deadline = wall_ms() + 15000;
  while (!data.seen && collector.read_line(line, collector_deadline))
    parse_collector_line(line, data);
  EXPECT_EQ(collector.wait_exit(), 0)
      << "collector saw undeclared loss or verify failures";

  // Control plane: bit-identical to the in-process run, nobody flapped.
  EXPECT_EQ(report.hfr_bits, reference.hfr_bits);
  EXPECT_EQ(report.assigns, reference.assigns);
  EXPECT_EQ(report.final_assigns, reference.assigns);
  EXPECT_EQ(report.keepalive_failures, 0);

  // Data plane: every streamed sample arrived across three processes, and
  // the idle-link transfer involved no loss at all, declared or otherwise.
  ASSERT_TRUE(data.seen) << "collector_daemon never printed FINAL";
  EXPECT_EQ(data.samples, 2 * kStreamSamples);
  EXPECT_GE(data.batches, 1);
  EXPECT_EQ(data.undeclared, 0);
  EXPECT_EQ(data.verify_failures, 0);
  EXPECT_EQ(data.out_of_order, 0);
}

TEST(WireDaemon, ClientProcessDeathSubstitutesReplicaOverTheWire) {
  // The reference run tells us which node hosts the offloaded workload; that
  // node gets a process of its own, scheduled to crash mid-run.
  const Reference reference = in_process_reference();
  ASSERT_EQ(reference.assigns.size(), 1u);
  const unsigned victim = std::get<1>(*reference.assigns.begin());

  std::string survivors;
  for (unsigned v = 0; v < wire::kDemoNodeCount; ++v) {
    if (v == victim) continue;
    if (!survivors.empty()) survivors += ',';
    survivors += std::to_string(v);
  }

  Daemon manager(DUST_MANAGER_DAEMON_BIN,
                 {"--run-ms", "8000", "--settle-ms", "15000"},
                 /*capture_stdout=*/true);
  ASSERT_TRUE(manager.running());
  ManagerReport report;
  const std::uint16_t port = await_port(manager, report);
  ASSERT_NE(port, 0) << "manager_daemon never printed PORT";

  const std::string port_arg = std::to_string(port);
  Daemon healthy(DUST_CLIENT_DAEMON_BIN,
                 {"--port", port_arg, "--nodes", survivors, "--run-ms", "8000"},
                 /*capture_stdout=*/false);
  Daemon doomed(DUST_CLIENT_DAEMON_BIN,
                {"--port", port_arg, "--nodes", std::to_string(victim),
                 "--run-ms", "8000", "--die-at-ms", "2500"},
                /*capture_stdout=*/false);
  ASSERT_TRUE(healthy.running());
  ASSERT_TRUE(doomed.running());

  drain(manager, report, wall_ms() + 40000);
  EXPECT_EQ(manager.wait_exit(), 0);
  EXPECT_EQ(healthy.wait_exit(), 0);
  EXPECT_EQ(doomed.wait_exit(), 7);  // std::_Exit(7) — crashed, not finished

  // The first cycle placed onto the soon-to-die node, exactly as in-process.
  EXPECT_EQ(report.assigns, reference.assigns);
  // The crash was noticed via keepalive loss, and every surviving
  // relationship now points at a replica — never the dead node.
  EXPECT_GE(report.keepalive_failures, 1);
  EXPECT_FALSE(report.final_assigns.empty());
  for (const Assign& assign : report.final_assigns)
    EXPECT_NE(std::get<1>(assign), victim)
        << "a relationship still targets the dead node";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(WireDaemon, FleetObservabilityMergesEveryProcessAndStitchesTraces) {
  // The manager scrapes every process on the hub (two client daemons, one
  // collector, itself) into one fleet registry, exports it with node=
  // labels, and stitches spans recorded in different OS processes into one
  // Perfetto trace. Snapshot rejections are deliberately NOT asserted zero:
  // a kLow reply straddling scrape rounds triggers a legitimate
  // reject → request-full resync, which is the protocol healing itself.
  const std::string prom_path =
      ::testing::TempDir() + "fleet_obs_" + std::to_string(getpid()) + ".prom";
  const std::string trace_path =
      ::testing::TempDir() + "fleet_obs_" + std::to_string(getpid()) + ".json";

  Daemon manager(DUST_MANAGER_DAEMON_BIN,
                 {"--run-ms", "5000", "--settle-ms", "15000",
                  "--obs-scrape-ms", "250", "--obs-export", prom_path,
                  "--obs-trace-out", trace_path},
                 /*capture_stdout=*/true);
  ASSERT_TRUE(manager.running());
  ManagerReport report;
  const std::uint16_t port = await_port(manager, report);
  ASSERT_NE(port, 0) << "manager_daemon never printed PORT";

  const std::string port_arg = std::to_string(port);
  Daemon collector(DUST_COLLECTOR_DAEMON_BIN,
                   {"--port", port_arg, "--run-ms", "6000"},
                   /*capture_stdout=*/true);
  ASSERT_TRUE(collector.running());
  std::string line;
  ASSERT_TRUE(collector.read_line(line, wall_ms() + 10000));
  ASSERT_EQ(line.rfind("READY", 0), 0u);

  // The streaming client gives the trace chain its cross-process tail
  // (data_blocks spans on the client, collect_blocks on the collector).
  // Busy node 0 runs alone, so whichever of its tied candidates (1, 2 or 5)
  // the solver picks, the offload chain crosses into the other daemon.
  Daemon streaming(DUST_CLIENT_DAEMON_BIN,
                   {"--port", port_arg, "--nodes", "0", "--run-ms", "5000",
                    "--stream"},
                   /*capture_stdout=*/false);
  Daemon quiet(DUST_CLIENT_DAEMON_BIN,
               {"--port", port_arg, "--nodes", "1,2,3,4,5,6,7", "--run-ms",
                "5000"},
               /*capture_stdout=*/false);
  ASSERT_TRUE(streaming.running());
  ASSERT_TRUE(quiet.running());

  drain(manager, report, wall_ms() + 30000);
  EXPECT_EQ(manager.wait_exit(), 0);
  EXPECT_EQ(streaming.wait_exit(), 0);
  EXPECT_EQ(quiet.wait_exit(), 0);
  EXPECT_EQ(collector.wait_exit(), 0);

  // Every process merged: the manager itself, both client daemons (named
  // after their first node), and the collector, each with at least one
  // applied snapshot.
  EXPECT_GE(report.obs_nodes, 4);
  EXPECT_GE(report.obs_applied, 4);
  EXPECT_GT(report.obs_spans, 0);
  for (const char* node : {"manager", "client-0", "client-1", "collector"}) {
    const auto it = report.obs_node_seq.find(node);
    ASSERT_NE(it, report.obs_node_seq.end()) << node << " was never scraped";
    EXPECT_GE(it->second, 1) << node;
  }

  // One stitched trace crosses at least three OS processes.
  EXPECT_GE(report.stitched_processes, 3);

  // Fleet Prometheus export: every node appears as a label, and the scrape
  // bandwidth counter the responders maintain made it across the wire.
  const std::string prom = slurp(prom_path);
  ASSERT_FALSE(prom.empty()) << "--obs-export wrote nothing";
  for (const char* node : {"manager", "client-0", "client-1", "collector"})
    EXPECT_NE(prom.find("node=\"" + std::string(node) + "\""),
              std::string::npos)
        << node << " missing from fleet export";
  EXPECT_NE(prom.find("dust_obs_scrape_bytes_total"), std::string::npos);

  // Perfetto file: one process lane per track prefix, from ≥3 daemons.
  const std::string trace_json = slurp(trace_path);
  ASSERT_FALSE(trace_json.empty()) << "--obs-trace-out wrote nothing";
  int daemons_in_trace = 0;
  for (const char* prefix : {"manager/", "client-0/", "client-1/",
                             "collector/"})
    daemons_in_trace += trace_json.find(prefix) != std::string::npos ? 1 : 0;
  EXPECT_GE(daemons_in_trace, 3);

  std::remove(prom_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace dust
