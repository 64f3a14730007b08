// fleet_top — the fleet observability plane in one binary (DESIGN.md §15).
//
// Three "nodes" inside one process, glued by real loopback TCP: a hub and
// three leaves. Leaves node-a and node-b serve their own isolated
// MetricRegistry through a wire::ObsResponder and churn synthetic metrics
// each round; node-idle serves a registry that never changes, so every
// scrape of it exercises the hot-tick clean path (no frame, no allocation).
// The hub runs the same ObsScraper + obs::Aggregator + obs::Watchdog
// stack manager_daemon runs, merges its own registry as node "hub", and
// renders the fleet-top dashboard.
//
//   ./build/examples/fleet_top [--rounds N] [--watch]
//   ./build/examples/fleet_top --shard-hub S=HOST:PORT... [--rounds N]
//       [--interval-ms MS] [--watch]
//
// --watch redraws the dashboard every round (ANSI clear); the default is
// one final dashboard, which is what CI wants. Each round also records one
// cross-node trace (root on the hub, one child span per churning leaf) so
// the run doubles as a stitching smoke.
//
// --shard-hub switches to federated-fleet mode (DESIGN.md §16): instead of
// the in-process demo, fleet_top opens one leaf link per shard hub and
// scrapes that shard's federation_daemon responder ("dust-obs-shard<S>")
// into a single shared Aggregator. ObsScraper discovery only sees
// endpoints announced on its own hub, so a fleet with one hub per shard
// needs exactly this: one scraper per hub, one merged dashboard. Rounds
// are paced by --interval-ms (default 250) of wall clock.
//
// Machine-readable final line (the verify-all obs smoke target greps it):
//
//   FLEET nodes=<n> applied=<n> rejected=<n> clean=<n> spans=<n>
//         stitched_processes=<n> alerts=<n>
//
// (multi-hub mode prints `FLEET nodes=... applied=... rejected=...
// hubs=<h> alerts=<n>` instead — there is no idle leaf to keep clean.)
//
// Exit 0 iff the hub and both churning leaves merged, no snapshot was
// rejected, the idle leaf answered every scrape clean without ever sending
// a frame, and at least one trace stitched spans from all three tracks.
// Multi-hub mode: exit 0 iff every shard's responder merged and no
// snapshot was rejected.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/aggregator.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/watchdog.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "wire/obs_scrape.hpp"
#include "wire/socket_transport.hpp"

namespace {

/// Federated-fleet mode: one leaf + scraper per shard hub, one merged
/// dashboard. `shard_hubs` holds (shard id, "HOST:PORT").
int run_multi_hub(
    const std::vector<std::pair<std::uint32_t, std::string>>& shard_hubs,
    std::size_t rounds, std::int64_t interval_ms, bool watch) {
  using namespace dust;
  struct HubLink {
    std::uint32_t shard;
    std::unique_ptr<wire::SocketTransport> leaf;
    std::unique_ptr<wire::ObsScraper> scraper;
  };
  obs::Aggregator aggregator;
  std::vector<HubLink> links;
  for (const auto& [shard, target] : shard_hubs) {
    const std::size_t colon = target.rfind(':');
    wire::SocketTransportConfig leaf_config;
    leaf_config.role = wire::SocketTransportConfig::Role::kLeaf;
    leaf_config.host = colon == std::string::npos ? target
                                                  : target.substr(0, colon);
    leaf_config.port = colon == std::string::npos
                           ? 0
                           : static_cast<std::uint16_t>(
                                 std::stoul(target.substr(colon + 1)));
    auto leaf = std::make_unique<wire::SocketTransport>(leaf_config);
    // A leaf never learns the hub's endpoint names, so discovery is off and
    // the shard daemon's responder is the one explicit target.
    wire::ObsScraperConfig scraper_config;
    scraper_config.targets = {"dust-obs-shard" + std::to_string(shard)};
    scraper_config.discover = false;
    auto scraper = std::make_unique<wire::ObsScraper>(
        *leaf, aggregator, "dust-obs-fleet-top-" + std::to_string(shard),
        scraper_config);
    links.push_back(HubLink{shard, std::move(leaf), std::move(scraper)});
  }

  obs::Watchdog fleet_dog;
  const bool live_redraw = watch && isatty(1) != 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t alerts = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    for (HubLink& link : links) link.scraper->scrape(now);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(interval_ms);
    while (std::chrono::steady_clock::now() < deadline)
      for (HubLink& link : links) link.leaf->poll_once(5);
    alerts += fleet_dog.evaluate(aggregator, now).size();
    if (live_redraw) {
      std::cout << "\033[H\033[2J";
      aggregator.write_top(std::cout, now);
      std::cout << std::flush;
    }
  }
  if (!live_redraw)
    aggregator.write_top(
        std::cout, std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count());

  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  for (const std::string& node : aggregator.nodes()) {
    applied += aggregator.status(node)->snapshots_applied;
    rejected += aggregator.status(node)->snapshots_rejected;
  }
  std::cout << "FLEET nodes=" << aggregator.nodes().size()
            << " applied=" << applied << " rejected=" << rejected
            << " hubs=" << links.size() << " alerts=" << alerts << "\n"
            << std::flush;
  bool merged_all = true;
  for (const HubLink& link : links)
    merged_all = merged_all &&
                 aggregator.status("shard" + std::to_string(link.shard)) !=
                     nullptr;
  return merged_all && rejected == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dust;
  util::init_log_level_from_env();
  std::size_t rounds = 20;
  std::int64_t interval_ms = 250;
  bool watch = false;
  std::vector<std::pair<std::uint32_t, std::string>> shard_hubs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rounds" && i + 1 < argc) {
      rounds = std::stoul(argv[++i]);
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::stoll(argv[++i]);
    } else if (arg == "--shard-hub" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "fleet_top: --shard-hub wants S=HOST:PORT\n";
        return 2;
      }
      shard_hubs.emplace_back(
          static_cast<std::uint32_t>(std::stoul(spec.substr(0, eq))),
          spec.substr(eq + 1));
    } else if (arg == "--watch") {
      watch = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--rounds N] [--watch] |"
                   " --shard-hub S=HOST:PORT... [--rounds N]"
                   " [--interval-ms MS] [--watch]\n";
      return 2;
    }
  }
  if (!shard_hubs.empty())
    return run_multi_hub(shard_hubs, rounds, interval_ms, watch);

  wire::SocketTransportConfig hub_config;
  hub_config.role = wire::SocketTransportConfig::Role::kHub;
  wire::SocketTransport hub(hub_config);
  const auto make_leaf = [&] {
    wire::SocketTransportConfig leaf_config;
    leaf_config.role = wire::SocketTransportConfig::Role::kLeaf;
    leaf_config.port = hub.listen_port();
    return std::make_unique<wire::SocketTransport>(leaf_config);
  };
  auto leaf_a = make_leaf();
  auto leaf_b = make_leaf();
  auto leaf_idle = make_leaf();

  // Isolated registries: each leaf models a separate process with its own
  // metric namespace, exactly what the snapshot codec was built to carry.
  obs::MetricRegistry registry_a;
  obs::MetricRegistry registry_b;
  obs::MetricRegistry registry_idle;
  wire::ObsResponder responder_a(*leaf_a, "node-a", registry_a);
  wire::ObsResponder responder_b(*leaf_b, "node-b", registry_b);
  wire::ObsResponder responder_idle(*leaf_idle, "node-idle", registry_idle);

  obs::Aggregator aggregator;
  wire::ObsScraper scraper(hub, aggregator, "dust-obs-scraper");
  obs::Watchdog fleet_dog;

  // Drain until several consecutive idle passes: poll_once counts local
  // deliveries only, so a pass that just flushed reply bytes into a socket
  // looks quiescent while the frame is still in flight toward the hub.
  const auto pump = [&] {
    for (int idle = 0; idle < 3;) {
      const std::size_t delivered = hub.poll_once(1) + leaf_a->poll_once(1) +
                                    leaf_b->poll_once(1) +
                                    leaf_idle->poll_once(1);
      idle = delivered == 0 ? idle + 1 : 0;
    }
  };
  pump();  // leaf announces reach the hub; responders become discoverable

  obs::Counter& packets_a = registry_a.counter("demo_packets_total");
  obs::Counter& packets_b = registry_b.counter("demo_packets_total");
  obs::Gauge& depth_a = registry_a.gauge("demo_queue_depth");
  obs::Gauge& depth_b = registry_b.gauge("demo_queue_depth");
  obs::Histogram& latency_a = registry_a.histogram("demo_latency_ms");
  obs::Histogram& latency_b = registry_b.histogram("demo_latency_ms");

  util::Rng rng(42);
  const bool live_redraw = watch && isatty(1) != 0;
  std::size_t alerts = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::int64_t now = static_cast<std::int64_t>(round) * 100;
    // Synthetic churn: node-b runs "hotter" so the dashboard ranking and
    // the merged histogram tail have something to show.
    packets_a.inc(10 + (round % 3));
    packets_b.inc(25 + (round % 7));
    depth_a.set(static_cast<double>(round % 5));
    depth_b.set(static_cast<double>(round % 11));
    latency_a.observe(rng.uniform(0.5, 2.0));
    latency_b.observe(rng.uniform(1.0, round % 4 == 0 ? 50.0 : 4.0));
    // One cross-node trace per round: hub root, a child span per leaf. The
    // children live in the leaves' registries and only meet the root once
    // the aggregator merges their snapshots — that is the stitch.
    const obs::TraceContext root = obs::record_instant(
        obs::MetricRegistry::global(), "fleet_tick", "hub", {}, now);
    obs::record_instant(registry_a, "leaf_work", "node-a", root, now);
    obs::record_instant(registry_b, "leaf_work", "node-b", root, now);

    aggregator.ingest_local("hub", obs::MetricRegistry::global(), now);
    scraper.scrape(now);
    pump();
    alerts += fleet_dog.evaluate(aggregator, now).size();
    if (live_redraw) {
      std::cout << "\033[H\033[2J";
      aggregator.write_top(std::cout, now);
      std::cout << std::flush;
    }
  }

  const std::int64_t end_ms = static_cast<std::int64_t>(rounds) * 100;
  if (!live_redraw) aggregator.write_top(std::cout, end_ms);

  // Best stitched trace: distinct track prefixes (before '/') = processes.
  std::size_t stitched_processes = 0;
  for (const obs::TraceTree& tree :
       obs::assemble_traces(aggregator.trace_snapshot())) {
    std::set<std::string> processes;
    for (const obs::SpanRecord& span : tree.spans)
      processes.insert(span.track.substr(0, span.track.find('/')));
    stitched_processes = std::max(stitched_processes, processes.size());
  }

  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  for (const std::string& node : aggregator.nodes()) {
    applied += aggregator.status(node)->snapshots_applied;
    rejected += aggregator.status(node)->snapshots_rejected;
  }
  std::cout << "FLEET nodes=" << aggregator.nodes().size()
            << " applied=" << applied << " rejected=" << rejected
            << " clean=" << responder_idle.clean_scrapes()
            << " spans=" << aggregator.span_count()
            << " stitched_processes=" << stitched_processes
            << " alerts=" << alerts << "\n"
            << std::flush;

  const bool merged = aggregator.status("hub") != nullptr &&
                      aggregator.status("node-a") != nullptr &&
                      aggregator.status("node-b") != nullptr;
  const bool idle_clean = responder_idle.snapshots_sent() == 0 &&
                          responder_idle.clean_scrapes() >= rounds / 2;
  return merged && rejected == 0 && idle_clean && stitched_processes >= 3 ? 0
                                                                          : 1;
}
