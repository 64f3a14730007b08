// One manager shard of a federated DUST fleet as an OS process
// (DESIGN.md §16).
//
// Runs the demo fleet scenario (federation/demo_fleet.hpp): a 12-node ring
// split into two 6-node domains. The process binds the shard's own hub
// (its clients connect there, exactly like the single-manager daemon),
// opens one leaf link per neighboring shard for the manager-to-manager
// plane, and wraps the unmodified core::DustManager in a FederatedManager:
// local solves against the masked domain view, residual overflow delegated
// to the least-loaded neighbor, epochs fencing every federation frame.
//
//   ./build/examples/federation_daemon --shard S --port P
//       [--peer T=HOST:PORT]...   neighbor shard hubs (federation links)
//       [--observer ENDPOINT]...  extra broadcast targets (the standby)
//       [--standby HOST:PORT]     standby mode: watch the primary at
//                                 HOST:PORT; on silence bind --port and
//                                 take the domain over (epoch bump)
//       [--run-ms MS] [--settle-ms MS] [--cycle-ms MS] [--digest-ms MS]
//       [--silence-ms MS] [--die-at-ms MS]
//
// --die-at-ms exits abruptly (no teardown) to simulate a primary crash;
// the standby then detects silence, re-binds the same port, and clients
// re-home through the wire layer's reconnect listener.
//
// Machine-readable stdout (consumed by tests/federation_daemon_test):
//   PORT <listen-port>                 hub bound (primary / after takeover)
//   STANDBY watching=<host:port>       standby armed
//   REPORTING n=<n>                    every in-domain client STATed
//   STARTED shard=<s> epoch=<e>        federated cycles running
//   ASSIGN <busy> <dest> <amount-hex> <local|ext-dest|ext-origin>
//   REMOVE <busy> <dest>               a relationship went away
//   DELEGATION confirmed=<n>          a peer granted one of our requests
//   SILENT after_ms=<ms>               standby: primary went quiet
//   TAKEOVER epoch=<e>                 standby became the primary
//   FED shard=<s> epoch=<e> requested=.. confirmed=.. granted=..
//       rejected=.. refused=.. stale=.. takeovers=..
//   FINAL offloads=<n> keepalive_failures=<n> redirects=<n>
//   FINAL_ASSIGN <busy> <dest> <amount-hex> <flavor>
//
// Doubles print as IEEE-754 bit patterns so the forked test compares
// bit-exactly.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/manager.hpp"
#include "federation/demo_fleet.hpp"
#include "federation/federated_manager.hpp"
#include "util/log.hpp"
#include "wire/obs_scrape.hpp"
#include "wire/socket_transport.hpp"

namespace {

using namespace dust;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::int64_t wall_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The shard solves only what its clients report: start from the demo
/// topology with zero load so out-of-domain nodes (whose clients report to
/// other shards) never look busy here.
core::Nmdb blank_fleet_nmdb() {
  net::NetworkState state(federation::demo_fleet_nmdb().network().graph());
  return core::Nmdb(std::move(state), core::Thresholds{});
}

struct Options {
  std::uint32_t shard = 0;
  std::uint16_t port = 0;
  std::vector<std::pair<std::uint32_t, std::string>> peers;  // shard, host:port
  std::vector<std::string> observers;
  std::string standby_target;  // host:port of the primary to watch
  std::int64_t run_ms = 10000;
  std::int64_t settle_ms = 15000;
  std::int64_t cycle_ms = 1000;
  std::int64_t digest_ms = 400;
  std::int64_t silence_ms = 2000;
  std::int64_t die_at_ms = -1;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --shard S --port P [--peer T=HOST:PORT]..."
               " [--observer ENDPOINT]... [--standby HOST:PORT]"
               " [--run-ms MS] [--settle-ms MS] [--cycle-ms MS]"
               " [--digest-ms MS] [--silence-ms MS] [--die-at-ms MS]\n";
  std::exit(2);
}

std::pair<std::string, std::uint16_t> split_host_port(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos) return {s, 0};
  return {s.substr(0, colon),
          static_cast<std::uint16_t>(std::stoul(s.substr(colon + 1)))};
}

/// Runs the shard as primary on an already-bound hub until the deadline.
/// `fed` may start as a standby — `take_over` flips it via become_primary().
int run_primary(sim::Simulator& sim, wire::SocketTransport& hub,
                std::map<std::string, std::unique_ptr<wire::SocketTransport>>&
                    peer_links,
                federation::FederatedManager& fed, const Options& options,
                const std::chrono::steady_clock::time_point& t0,
                bool take_over) {
  const auto pump = [&] {
    hub.poll_once(1);
    for (auto& [endpoint, link] : peer_links) link->poll_once(0);
    sim.run_until(wall_since(t0));
  };

  if (take_over) {
    fed.become_primary();
    std::cout << "TAKEOVER epoch=" << fed.epoch() << "\n" << std::flush;
  }

  const std::size_t expect =
      federation::demo_fleet_partition().members[options.shard].size();
  bool reporting_printed = false;
  bool started = take_over;  // become_primary already started the cycles
  // Last printed relationship set, for ASSIGN/REMOVE change detection.
  std::map<std::pair<graph::NodeId, graph::NodeId>, double> shown;
  std::uint64_t shown_confirmed = 0;

  while (wall_since(t0) < options.run_ms) {
    if (options.die_at_ms >= 0 && wall_since(t0) >= options.die_at_ms) {
      // Crash, don't shut down: the standby must see silence, not a FIN-clean
      // goodbye, and clients must land in their reconnect loops.
      std::_Exit(7);
    }
    pump();
    const std::size_t reporting = fed.manager().nodes_reporting();
    if (!reporting_printed && reporting >= expect) {
      std::cout << "REPORTING n=" << reporting << "\n" << std::flush;
      reporting_printed = true;
    }
    if (!started && reporting_printed) {
      // Every in-domain client has STATed: digests and solves now describe
      // real load, never the blank bring-up view.
      fed.start();
      std::cout << "STARTED shard=" << fed.shard() << " epoch=" << fed.epoch()
                << "\n"
                << std::flush;
      started = true;
    }
    if (!started) {
      if (wall_since(t0) > options.settle_ms) {
        std::cerr << "federation_daemon: only " << reporting << "/" << expect
                  << " in-domain nodes reported within " << options.settle_ms
                  << " ms\n";
        return 3;
      }
      continue;
    }
    // Relationship churn, printed as it happens (the primary may be killed
    // before FINAL, so the test needs the live feed).
    std::map<std::pair<graph::NodeId, graph::NodeId>, double> current;
    std::map<std::pair<graph::NodeId, graph::NodeId>, const char*> flavor;
    for (const core::ActiveOffload& offload : fed.manager().active_offloads()) {
      const auto key = std::make_pair(offload.busy, offload.destination);
      current[key] = offload.amount;
      flavor[key] = offload.external_origin        ? "ext-origin"
                    : offload.external_destination ? "ext-dest"
                                                   : "local";
    }
    for (const auto& [key, amount] : current)
      if (shown.find(key) == shown.end())
        std::cout << "ASSIGN " << key.first << " " << key.second << " "
                  << std::hex << bits(amount) << std::dec << " " << flavor[key]
                  << "\n"
                  << std::flush;
    for (const auto& [key, amount] : shown)
      if (current.find(key) == current.end())
        std::cout << "REMOVE " << key.first << " " << key.second << "\n"
                  << std::flush;
    shown = std::move(current);
    if (fed.stats().delegations_confirmed != shown_confirmed) {
      shown_confirmed = fed.stats().delegations_confirmed;
      std::cout << "DELEGATION confirmed=" << shown_confirmed << "\n"
                << std::flush;
    }
  }

  const federation::FederationStats& stats = fed.stats();
  std::cout << "FED shard=" << fed.shard() << " epoch=" << fed.epoch()
            << " requested=" << stats.delegations_requested
            << " confirmed=" << stats.delegations_confirmed
            << " granted=" << stats.delegations_granted
            << " rejected=" << stats.delegations_rejected
            << " refused=" << stats.delegations_refused
            << " stale=" << stats.stale_frames_rejected
            << " takeovers=" << stats.takeovers << "\n";
  std::cout << "FINAL offloads=" << fed.manager().active_offload_count()
            << " keepalive_failures=" << fed.manager().keepalive_failures()
            << " redirects=" << fed.manager().redirects() << "\n";
  for (const core::ActiveOffload& offload : fed.manager().active_offloads())
    std::cout << "FINAL_ASSIGN " << offload.busy << " " << offload.destination
              << " " << std::hex << bits(offload.amount) << std::dec << " "
              << (offload.external_origin        ? "ext-origin"
                  : offload.external_destination ? "ext-dest"
                                                 : "local")
              << "\n";
  std::cout << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::init_log_level_from_env();
  Options options;
  bool have_shard = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shard" && i + 1 < argc) {
      options.shard = static_cast<std::uint32_t>(std::stoul(argv[++i]));
      have_shard = true;
    } else if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
    } else if (arg == "--peer" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) usage(argv[0]);
      options.peers.emplace_back(
          static_cast<std::uint32_t>(std::stoul(spec.substr(0, eq))),
          spec.substr(eq + 1));
    } else if (arg == "--observer" && i + 1 < argc) {
      options.observers.push_back(argv[++i]);
    } else if (arg == "--standby" && i + 1 < argc) {
      options.standby_target = argv[++i];
    } else if (arg == "--run-ms" && i + 1 < argc) {
      options.run_ms = std::stoll(argv[++i]);
    } else if (arg == "--settle-ms" && i + 1 < argc) {
      options.settle_ms = std::stoll(argv[++i]);
    } else if (arg == "--cycle-ms" && i + 1 < argc) {
      options.cycle_ms = std::stoll(argv[++i]);
    } else if (arg == "--digest-ms" && i + 1 < argc) {
      options.digest_ms = std::stoll(argv[++i]);
    } else if (arg == "--silence-ms" && i + 1 < argc) {
      options.silence_ms = std::stoll(argv[++i]);
    } else if (arg == "--die-at-ms" && i + 1 < argc) {
      options.die_at_ms = std::stoll(argv[++i]);
    } else {
      usage(argv[0]);
    }
  }
  if (!have_shard) usage(argv[0]);

  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  const federation::DomainPartition partition =
      federation::demo_fleet_partition();

  federation::FederatedManagerConfig fed_config;
  fed_config.shard = options.shard;
  fed_config.digest_period_ms = options.digest_ms;
  fed_config.digest_stale_ms = 10 * options.digest_ms;
  fed_config.delegation_timeout_ms = 5 * options.cycle_ms;
  fed_config.primary_silence_timeout_ms = options.silence_ms;
  fed_config.manager.update_interval_ms = 200;
  fed_config.manager.placement_period_ms = options.cycle_ms;  // federated cycle
  fed_config.manager.keepalive_timeout_ms = 1500;
  fed_config.manager.keepalive_check_period_ms = 200;
  // A request that raced a dying destination or a mid-takeover client must
  // not dangle unacknowledged forever.
  fed_config.manager.offload_request_retry_ms = 2 * options.cycle_ms;

  // --- standby: watch the primary until it goes silent --------------------
  std::uint64_t seen_epoch = 1;
  if (!options.standby_target.empty()) {
    const auto [host, port] = split_host_port(options.standby_target);
    wire::SocketTransportConfig watch_config;
    watch_config.role = wire::SocketTransportConfig::Role::kLeaf;
    watch_config.host = host;
    watch_config.port = port;
    watch_config.now = [&sim] { return sim.now(); };
    auto watch = std::make_unique<wire::SocketTransport>(watch_config);
    // The primary broadcasts hellos/digests to this endpoint (its
    // --observer list); any federation frame from its own shard is the
    // liveness signal.
    std::int64_t last_activity = wall_since(t0);
    watch->register_frame_endpoint(
        federation::standby_federation_endpoint(options.shard),
        [&](wire::Frame&& frame) {
          const auto origin = wire::federation_origin(frame);
          if (!origin || origin->shard != options.shard) return;
          last_activity = wall_since(t0);
          seen_epoch = std::max(seen_epoch, origin->epoch);
        });
    std::cout << "STANDBY watching=" << options.standby_target << "\n"
              << std::flush;
    while (wall_since(t0) - last_activity < options.silence_ms) {
      if (wall_since(t0) >= options.run_ms) return 0;  // primary outlived us
      watch->poll_once(5);
      sim.run_until(wall_since(t0));
    }
    std::cout << "SILENT after_ms=" << options.silence_ms << "\n"
              << std::flush;
    watch.reset();  // release the link before claiming the primary's port
  }

  // --- bind the shard hub (primary immediately; standby: port takeover) ---
  std::unique_ptr<wire::SocketTransport> hub;
  while (hub == nullptr) {
    try {
      wire::SocketTransportConfig hub_config;
      hub_config.role = wire::SocketTransportConfig::Role::kHub;
      hub_config.port = options.port;
      hub_config.now = [&sim] { return sim.now(); };
      hub = std::make_unique<wire::SocketTransport>(hub_config);
    } catch (const std::runtime_error&) {
      // The dead primary's listener may linger briefly; keep claiming.
      if (wall_since(t0) > options.settle_ms) {
        std::cerr << "federation_daemon: cannot bind port " << options.port
                  << "\n";
        return 4;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  std::cout << "PORT " << hub->listen_port() << "\n" << std::flush;

  // This process's metrics, scrapable by a multi-hub fleet_top.
  wire::ObsResponder obs_responder(*hub,
                                   "shard" + std::to_string(options.shard));

  // One leaf link per neighbor shard's hub, keyed by federation endpoint.
  std::map<std::string, std::unique_ptr<wire::SocketTransport>> peer_links;
  for (const auto& [peer_shard, target] : options.peers) {
    const auto [host, port] = split_host_port(target);
    wire::SocketTransportConfig link_config;
    link_config.role = wire::SocketTransportConfig::Role::kLeaf;
    link_config.host = host;
    link_config.port = port;
    link_config.now = [&sim] { return sim.now(); };
    peer_links.emplace(federation::federation_endpoint(peer_shard),
                       std::make_unique<wire::SocketTransport>(link_config));
  }

  const bool take_over = !options.standby_target.empty();
  fed_config.standby = take_over;
  fed_config.epoch = seen_epoch;
  federation::FederatedManager fed(sim, *hub, blank_fleet_nmdb(), partition,
                                   fed_config);
  for (const auto& [peer_shard, target] : options.peers) fed.add_peer(peer_shard);
  for (const std::string& observer : options.observers)
    fed.add_observer(observer);
  fed.set_peer_sender([&](wire::Frame&& frame) {
    const auto link = peer_links.find(frame.to);
    if (link != peer_links.end()) return link->second->send_frame(frame);
    return hub->send_frame(frame);  // observers announce themselves on the hub
  });
  // Federation-plane endpoint: every peer frame for this shard arrives here,
  // on the shard's own hub (peers send over their leaf links toward it).
  hub->register_frame_endpoint(
      federation::federation_endpoint(options.shard),
      [&](wire::Frame&& frame) { fed.handle_peer_frame(std::move(frame)); });
  // Cross-domain client traffic (the busy client's AgentTransfer to a
  // destination homed on a peer shard, and any telemetry flowing back) has
  // no route on this hub; bridge it over the federation link toward the
  // destination node's home shard.
  hub->set_gateway([&](const wire::Frame& frame) {
    constexpr std::string_view kClientPrefix = "dust-client-";
    if (frame.to.rfind(kClientPrefix, 0) != 0) return false;
    graph::NodeId node = 0;
    try {
      node = static_cast<graph::NodeId>(
          std::stoul(frame.to.substr(kClientPrefix.size())));
    } catch (const std::exception&) {
      return false;
    }
    if (node >= partition.home.size()) return false;
    const std::uint32_t owner = partition.home[node];
    if (owner == options.shard) return false;
    const auto link = peer_links.find(federation::federation_endpoint(owner));
    if (link == peer_links.end()) return false;
    return link->second->send_frame(frame);
  });

  return run_primary(sim, *hub, peer_links, fed, options, t0, take_over);
}
