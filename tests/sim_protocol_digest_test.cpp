// Protocol message digest: the whole §III-B control conversation of a
// fat-tree fleet, reduced to one hash per stream and compared against
// recorded values.
//
// A k=4 and a k=8 fleet run the manager and one client per switch over
// sim::Transport with busy nodes, 2% loss, a partition/heal/congestion
// fault script, a destination killed mid-run (keepalive loss, then replica
// substitution, then no_endpoint drops), one keepalive flapper under trust
// weighting, and kLow telemetry streaming. Three streams are hashed:
//   - every delivery: sim ms, from, to, kind, priority, trace_id, in the
//     order handlers ran;
//   - every msg_tx / msg_drop flight event: sim ms, trace_id, node, peer and
//     the detail string ("loss: stat c3>M"), so drop causes and the
//     recorder's labels are pinned byte for byte;
//   - the final offload table.
// The recorded values must not change when the event core or the transport
// is rebuilt: execution order is part of the simulator's contract.
//
// The offload-table hashes were re-recorded when the transportation simplex
// moved to a radix-sorted start order and block-search pricing. The solver
// reaches the same optimal flows along a different pivot path, so four
// amounts (one at k=4, three at k=8) differ in their last bits, under
// 1e-13 relative; every delivery, hop, destination and count is unchanged.
// They were re-recorded again when the least-cost start took the slack row
// last: the same optima along shorter pivot paths, and three amounts (one
// at k=4, two at k=8) moved in their last bits, under 1e-13 relative.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace dust::core {
namespace {

/// FNV-1a over the raw bytes of every field, in order.
struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  std::uint64_t count = 0;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      value ^= p[i];
      value *= 1099511628211ull;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void str(std::string_view s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
};

/// Forwards to a sim::Transport and hashes every delivery as the handler
/// runs it. Drops never reach a handler; they are read from the flight
/// recorder instead.
class DigestTransport final : public sim::TransportBase {
 public:
  DigestTransport(sim::Simulator& sim, sim::Transport& inner)
      : sim_(&sim), inner_(&inner) {}

  std::uint64_t register_endpoint(const std::string& name,
                                  Handler handler) override {
    return inner_->register_endpoint(
        name, [this, handler = std::move(handler)](const sim::Envelope& e) {
          deliveries.pod(sim_->now());
          deliveries.str(e.from);
          deliveries.str(e.to);
          deliveries.str(e.kind);
          deliveries.pod(e.priority);
          deliveries.pod(e.trace_id);
          ++deliveries.count;
          handler(e);
        });
  }
  void unregister_endpoint(const std::string& name,
                           std::uint64_t token) override {
    inner_->unregister_endpoint(name, token);
  }
  bool has_endpoint(const std::string& name) const override {
    return inner_->has_endpoint(name);
  }
  sim::EndpointId resolve(const std::string& name) override {
    return inner_->resolve(name);
  }
  void send(sim::EndpointId from, sim::EndpointId to, sim::Payload payload,
            sim::Priority priority, std::string_view kind,
            std::uint64_t trace_id) override {
    inner_->send(from, to, std::move(payload), priority, kind, trace_id);
  }

  Digest deliveries;

 private:
  sim::Simulator* sim_;
  sim::Transport* inner_;
};

struct FleetDigest {
  std::uint64_t deliveries = 0;
  std::uint64_t hops = 0;
  std::uint64_t offloads = 0;
  std::uint64_t delivered = 0;
  std::uint64_t tx_events = 0;
  std::uint64_t drop_events = 0;
  /// Drops by cause: loss, partition, congestion, no_endpoint.
  std::array<std::uint64_t, 4> drops_by_cause{};
  std::size_t final_offloads = 0;
  std::size_t keepalive_failures = 0;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

FleetDigest run_fleet(std::uint32_t k, std::uint64_t seed) {
  obs::set_enabled(true);
  obs::reset_trace_ids();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.clear();

  util::Rng rng(seed);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(k).graph(), net::LinkProfile{}, net::NodeLoadProfile{},
      rng);
  const auto n = static_cast<graph::NodeId>(state.node_count());
  std::vector<double> load(n);
  for (graph::NodeId v = 0; v < n; ++v) load[v] = rng.uniform(10.0, 75.0);
  const std::size_t busy_count = k / 2;
  for (std::size_t i = 0; i < busy_count; ++i)
    load[static_cast<graph::NodeId>(rng.below(n))] = rng.uniform(85.0, 97.0);
  for (graph::NodeId v = 0; v < n; ++v) {
    state.set_node_utilization(v, load[v]);
    state.set_monitoring_data_mb(v, 10.0);
  }

  ManagerConfig config;
  config.update_interval_ms = 1000;
  config.placement_period_ms = 5000;
  config.keepalive_timeout_ms = 4000;
  config.keepalive_check_period_ms = 1000;
  config.optimizer.placement.trust_weighting = true;
  config.incremental_placement = k >= 8;
  config.optimizer.allow_partial = true;
  config.optimizer.placement.max_hops = 4;

  sim::Simulator sim;
  sim::Transport transport(sim, rng.fork(1));
  DigestTransport digest(sim, transport);
  DustManager manager(sim, digest, Nmdb(std::move(state), Thresholds{}),
                      config);
  std::vector<std::unique_ptr<DustClient>> clients;
  for (graph::NodeId v = 0; v < n; ++v) {
    clients.push_back(std::make_unique<DustClient>(
        sim, digest, v, ClientConfig{.keepalive_interval_ms = 1000},
        rng.fork(100 + v)));
    clients.back()->set_reported_state(load[v], 10.0, 10);
  }

  // The flapper is the highest-numbered idle node: silent 2.5 s of every
  // 4 s, re-announcing on each up-transition.
  graph::NodeId flapper = n - 1;
  while (load[flapper] > 80.0) --flapper;
  clients[flapper]->set_byzantine(
      ByzantineBehavior{.flap_period_ms = 4000, .flap_down_ms = 2500});

  // Partition a node that is neither busy nor the flapper for 3 s, and the
  // manager for one STAT round.
  graph::NodeId isolated = 1;
  while (load[isolated] > 80.0 || isolated == flapper) ++isolated;
  using Kind = sim::FaultEvent::Kind;
  sim::schedule_fault_script(
      sim, transport,
      {{2000, Kind::kLossProbability, 0.02, ""},
       {8000, Kind::kPartition, 0.0, client_endpoint(isolated)},
       {8000, Kind::kPartition, 0.0, manager_endpoint()},
       {8400, Kind::kHeal, 0.0, manager_endpoint()},
       {11000, Kind::kHeal, 0.0, client_endpoint(isolated)},
       {14000, Kind::kCongestionOn, 0.0, ""},
       {16500, Kind::kCongestionOff, 0.0, ""}});

  // kLow telemetry from every live client to its destinations.
  sim::PeriodicTask telemetry(sim, 500, 500, [&](sim::TimeMs now) {
    telemetry::DeviceSnapshot snapshot;
    snapshot.timestamp_ms = now;
    for (auto& client : clients)
      if (client) client->publish_snapshot(snapshot);
  });

  for (auto& client : clients) client->start();
  manager.start();

  Digest hops;
  std::uint64_t tx_events = 0;
  std::uint64_t drop_events = 0;
  std::array<std::uint64_t, 4> drops_by_cause{};
  constexpr std::array<std::string_view, 4> kCauses = {
      "loss: ", "partition: ", "congestion: ", "no_endpoint: "};
  bool killed = false;
  for (sim::TimeMs t = 50; t <= 30000; t += 50) {
    const std::uint64_t before = recorder.recorded();
    sim.run_until(t);
    EXPECT_LE(recorder.recorded() - before, recorder.capacity())
        << "flight recorder wrapped inside one chunk";
    for (const obs::FlightEvent& event : recorder.snapshot()) {
      if (event.kind != obs::FlightEventKind::kMessageTx &&
          event.kind != obs::FlightEventKind::kMessageDrop)
        continue;
      (event.kind == obs::FlightEventKind::kMessageTx ? tx_events
                                                      : drop_events)++;
      const std::string_view detail(
          event.detail, strnlen(event.detail, sizeof(event.detail)));
      for (std::size_t c = 0; c < kCauses.size(); ++c)
        if (event.kind == obs::FlightEventKind::kMessageDrop &&
            detail.starts_with(kCauses[c]))
          ++drops_by_cause[c];
      hops.pod(event.kind);
      hops.pod(event.sim_ms);
      hops.pod(event.trace_id);
      hops.pod(event.node);
      hops.pod(event.peer);
      hops.str(detail);
    }
    recorder.clear();

    // Kill the first acknowledged destination that is neither the flapper
    // nor the isolated node: its keepalives stop, the manager substitutes a
    // replica, and what is still sent to it drops as no_endpoint.
    if (!killed && t >= 12000) {
      for (const ActiveOffload& offload : manager.active_offloads()) {
        if (!offload.acknowledged || offload.destination == flapper ||
            offload.destination == isolated)
          continue;
        clients[offload.destination].reset();
        killed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(killed) << "no acknowledged destination to kill";

  Digest offloads;
  const std::vector<ActiveOffload> table = manager.active_offloads();
  for (const ActiveOffload& offload : table) {
    offloads.pod(offload.request_id);
    offloads.pod(offload.busy);
    offloads.pod(offload.destination);
    offloads.pod(offload.amount);
    offloads.pod(offload.agents);
    offloads.pod(offload.acknowledged);
    offloads.pod(offload.via_rep);
    offloads.pod(offload.retransmits);
    offloads.pod(offload.requested_at);
    for (graph::NodeId hop : offload.route) offloads.pod(hop);
  }

  FleetDigest out;
  out.deliveries = digest.deliveries.value;
  out.hops = hops.value;
  out.offloads = offloads.value;
  out.delivered = digest.deliveries.count;
  out.tx_events = tx_events;
  out.drop_events = drop_events;
  out.drops_by_cause = drops_by_cause;
  out.final_offloads = table.size();
  out.keepalive_failures = manager.keepalive_failures();
  EXPECT_EQ(transport.delivered(), out.delivered);
  EXPECT_EQ(transport.sent(), out.tx_events);
  EXPECT_EQ(transport.dropped(), out.drop_events);
  return out;
}

void expect_digest(const FleetDigest& got, const FleetDigest& want) {
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.tx_events, want.tx_events);
  EXPECT_EQ(got.drop_events, want.drop_events);
  EXPECT_EQ(got.drops_by_cause, want.drops_by_cause);
  EXPECT_EQ(got.final_offloads, want.final_offloads);
  EXPECT_EQ(got.keepalive_failures, want.keepalive_failures);
  EXPECT_EQ(hex(got.deliveries), hex(want.deliveries));
  EXPECT_EQ(hex(got.hops), hex(want.hops));
  EXPECT_EQ(hex(got.offloads), hex(want.offloads));
}

TEST(ProtocolDigest, FatTreeK4) {
  expect_digest(run_fleet(4, 11),
                FleetDigest{.deliveries = 0xfcd1dbe08c42bcbfull,
                            .hops = 0xbe6ead04181dc9dfull,
                            .offloads = 0xca51ebafa07eb438ull,
                            .delivered = 842,
                            .tx_events = 903,
                            .drop_events = 56,
                            .drops_by_cause = {16, 20, 15, 5},
                            .final_offloads = 5,
                            .keepalive_failures = 1});
}

TEST(ProtocolDigest, FatTreeK8) {
  expect_digest(run_fleet(8, 23),
                FleetDigest{.deliveries = 0xf01a1fabaf484795ull,
                            .hops = 0x7adff82eb1953e78ull,
                            .offloads = 0xaf16062b87f5967eull,
                            .delivered = 2674,
                            .tx_events = 2827,
                            .drop_events = 148,
                            .drops_by_cause = {51, 78, 14, 5},
                            .final_offloads = 5,
                            .keepalive_failures = 1});
}

}  // namespace
}  // namespace dust::core
