// wire::SocketTransport over real loopback TCP: delivery, hub routing, QoS
// shedding, reconnect, and a full manager/client handshake where the socket
// run must land on the same placement as the simulated transport.
#include "wire/socket_transport.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "core/messages.hpp"
#include "obs/aggregator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "wire/demo_scenario.hpp"
#include "wire/obs_scrape.hpp"

namespace dust {
namespace {

using wire::SocketTransport;
using wire::SocketTransportConfig;

SocketTransportConfig hub_config() {
  SocketTransportConfig config;
  config.role = SocketTransportConfig::Role::kHub;
  return config;
}

SocketTransportConfig leaf_config(std::uint16_t port) {
  SocketTransportConfig config;
  config.role = SocketTransportConfig::Role::kLeaf;
  config.port = port;
  return config;
}

/// Pump every transport until `done` or the wall deadline. Returns whether
/// `done` came true.
bool pump_until(const std::vector<SocketTransport*>& transports,
                const std::function<bool()>& done, int deadline_ms = 5000) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!done()) {
    for (SocketTransport* transport : transports) transport->poll_once(1);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    if (elapsed.count() > deadline_ms) return false;
  }
  return true;
}

TEST(WireSocket, LeafDeliversToHubEndpoint) {
  SocketTransport hub(hub_config());
  SocketTransport leaf(leaf_config(hub.listen_port()));

  std::vector<sim::Envelope> received;
  hub.register_endpoint("dust-manager",
                        [&](const sim::Envelope& envelope) {
                          received.push_back(envelope);
                        });
  leaf.register_endpoint("dust-client-0", [](const sim::Envelope&) {});

  core::Message message{core::StatMsg{0, 55.5, 12.25, 3, 1.0, {0xAB, 0xCD}}};
  leaf.send("dust-client-0", "dust-manager", message, sim::Priority::kNormal,
            "stat", 0xAB);

  ASSERT_TRUE(pump_until({&hub, &leaf}, [&] { return !received.empty(); }));
  const sim::Envelope& envelope = received.front();
  EXPECT_EQ(envelope.from, "dust-client-0");
  EXPECT_EQ(envelope.to, "dust-manager");
  EXPECT_EQ(envelope.priority, sim::Priority::kNormal);
  EXPECT_EQ(envelope.kind, "stat");
  EXPECT_EQ(envelope.trace_id, 0xABu);
  const auto* stat = std::get_if<core::StatMsg>(
      envelope.payload.get_if<core::Message>());
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->utilization_percent, 55.5);
  EXPECT_EQ(stat->trace.trace_id, 0xABu);
  EXPECT_EQ(leaf.frames_sent(), 1u);
  EXPECT_EQ(hub.frames_received(), 1u);
}

TEST(WireSocket, HubForwardsBetweenLeaves) {
  SocketTransport hub(hub_config());
  SocketTransport left(leaf_config(hub.listen_port()));
  SocketTransport right(leaf_config(hub.listen_port()));

  std::vector<sim::Envelope> received;
  left.register_endpoint("dust-client-1", [](const sim::Envelope&) {});
  right.register_endpoint("dust-client-2",
                          [&](const sim::Envelope& envelope) {
                            received.push_back(envelope);
                          });

  // Wait for both announces to land before routing leaf-to-leaf.
  ASSERT_TRUE(pump_until({&hub, &left, &right},
                         [&] { return hub.peer_count() == 2; }));

  core::Message message{
      core::TelemetryDataMsg{1, telemetry::DeviceSnapshot{}}};
  left.send("dust-client-1", "dust-client-2", message, sim::Priority::kLow,
            "telemetry_data");

  ASSERT_TRUE(pump_until({&hub, &left, &right},
                         [&] { return !received.empty(); }));
  EXPECT_EQ(received.front().to, "dust-client-2");
  EXPECT_EQ(received.front().priority, sim::Priority::kLow);
  EXPECT_GE(hub.frames_forwarded(), 1u);
}

TEST(WireSocket, SameProcessEndpointsBypassTheWire) {
  SocketTransport hub(hub_config());
  std::vector<sim::Envelope> received;
  hub.register_endpoint("a", [](const sim::Envelope&) {});
  hub.register_endpoint("b", [&](const sim::Envelope& envelope) {
    received.push_back(envelope);
  });
  hub.send("a", "b", core::Message{core::AckMsg{3, 1000}},
           sim::Priority::kNormal, "ack");
  EXPECT_TRUE(received.empty());  // delivery happens inside poll_once
  hub.poll_once(0);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received.front().kind, "ack");
}

TEST(WireSocket, QueueCapShedsLowPriorityFirst) {
  // Point the leaf at a dead port: nothing ever flushes, so the outbound
  // queue hits the cap deterministically.
  SocketTransportConfig config = leaf_config(1);
  config.max_queued_frames = 3;
  SocketTransport leaf(config);
  leaf.register_endpoint("dust-client-0", [](const sim::Envelope&) {});

  core::Message low{core::TelemetryDataMsg{0, telemetry::DeviceSnapshot{}}};
  core::Message normal{core::KeepaliveMsg{0, 1}};
  for (int i = 0; i < 3; ++i)
    leaf.send("dust-client-0", "dust-manager", low, sim::Priority::kLow,
              "telemetry_data");
  EXPECT_EQ(leaf.dropped(), 0u);

  // kLow arriving at a full queue is shed outright...
  leaf.send("dust-client-0", "dust-manager", low, sim::Priority::kLow,
            "telemetry_data");
  EXPECT_EQ(leaf.dropped(), 1u);
  // ...while kNormal displaces a queued kLow frame instead.
  leaf.send("dust-client-0", "dust-manager", normal, sim::Priority::kNormal,
            "keepalive");
  EXPECT_EQ(leaf.dropped(), 2u);
  // Two queued kLow frames remain; two more kNormal sends displace both...
  for (int i = 0; i < 2; ++i)
    leaf.send("dust-client-0", "dust-manager", normal, sim::Priority::kNormal,
              "keepalive");
  EXPECT_EQ(leaf.dropped(), 4u);
  // ...and only when no kLow is left does kNormal overflow drop the new
  // frame.
  leaf.send("dust-client-0", "dust-manager", normal, sim::Priority::kNormal,
            "keepalive");
  EXPECT_EQ(leaf.dropped(), 5u);
}

TEST(WireSocket, LeafReconnectsAndRedeliversQueuedFrames) {
  SocketTransportConfig fast_retry;
  std::uint16_t port = 0;
  std::vector<sim::Envelope> received;
  auto make_hub = [&](std::uint16_t bind_port) {
    SocketTransportConfig config = hub_config();
    config.port = bind_port;
    auto hub = std::make_unique<SocketTransport>(config);
    hub->register_endpoint("dust-manager",
                           [&](const sim::Envelope& envelope) {
                             received.push_back(envelope);
                           });
    return hub;
  };

  auto hub = make_hub(0);
  port = hub->listen_port();
  SocketTransportConfig config = leaf_config(port);
  config.reconnect_initial_ms = 10;
  config.reconnect_max_ms = 50;
  SocketTransport leaf(config);
  leaf.register_endpoint("dust-client-0", [](const sim::Envelope&) {});

  core::Message message{core::KeepaliveMsg{0, 1}};
  leaf.send("dust-client-0", "dust-manager", message, sim::Priority::kNormal,
            "keepalive");
  ASSERT_TRUE(
      pump_until({hub.get(), &leaf}, [&] { return received.size() == 1; }));

  // Hub dies; frames sent during the outage queue on the leaf.
  hub.reset();
  leaf.send("dust-client-0", "dust-manager", message, sim::Priority::kNormal,
            "keepalive");
  ASSERT_TRUE(pump_until({&leaf}, [&] { return !leaf.connected(); }));

  // Hub returns on the same port: the leaf must reconnect, re-announce, and
  // flush the queued frame without any caller involvement.
  hub = make_hub(port);
  ASSERT_TRUE(
      pump_until({hub.get(), &leaf}, [&] { return received.size() == 2; }));
  EXPECT_GE(leaf.reconnects(), 1u);
  EXPECT_EQ(received.back().kind, "keepalive");
}

TEST(WireSocket, FederationFramesRouteToFederationHandler) {
  // Two shard managers on separate leaves; delegation frames cross the hub
  // and land on the peer's frame endpoint, never on the envelope path.
  SocketTransport hub(hub_config());
  SocketTransport left(leaf_config(hub.listen_port()));
  SocketTransport right(leaf_config(hub.listen_port()));

  left.register_endpoint("dust-fed-0", [](const sim::Envelope&) {});
  std::vector<wire::Frame> at_right;
  right.register_frame_endpoint("dust-fed-1", [&](wire::Frame&& frame) {
    at_right.push_back(std::move(frame));
  });

  ASSERT_TRUE(pump_until({&hub, &left, &right},
                         [&] { return hub.peer_count() == 2; }));

  wire::DelegateRequestBody request;
  request.shard = 0;
  request.epoch = 1;
  request.delegation_id = 7;
  request.busy = 3;
  request.amount = 2.5;
  request.agents = 1;
  ASSERT_TRUE(left.send_frame(
      wire::delegate_request_frame("dust-fed-0", "dust-fed-1", request, 0x77)));
  ASSERT_TRUE(pump_until({&hub, &left, &right},
                         [&] { return !at_right.empty(); }));
  EXPECT_EQ(at_right.front().type, wire::FrameType::kDelegateRequest);
  EXPECT_EQ(at_right.front().delegate_request.delegation_id, 7u);
  EXPECT_EQ(at_right.front().trace_id, 0x77u);

  // Same-process federation endpoints loop back through the codec and the
  // same kind of handler (the in-process multi-shard test topology).
  std::vector<wire::Frame> at_hub;
  hub.register_endpoint("dust-fed-2", [](const sim::Envelope&) {});
  hub.register_frame_endpoint("dust-fed-3", [&](wire::Frame&& frame) {
    at_hub.push_back(std::move(frame));
  });
  wire::CapacityDigestBody digest;
  digest.shard = 2;
  digest.epoch = 1;
  digest.spare = 9.0;
  ASSERT_TRUE(hub.send_frame(
      wire::capacity_digest_frame("dust-fed-2", "dust-fed-3", digest)));
  hub.poll_once(0);
  ASSERT_EQ(at_hub.size(), 1u);
  EXPECT_EQ(at_hub.front().type, wire::FrameType::kCapacityDigest);
  EXPECT_EQ(at_hub.front().capacity_digest.spare, 9.0);
}

TEST(WireSocket, FrameEndpointsShareOneTransport) {
  // Every frame goes to the endpoint it names, so one transport hosts any
  // number of responders, scrapers and federation endpoints.
  SocketTransport hub(hub_config());
  SocketTransport leaf(leaf_config(hub.listen_port()));

  obs::MetricRegistry registry_a;
  obs::MetricRegistry registry_b;
  registry_a.counter("a_total").inc(1);
  registry_b.counter("b_total").inc(2);
  obs::Aggregator aggregator;
  wire::ObsScraper scraper(hub, aggregator, "dust-obs-scraper");
  auto responder_a =
      std::make_unique<wire::ObsResponder>(leaf, "node-a", registry_a);
  wire::ObsResponder responder_b(leaf, "node-b", registry_b);
  ASSERT_TRUE(pump_until({&hub, &leaf}, [&] {
    return hub.remote_endpoint_names(wire::kObsEndpointPrefix).size() == 2;
  }));

  // Each responder answers its own scrape; the aggregator lists both nodes.
  ASSERT_EQ(scraper.scrape(0), 2u);
  ASSERT_TRUE(pump_until({&hub, &leaf},
                         [&] { return scraper.snapshots_applied() == 2; }));
  EXPECT_EQ(responder_a->snapshots_sent(), 1u);
  EXPECT_EQ(responder_b.snapshots_sent(), 1u);
  EXPECT_EQ(aggregator.nodes().size(), 2u);
  EXPECT_EQ(aggregator.counter_value("node-a", "a_total"), 1u);
  EXPECT_EQ(aggregator.counter_value("node-b", "b_total"), 2u);

  // Destroying one responder leaves the other answering.
  responder_a.reset();
  registry_b.counter("b_total").inc(3);
  scraper.scrape(1);
  ASSERT_TRUE(pump_until({&hub, &leaf},
                         [&] { return scraper.snapshots_applied() == 3; }));
  EXPECT_EQ(responder_b.snapshots_sent(), 2u);
  EXPECT_EQ(aggregator.counter_value("node-b", "b_total"), 5u);

  // Two federation endpoints on one hub each receive only their own frames,
  // from a remote leaf and from the hub itself alike.
  std::vector<wire::Frame> at_0;
  std::vector<wire::Frame> at_1;
  hub.register_frame_endpoint("dust-fed-0", [&](wire::Frame&& frame) {
    at_0.push_back(std::move(frame));
  });
  hub.register_frame_endpoint("dust-fed-1", [&](wire::Frame&& frame) {
    at_1.push_back(std::move(frame));
  });
  wire::DelegateRequestBody request;
  request.shard = 2;
  request.delegation_id = 11;
  ASSERT_TRUE(leaf.send_frame(
      wire::delegate_request_frame("dust-fed-2", "dust-fed-0", request)));
  wire::CapacityDigestBody digest;
  digest.shard = 2;
  digest.spare = 4.0;
  ASSERT_TRUE(leaf.send_frame(
      wire::capacity_digest_frame("dust-fed-2", "dust-fed-1", digest)));
  wire::ShardHelloBody hello;
  hello.shard = 0;
  ASSERT_TRUE(hub.send_frame(
      wire::shard_hello_frame("dust-fed-0", "dust-fed-1", hello)));
  ASSERT_TRUE(pump_until({&hub, &leaf},
                         [&] { return at_0.size() + at_1.size() == 3; }));
  ASSERT_EQ(at_0.size(), 1u);
  EXPECT_EQ(at_0[0].type, wire::FrameType::kDelegateRequest);
  EXPECT_EQ(at_0[0].delegate_request.delegation_id, 11u);
  ASSERT_EQ(at_1.size(), 2u);
  for (const wire::Frame& frame : at_1) EXPECT_EQ(frame.to, "dust-fed-1");

  // A non-message frame addressed to a protocol endpoint is dropped as
  // no_endpoint; the envelope handler never sees it.
  int envelopes = 0;
  hub.register_endpoint("dust-manager",
                        [&](const sim::Envelope&) { ++envelopes; });
  const std::uint64_t dropped_before = hub.dropped();
  ASSERT_TRUE(hub.send_frame(
      wire::shard_hello_frame("dust-fed-0", "dust-manager", hello)));
  hub.poll_once(0);
  EXPECT_EQ(envelopes, 0);
  EXPECT_EQ(hub.dropped(), dropped_before + 1);
}

TEST(WireSocket, ReconnectListenerFramesOutrunTheStaleBacklog) {
  // Satellite: on re-home the fresh handshake (announce, then whatever the
  // reconnect listener sends — a client's current STAT) must reach the new
  // hub BEFORE frames queued during the outage, so a restarted manager
  // never solves from pre-outage ordering.
  std::uint16_t port = 0;
  std::vector<sim::Envelope> received;
  auto make_hub = [&](std::uint16_t bind_port) {
    SocketTransportConfig config = hub_config();
    config.port = bind_port;
    auto hub = std::make_unique<SocketTransport>(config);
    hub->register_endpoint("dust-manager",
                           [&](const sim::Envelope& envelope) {
                             received.push_back(envelope);
                           });
    return hub;
  };

  auto hub = make_hub(0);
  port = hub->listen_port();
  SocketTransportConfig config = leaf_config(port);
  config.reconnect_initial_ms = 10;
  config.reconnect_max_ms = 50;
  SocketTransport leaf(config);
  leaf.register_endpoint("dust-client-0", [](const sim::Envelope&) {});
  int listener_calls = 0;
  leaf.set_reconnect_listener([&] {
    ++listener_calls;
    leaf.send("dust-client-0", "dust-manager",
              core::Message{core::StatMsg{0, 42.0, 1.0, 1, 1.0, {}}},
              sim::Priority::kNormal, "fresh-stat");
  });

  core::Message keepalive{core::KeepaliveMsg{0, 1}};
  leaf.send("dust-client-0", "dust-manager", keepalive, sim::Priority::kNormal,
            "keepalive");
  ASSERT_TRUE(
      pump_until({hub.get(), &leaf}, [&] { return received.size() == 1; }));
  EXPECT_EQ(listener_calls, 0);  // never on the first connect

  // Hub dies; a stale frame queues on the leaf during the outage.
  hub.reset();
  leaf.send("dust-client-0", "dust-manager", keepalive, sim::Priority::kNormal,
            "stale-keepalive");
  ASSERT_TRUE(pump_until({&leaf}, [&] { return !leaf.connected(); }));

  // Hub returns: listener fires once, and its STAT lands before the backlog.
  hub = make_hub(port);
  ASSERT_TRUE(
      pump_until({hub.get(), &leaf}, [&] { return received.size() == 3; }));
  EXPECT_EQ(listener_calls, 1);
  EXPECT_EQ(received[1].kind, "fresh-stat");
  EXPECT_EQ(received[2].kind, "stale-keepalive");
}

// The full control plane over sockets: handshakes, the STAT gate, and one
// placement cycle must create exactly the offload relationships the
// simulated transport creates for the same scenario.
TEST(WireSocket, PlacementOverSocketsMatchesSimTransport) {
  // Reference run: in-process simulated transport.
  std::vector<core::ActiveOffload> reference;
  {
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
    ASSERT_EQ(manager.nodes_reporting(), scenario.node_count());
    manager.run_placement_cycle();
    reference = manager.active_offloads();
    ASSERT_FALSE(reference.empty());
  }

  // Socket run: manager on a hub, all clients on one leaf, loopback TCP.
  sim::Simulator sim;
  SocketTransportConfig hub_cfg = hub_config();
  hub_cfg.now = [&sim] { return sim.now(); };
  SocketTransport hub(hub_cfg);
  SocketTransportConfig leaf_cfg = leaf_config(hub.listen_port());
  leaf_cfg.now = [&sim] { return sim.now(); };
  SocketTransport leaf(leaf_cfg);

  core::ManagerConfig config;
  config.update_interval_ms = 200;
  config.placement_period_ms = 1LL << 40;
  core::DustManager manager(sim, hub, wire::demo_nmdb(), config);
  core::Nmdb scenario = wire::demo_nmdb();
  std::vector<std::unique_ptr<core::DustClient>> clients;
  for (graph::NodeId v = 0; v < scenario.node_count(); ++v) {
    core::ClientConfig client_config;
    client_config.offload_capable = scenario.offload_capable(v);
    client_config.platform_factor = scenario.platform_factor(v);
    clients.push_back(std::make_unique<core::DustClient>(
        sim, leaf, v, client_config, util::Rng(100 + v)));
    clients.back()->set_reported_state(
        scenario.network().node_utilization(v),
        scenario.network().monitoring_data_mb(v), 1);
    clients.back()->start();
  }
  manager.start();

  sim::TimeMs t = 0;
  ASSERT_TRUE(pump_until({&hub, &leaf}, [&] {
    sim.run_until(t += 10);
    return manager.nodes_reporting() == scenario.node_count();
  }));
  manager.run_placement_cycle();
  const std::vector<core::ActiveOffload> socketed = manager.active_offloads();

  ASSERT_EQ(socketed.size(), reference.size());
  for (std::size_t i = 0; i < socketed.size(); ++i) {
    EXPECT_EQ(socketed[i].busy, reference[i].busy);
    EXPECT_EQ(socketed[i].destination, reference[i].destination);
    // Bit-identical x_ij: the NMDB both solves ran on was equal field for
    // field, wire round trip included.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(socketed[i].amount),
              std::bit_cast<std::uint64_t>(reference[i].amount));
  }

  // The offload handshake itself (request -> ack -> agent transfer) also
  // completes over the wire.
  ASSERT_TRUE(pump_until({&hub, &leaf}, [&] {
    sim.run_until(t += 10);
    for (const auto& offload : manager.active_offloads())
      if (!offload.acknowledged) return false;
    return true;
  }));
  // All clients share one leaf, so busy -> destination legs stay local;
  // the handshake legs (request / ack) did cross the hub.
  EXPECT_GE(hub.frames_received(), scenario.node_count());
}


// Flight-recorder hop details of the socket transport: full endpoint names
// (no short labels), every drop cause it records, and the cut at the
// detail's 31 characters. Local sends, a remote receive and the queue cap
// all go through the same hop formatting.
TEST(WireSocketFlightDetail, TxRxAndDropLabelsArePinned) {
  obs::set_enabled(true);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.clear();
  SocketTransport hub(hub_config());
  hub.register_endpoint("dust-manager", [](const sim::Envelope&) {});
  hub.register_endpoint("dust-client-3", [](const sim::Envelope&) {});
  const std::uint64_t gone =
      hub.register_endpoint("dust-client-9", [](const sim::Envelope&) {});
  const core::Message ack{core::AckMsg{3, 1000}};
  hub.send("dust-manager", "dust-client-3", ack, sim::Priority::kNormal,
           "ack", 5);
  hub.send("dust-client-3", "dust-manager", ack, sim::Priority::kNormal,
           "stat", 77);
  hub.send("dust-client-3", "dust-manager", ack, sim::Priority::kNormal,
           "offload_capable");
  hub.send("dust-manager", "nowhere", ack, sim::Priority::kNormal);
  // Unregistered between send and dispatch: dropped inside poll_once.
  hub.send("dust-manager", "dust-client-9", ack, sim::Priority::kNormal,
           "rep", 9);
  hub.unregister_endpoint("dust-client-9", gone);
  // A non-message frame to an Envelope endpoint.
  hub.send_frame(wire::degrade_frame("dust-collector", "dust-client-3",
                                     wire::DegradeBody{}));
  hub.poll_once(0);

  // Over the wire: the leaf records tx, the hub rx.
  SocketTransport leaf(leaf_config(hub.listen_port()));
  leaf.register_endpoint("dust-client-0", [](const sim::Envelope&) {});
  ASSERT_TRUE(pump_until({&hub, &leaf}, [&] {
    return !hub.remote_endpoint_names("dust-client-0").empty();
  }));
  leaf.send("dust-client-0", "dust-manager",
            core::Message{core::KeepaliveMsg{0, 1}}, sim::Priority::kNormal,
            "keepalive", 42);
  ASSERT_TRUE(
      pump_until({&hub, &leaf}, [&] { return hub.frames_received() > 0; }));

  // Queue cap on a leaf that never connects.
  SocketTransportConfig dead = leaf_config(1);
  dead.max_queued_frames = 1;
  SocketTransport stuck(dead);
  const core::Message low{
      core::TelemetryDataMsg{0, telemetry::DeviceSnapshot{}}};
  stuck.send("c0", "m", low, sim::Priority::kLow, "telemetry_data");
  stuck.send("c0", "m", low, sim::Priority::kLow, "telemetry_data");
  stuck.send("dust-client-0", "dust-manager", low, sim::Priority::kLow,
             "telemetry_data", 3);

  std::vector<std::string> lines;
  for (const obs::FlightEvent& event : recorder.snapshot()) {
    const char* tag = nullptr;
    switch (event.kind) {
      case obs::FlightEventKind::kMessageTx: tag = "tx "; break;
      case obs::FlightEventKind::kMessageRx: tag = "rx "; break;
      case obs::FlightEventKind::kMessageDrop: tag = "drop "; break;
      default: continue;
    }
    lines.push_back(tag + std::string(event.detail) + " " +
                    std::to_string(event.node) + ">" +
                    std::to_string(event.peer) + " t" +
                    std::to_string(event.trace_id));
  }
  EXPECT_EQ(lines,
            (std::vector<std::string>{
                "tx ack dust-manager>dust-client-3 -1>-1 t5",
                "tx stat dust-client-3>dust-manager -1>-1 t77",
                "tx offload_capable dust-client-3>d -1>-1 t0",
                "tx ? dust-manager>nowhere -1>-1 t0",
                "drop no_endpoint: ? dust-manager>now -1>-1 t0",
                "tx rep dust-manager>dust-client-9 -1>-1 t9",
                "tx data_degrade dust-collector>dus -1>-1 t0",
                "drop no_endpoint: rep dust-manager>d -1>-1 t9",
                "drop no_endpoint: data_degrade dust- -1>-1 t0",
                "tx keepalive dust-client-0>dust-ma -1>-1 t42",
                "rx keepalive dust-client-0>dust-ma -1>-1 t42",
                "tx telemetry_data c0>m -1>-1 t0",
                "tx telemetry_data c0>m -1>-1 t0",
                "drop queue_full: telemetry_data c0>m -1>-1 t0",
                "tx telemetry_data dust-client-0>du -1>-1 t3",
                "drop queue_full: telemetry_data dust -1>-1 t3",
            }));
  recorder.clear();
}

// Endpoint names in frames come from peers, and hop labels are never
// freed: a transport interns at most 2^16 names for hop details, and the
// rest render as "?" instead of growing memory without bound.
TEST(WireSocketFlightDetail, PeerNamesPastTheCapShareOneLabel) {
  obs::set_enabled(true);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  SocketTransport hub(hub_config());
  constexpr int kNames = (1 << 16) + 1;
  for (int i = 0; i < kNames; ++i)
    hub.send_frame(wire::degrade_frame("c", "gone-" + std::to_string(i),
                                       wire::DegradeBody{}));
  EXPECT_EQ(hub.dropped(), static_cast<std::uint64_t>(kNames));
  const std::vector<obs::FlightEvent> last = recorder.tail(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_STREQ(last[0].detail, "data_degrade c>?");
  EXPECT_STREQ(last[1].detail, "no_endpoint: data_degrade c>?");
  recorder.clear();
}

}  // namespace
}  // namespace dust
