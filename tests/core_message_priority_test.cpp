// Pins the §III-C QoS invariant at the transport boundary: every Envelope a
// protocol state machine sends carries exactly message_priority(payload) and
// message_kind(payload). The wrapper below sees each send before the
// simulator does, so a state machine that hand-rolls its own priority (the
// historical Release bug: kLow control traffic) fails here by name.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"
#include "telemetry/agent.hpp"

namespace dust::core {
namespace {

class PriorityAuditTransport : public sim::TransportBase {
 public:
  explicit PriorityAuditTransport(sim::Transport& inner) : inner_(inner) {}

  std::uint64_t register_endpoint(const std::string& name,
                                  Handler handler) override {
    return inner_.register_endpoint(name, std::move(handler));
  }
  void unregister_endpoint(const std::string& name,
                           std::uint64_t token) override {
    inner_.unregister_endpoint(name, token);
  }
  [[nodiscard]] bool has_endpoint(const std::string& name) const override {
    return inner_.has_endpoint(name);
  }

  sim::EndpointId resolve(const std::string& name) override {
    return inner_.resolve(name);
  }

  void send(sim::EndpointId from, sim::EndpointId to, sim::Payload payload,
            sim::Priority priority, std::string_view kind,
            std::uint64_t trace_id) override {
    const auto* message = payload.get_if<Message>();
    ASSERT_NE(message, nullptr) << "non-Message payload from " << from;
    const char* expected_kind = message_kind(*message);
    EXPECT_EQ(priority, message_priority(*message))
        << expected_kind << " sent " << from << " -> " << to
        << " with a priority that disagrees with message_priority()";
    EXPECT_EQ(kind, expected_kind)
        << "envelope kind mislabelled for " << expected_kind;
    ++kinds_seen_[expected_kind];
    inner_.send(from, to, std::move(payload), priority, kind, trace_id);
  }

  [[nodiscard]] const std::map<std::string, std::size_t>& kinds_seen() const {
    return kinds_seen_;
  }

 private:
  sim::Transport& inner_;
  std::map<std::string, std::size_t> kinds_seen_;
};

// One run that exercises every message type of the §III-B flow: handshake,
// STATs, placement (request/ack/transfer), telemetry, keepalives, a
// destination death (REP), and a load drop (Release).
TEST(MessagePriority, EveryEnvelopeMatchesMessagePriorityAndKind) {
  sim::Simulator sim;
  sim::Transport raw(sim, util::Rng(7));
  PriorityAuditTransport transport(raw);

  net::NetworkState state(graph::make_ring(5));
  for (graph::NodeId v = 0; v < 5; ++v) {
    state.set_node_utilization(v, 70.0);
    state.set_monitoring_data_mb(v, 10.0);
  }
  ManagerConfig config;
  config.update_interval_ms = 1000;
  config.placement_period_ms = 5000;
  config.keepalive_timeout_ms = 4000;
  config.keepalive_check_period_ms = 1000;
  DustManager manager(sim, transport, Nmdb(std::move(state), Thresholds{}),
                      config);
  std::vector<std::unique_ptr<DustClient>> clients;
  for (graph::NodeId v = 0; v < 5; ++v) {
    clients.push_back(std::make_unique<DustClient>(
        sim, transport, v, ClientConfig{.keepalive_interval_ms = 1000},
        util::Rng(100 + v)));
    clients.back()->set_reported_state(70.0, 10.0, 10);
    clients.back()->start();
  }
  manager.start();

  clients[0]->set_reported_state(90.0, 10.0, 10);  // busy
  clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate (nearest)
  clients[2]->set_reported_state(40.0, 5.0, 10);   // replica candidate
  sim.run_until(10000);
  ASSERT_GE(manager.active_offload_count(), 1u);
  const graph::NodeId first_dest = manager.active_offloads()[0].destination;

  // Offloaded monitoring data flows destination-ward at kLow.
  clients[0]->publish_snapshot(telemetry::DeviceSnapshot{});

  // Kill the destination -> keepalive loss -> REP substitution.
  clients[first_dest]->set_failed(true);
  sim.run_until(30000);
  EXPECT_GE(manager.keepalive_failures(), 1u);

  // Load drops far below Cmax -> Release.
  clients[0]->set_reported_state(30.0, 10.0, 0);
  sim.run_until(45000);
  EXPECT_GE(manager.releases(), 1u);

  // The run must actually have exercised the whole §III-B vocabulary —
  // otherwise the audit above proved nothing about the missing kinds.
  for (const char* kind :
       {"offload_capable", "ack", "stat", "offload_request", "offload_ack",
        "agent_transfer", "telemetry_data", "keepalive", "rep", "release"})
    EXPECT_TRUE(transport.kinds_seen().contains(kind))
        << "flow never sent a " << kind << " message";
}

}  // namespace
}  // namespace dust::core
