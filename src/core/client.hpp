// DUST-Client: per-device agent of the protocol (paper §III-B).
//
// Joins via Offload-capable, streams periodic STATs once acknowledged,
// sheds monitoring agents on Offload-Request (transferring them to the
// destination client), hosts transferred agents and keepalives while doing
// so, re-homes its agents on REP, and reinstalls them on Release.
//
// A client can optionally wrap a sim::MonitoredNode (the testbed device
// model); without one, STAT contents are set explicitly — useful for
// protocol-only tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/messages.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/node.hpp"
#include "sim/transport.hpp"
#include "util/rng.hpp"

namespace dust::core {

struct ClientConfig {
  bool offload_capable = true;
  std::int64_t keepalive_interval_ms = 5000;
  /// Device persona sent in the Offload-capable handshake (see
  /// OffloadCapableMsg::platform_factor).
  double platform_factor = 1.0;
  /// Endpoint of the manager this client reports to. The default is the
  /// classic single-manager name; federated deployments point each client
  /// at its home shard's manager endpoint (DESIGN.md §16).
  std::string manager = manager_endpoint();
};

/// Scripted byzantine misbehavior (the dust::check attack axis, DESIGN.md
/// §14). Defaults are fully honest; dust::check installs one of these per
/// attacked node from the scenario's attack script.
struct ByzantineBehavior {
  /// Capacity lying: added to the utilization every STAT reports. Negative
  /// bias under-reports load (the node promises spare capacity it does not
  /// have); positive bias over-reports (hoards capacity). 0 = honest.
  double stat_utilization_bias = 0.0;
  /// Accept-then-drop: the node ACKs offloads and keepalives normally but
  /// silently discards the hosted agents' telemetry. Invisible on the
  /// control plane — only the manager's loss audits can catch it.
  bool blackhole = false;
  /// Keepalive flapping: when flap_period_ms > 0 the node goes silent
  /// (no keepalives, no STATs) for the first flap_down_ms of every
  /// flap_period_ms window, and re-announces Offload-capable on each
  /// up-transition — un-quarantining itself to a trust-blind manager.
  std::int64_t flap_period_ms = 0;
  std::int64_t flap_down_ms = 0;

  [[nodiscard]] bool any() const noexcept {
    return stat_utilization_bias != 0.0 || blackhole || flap_period_ms > 0;
  }
};

class DustClient {
 public:
  DustClient(sim::Simulator& sim, sim::TransportBase& transport,
             graph::NodeId node, ClientConfig config, util::Rng rng,
             sim::MonitoredNode* device = nullptr);
  ~DustClient();

  DustClient(const DustClient&) = delete;
  DustClient& operator=(const DustClient&) = delete;

  /// Send the Offload-capable handshake. STATs begin after the manager ACKs.
  void start();

  /// Re-home after a transport reconnect (the wire layer's reconnect
  /// listener): re-send the Offload-capable handshake so a restarted or
  /// failed-over manager learns this node exists, and — once this client is
  /// already acknowledged — push a fresh STAT immediately so the new
  /// manager plans from current load instead of waiting a full update
  /// interval. Idempotent against the original manager (the duplicate
  /// handshake just re-ACKs; the on_ack guard keeps the STAT task).
  void rehome();

  /// Without a device model: the values the next STATs will report.
  void set_reported_state(double utilization_percent, double monitoring_data_mb,
                          std::uint32_t agent_count);

  /// Push one STAT immediately (also happens on the ACKed interval).
  void send_stat();

  /// Data-plane degradation feedback (the BlockStreamer's ModeListener hook):
  /// records the surviving telemetry fraction so the next STAT advertises a
  /// shrunken Cs — monitoring_data_mb is scaled by it and the raw fraction
  /// rides StatMsg::telemetry_keep_fraction so the manager can re-place load
  /// off the congested destination instead of reading "load shrank".
  void set_telemetry_degradation(double keep_fraction);
  [[nodiscard]] double telemetry_keep_fraction() const noexcept {
    return telemetry_keep_fraction_;
  }

  /// Stream a snapshot of this node to every destination hosting its agents
  /// (QoS kLow). The testbed harness calls this after each device tick.
  void publish_snapshot(const telemetry::DeviceSnapshot& snapshot);

  /// Simulate a node crash: stops keepalives/STATs and ignores messages.
  void set_failed(bool failed);
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Install a scripted misbehavior (replaces any previous one). Flapping
  /// schedules the up-transition re-announce task immediately.
  void set_byzantine(const ByzantineBehavior& behavior);
  [[nodiscard]] const ByzantineBehavior& byzantine() const noexcept {
    return byzantine_;
  }
  /// True while a flapping node is inside the silent part of its window.
  [[nodiscard]] bool flap_suppressed() const;

  [[nodiscard]] graph::NodeId node() const noexcept { return node_; }
  [[nodiscard]] bool acknowledged() const noexcept { return acknowledged_; }
  /// Agents currently running here for remote owners.
  [[nodiscard]] std::size_t hosted_agent_count() const noexcept;
  /// This node's own agents currently running remotely.
  [[nodiscard]] std::size_t offloaded_agent_count() const noexcept;
  [[nodiscard]] std::vector<graph::NodeId> hosting_destinations() const;
  [[nodiscard]] std::uint64_t keepalives_sent() const noexcept {
    return keepalives_sent_;
  }
  /// Protocol observability for the dust::check harness: how many REP
  /// re-homing orders and Release teardowns this client processed.
  [[nodiscard]] std::uint64_t reps_received() const noexcept {
    return reps_received_;
  }
  [[nodiscard]] std::uint64_t releases_received() const noexcept {
    return releases_received_;
  }
  /// Context of the most recent "host_agents" span (the destination-side
  /// end of an offload chain). A BlockStreamer on this node parents its
  /// data-block spans here, so the fleet trace runs STAT → solve → offload
  /// → ACK → transfer → data blocks across processes. Invalid until the
  /// first transfer lands.
  [[nodiscard]] obs::TraceContext last_host_trace() const noexcept {
    return last_host_trace_;
  }

 private:
  void handle(const sim::Envelope& envelope);
  void on_ack(const AckMsg& msg);
  void on_offload_request(const OffloadRequestMsg& msg);
  void on_agent_transfer(const AgentTransferMsg& msg);
  void on_telemetry(const TelemetryDataMsg& msg);
  void on_rep(const RepMsg& msg);
  void on_release(const ReleaseMsg& msg);
  void ensure_keepalive_task();
  void maybe_stop_keepalive_task();

  /// Global-registry handles (dust_core_tx_*), shared across all clients so
  /// the scrape shows fleet-wide per-message-type counts.
  struct Metrics {
    obs::Counter* tx_offload_capable = nullptr;
    obs::Counter* tx_stat = nullptr;
    obs::Counter* tx_keepalive = nullptr;
    obs::Counter* tx_offload_ack = nullptr;
    obs::Counter* tx_agent_transfer = nullptr;
    obs::Counter* tx_telemetry_data = nullptr;
  };

  /// Transport id of another client's endpoint (offload peers).
  sim::EndpointId peer_id(graph::NodeId node);

  sim::Simulator* sim_;
  sim::TransportBase* transport_;
  graph::NodeId node_;
  ClientConfig config_;
  util::Rng rng_;
  sim::MonitoredNode* device_;
  Metrics metrics_;
  std::string track_;  ///< span track label ("client-<node>"), precomputed
  /// client_endpoint(node_) and config_.manager, resolved once on the
  /// transport.
  sim::EndpointId endpoint_id_ = 0;
  sim::EndpointId manager_id_ = 0;
  obs::TraceContext last_host_trace_{};  ///< see last_host_trace()

  bool acknowledged_ = false;
  bool failed_ = false;
  double reported_utilization_ = 0.0;
  double reported_data_mb_ = 0.0;
  std::uint32_t reported_agents_ = 0;
  double telemetry_keep_fraction_ = 1.0;

  /// Where this node's own agents went: destination -> blueprint copies
  /// (used to re-instantiate on REP / Release).
  struct OutboundOffload {
    graph::NodeId destination;
    std::vector<telemetry::MonitorAgent> blueprints;
  };
  std::vector<OutboundOffload> outbound_;
  /// Owners whose agents run here, with counts (hosted agents live in the
  /// device model).
  std::vector<std::pair<graph::NodeId, std::uint32_t>> hosted_;

  ByzantineBehavior byzantine_;
  std::unique_ptr<sim::PeriodicTask> stat_task_;
  std::unique_ptr<sim::PeriodicTask> keepalive_task_;
  std::unique_ptr<sim::PeriodicTask> flap_task_;
  std::uint64_t keepalive_seq_ = 0;
  std::uint64_t keepalives_sent_ = 0;
  std::uint64_t reps_received_ = 0;
  std::uint64_t releases_received_ = 0;
  std::uint64_t endpoint_token_ = 0;
};

}  // namespace dust::core
