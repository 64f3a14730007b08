#include "core/client.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "util/log.hpp"

namespace dust::core {

DustClient::DustClient(sim::Simulator& sim, sim::TransportBase& transport,
                       graph::NodeId node, ClientConfig config, util::Rng rng,
                       sim::MonitoredNode* device)
    : sim_(&sim),
      transport_(&transport),
      node_(node),
      config_(config),
      rng_(rng),
      device_(device),
      track_("client-" + std::to_string(node)) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  metrics_.tx_offload_capable =
      &registry.counter("dust_core_tx_offload_capable_total");
  metrics_.tx_stat = &registry.counter("dust_core_tx_stat_total");
  metrics_.tx_keepalive = &registry.counter("dust_core_tx_keepalive_total");
  metrics_.tx_offload_ack =
      &registry.counter("dust_core_tx_offload_ack_total");
  metrics_.tx_agent_transfer =
      &registry.counter("dust_core_tx_agent_transfer_total");
  metrics_.tx_telemetry_data =
      &registry.counter("dust_core_tx_telemetry_data_total");
  const std::string endpoint = client_endpoint(node);
  endpoint_token_ = transport_->register_endpoint(
      endpoint, [this](const sim::Envelope& envelope) { handle(envelope); });
  endpoint_id_ = transport_->resolve(endpoint);
  manager_id_ = transport_->resolve(config_.manager);
}

sim::EndpointId DustClient::peer_id(graph::NodeId node) {
  return transport_->resolve(client_endpoint(node));
}

DustClient::~DustClient() {
  // Token-scoped: if another client re-registered this node's endpoint
  // (e.g. a replacement instance), leave the new registration in place.
  transport_->unregister_endpoint(client_endpoint(node_), endpoint_token_);
}

void DustClient::start() {
  metrics_.tx_offload_capable->inc();
  transport_->send(endpoint_id_, manager_id_,
                   Message{OffloadCapableMsg{node_, config_.offload_capable,
                                             config_.platform_factor}},
                   sim::Priority::kNormal, "offload_capable");
}

void DustClient::rehome() {
  if (failed_) return;
  metrics_.tx_offload_capable->inc();
  transport_->send(endpoint_id_, manager_id_,
                   Message{OffloadCapableMsg{node_, config_.offload_capable,
                                             config_.platform_factor}},
                   sim::Priority::kNormal, "offload_capable");
  if (acknowledged_) send_stat();
}

void DustClient::set_reported_state(double utilization_percent,
                                    double monitoring_data_mb,
                                    std::uint32_t agent_count) {
  reported_utilization_ = utilization_percent;
  reported_data_mb_ = monitoring_data_mb;
  reported_agents_ = agent_count;
}

void DustClient::set_telemetry_degradation(double keep_fraction) {
  telemetry_keep_fraction_ = std::clamp(keep_fraction, 0.0, 1.0);
}

void DustClient::set_byzantine(const ByzantineBehavior& behavior) {
  byzantine_ = behavior;
  flap_task_.reset();
  if (byzantine_.flap_period_ms <= 0) return;
  // Fire exactly at each up-transition (offset flap_down_ms into every
  // window): the flapper re-announces Offload-capable, so a trust-blind
  // manager un-quarantines it and re-offloads — the thrash I3/Nmdb
  // staleness tests pin.
  const sim::TimeMs period = byzantine_.flap_period_ms;
  sim::TimeMs next_up =
      (sim_->now() / period) * period + byzantine_.flap_down_ms;
  if (next_up <= sim_->now()) next_up += period;
  flap_task_ = std::make_unique<sim::PeriodicTask>(
      *sim_, next_up, period, [this](sim::TimeMs) {
        if (failed_ || byzantine_.flap_period_ms <= 0) return;
        metrics_.tx_offload_capable->inc();
        transport_->send(
            endpoint_id_, manager_id_,
            Message{OffloadCapableMsg{node_, config_.offload_capable,
                                      config_.platform_factor}},
            sim::Priority::kNormal, "offload_capable");
      });
}

bool DustClient::flap_suppressed() const {
  if (byzantine_.flap_period_ms <= 0) return false;
  return (sim_->now() % byzantine_.flap_period_ms) < byzantine_.flap_down_ms;
}

void DustClient::send_stat() {
  if (failed_ || flap_suppressed()) return;
  StatMsg stat;
  stat.node = node_;
  if (device_ != nullptr) {
    stat.utilization_percent = device_->last_stats().device_cpu_percent;
    stat.monitoring_data_mb =
        static_cast<double>(device_->tsdb().storage_bytes()) * 8.0 / 1e6;
    stat.agent_count = static_cast<std::uint32_t>(device_->local_agent_count());
  } else {
    stat.utilization_percent = reported_utilization_;
    stat.monitoring_data_mb = reported_data_mb_;
    stat.agent_count = reported_agents_;
  }
  // Under data-plane degradation the monitoring volume the network actually
  // carries is already thinned; scale the advertised Cs contribution and
  // carry the raw fraction so the manager can tell the two apart.
  stat.monitoring_data_mb *= telemetry_keep_fraction_;
  stat.telemetry_keep_fraction = telemetry_keep_fraction_;
  // Capacity lying happens at the reporting edge: the device state is
  // honest, the wire copy is not.
  if (byzantine_.stat_utilization_bias != 0.0)
    stat.utilization_percent = std::clamp(
        stat.utilization_percent + byzantine_.stat_utilization_bias, 0.0,
        100.0);
  // Every STAT roots a new causal trace: whatever the solver does with this
  // report — and the whole offload chain that follows — hangs off it. Only
  // the ids are allocated here; the root span itself is materialized by the
  // manager for the rare STAT that actually parents a solve (most STATs
  // cause nothing, and this path runs once per node per update interval).
  stat.trace = obs::enabled() ? obs::new_trace() : obs::TraceContext{};
  metrics_.tx_stat->inc();
  transport_->send(endpoint_id_, manager_id_, Message{stat},
                   sim::Priority::kNormal, "stat", stat.trace.trace_id);
}

void DustClient::publish_snapshot(const telemetry::DeviceSnapshot& snapshot) {
  if (failed_) return;
  for (const OutboundOffload& outbound : outbound_) {
    metrics_.tx_telemetry_data->inc();
    Message message{TelemetryDataMsg{node_, snapshot}};
    const sim::Priority priority = message_priority(message);
    transport_->send(endpoint_id_, peer_id(outbound.destination),
                     std::move(message), priority, "telemetry_data");
  }
}

void DustClient::set_failed(bool failed) {
  failed_ = failed;
  if (failed_) {
    stat_task_.reset();
    keepalive_task_.reset();
    flap_task_.reset();
  }
}

std::size_t DustClient::hosted_agent_count() const noexcept {
  std::size_t total = 0;
  for (const auto& [owner, count] : hosted_) total += count;
  return total;
}

std::size_t DustClient::offloaded_agent_count() const noexcept {
  std::size_t total = 0;
  for (const OutboundOffload& outbound : outbound_)
    total += outbound.blueprints.size();
  return total;
}

std::vector<graph::NodeId> DustClient::hosting_destinations() const {
  std::vector<graph::NodeId> out;
  out.reserve(outbound_.size());
  for (const OutboundOffload& outbound : outbound_)
    out.push_back(outbound.destination);
  return out;
}

void DustClient::handle(const sim::Envelope& envelope) {
  if (failed_) return;
  const Message* message = envelope.payload.get_if<Message>();
  if (message == nullptr) {
    DUST_LOG_WARN << "client " << node_ << ": non-protocol payload";
    return;
  }
  std::visit(
      [this](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, AckMsg>) {
          on_ack(msg);
        } else if constexpr (std::is_same_v<T, OffloadRequestMsg>) {
          on_offload_request(msg);
        } else if constexpr (std::is_same_v<T, AgentTransferMsg>) {
          on_agent_transfer(msg);
        } else if constexpr (std::is_same_v<T, TelemetryDataMsg>) {
          on_telemetry(msg);
        } else if constexpr (std::is_same_v<T, RepMsg>) {
          on_rep(msg);
        } else if constexpr (std::is_same_v<T, ReleaseMsg>) {
          on_release(msg);
        } else {
          DUST_LOG_WARN << "client " << node_ << ": unexpected message";
        }
      },
      *message);
}

void DustClient::on_ack(const AckMsg& msg) {
  if (acknowledged_) return;
  acknowledged_ = true;
  stat_task_ = std::make_unique<sim::PeriodicTask>(
      *sim_, sim_->now(), msg.update_interval_ms,
      [this](sim::TimeMs) { send_stat(); });
}

void DustClient::on_offload_request(const OffloadRequestMsg& msg) {
  if (msg.busy != node_) return;  // destination copy handled on transfer
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  // Retransmission makes duplicate requests possible (same request_id, the
  // original ACK or request raced a drop). Re-ACK so the manager converges,
  // but don't shed the same agents twice. The re-ACK's span joins the same
  // trace as the retry, so the recovered chain stays causally connected.
  const bool duplicate =
      std::any_of(outbound_.begin(), outbound_.end(),
                  [&msg](const OutboundOffload& o) {
                    return o.destination == msg.destination;
                  });
  const obs::TraceContext ack_ctx = obs::record_instant(
      registry, "offload_ack", track_, msg.trace, sim_->now());
  metrics_.tx_offload_ack->inc();
  transport_->send(endpoint_id_, manager_id_,
                   Message{OffloadAckMsg{msg.request_id, node_, true, ack_ctx}},
                   sim::Priority::kNormal, "offload_ack", ack_ctx.trace_id);
  if (duplicate) return;
  // Move agents off the device (or synthesize blueprints when device-less).
  AgentTransferMsg transfer;
  transfer.request_id = msg.request_id;
  transfer.owner = node_;
  if (device_ != nullptr) {
    std::vector<telemetry::MonitorAgent> local = device_->remove_local_agents();
    const std::size_t moving =
        std::min<std::size_t>(msg.agents_to_move, local.size());
    for (std::size_t i = 0; i < moving; ++i)
      transfer.agents.push_back(local.back()), local.pop_back();
    // Re-install what stays local.
    for (telemetry::MonitorAgent& agent : local)
      device_->add_local_agent(std::move(agent));
    device_->set_offloaded_agent_count(offloaded_agent_count() +
                                       transfer.agents.size());
  } else {
    for (std::uint32_t i = 0; i < msg.agents_to_move; ++i)
      transfer.agents.emplace_back(
          "synthetic." + std::to_string(node_) + "." + std::to_string(i),
          telemetry::AgentCostModel{}, 1000);
  }
  OutboundOffload outbound;
  outbound.destination = msg.destination;
  outbound.blueprints = transfer.agents;  // copies for REP re-instantiation
  outbound_.push_back(std::move(outbound));
  transfer.trace = obs::record_instant(registry, "agent_transfer", track_,
                                       msg.trace, sim_->now());
  metrics_.tx_agent_transfer->inc();
  const std::uint64_t transfer_trace = transfer.trace.trace_id;
  transport_->send(endpoint_id_, peer_id(msg.destination),
                   Message{std::move(transfer)}, sim::Priority::kNormal,
                   "agent_transfer", transfer_trace);
}

void DustClient::on_agent_transfer(const AgentTransferMsg& msg) {
  if (device_ != nullptr) {
    for (const telemetry::MonitorAgent& agent : msg.agents)
      device_->add_remote_agent(client_endpoint(msg.owner), agent);
  }
  last_host_trace_ =
      obs::record_instant(obs::MetricRegistry::global(), "host_agents",
                          track_, msg.trace, sim_->now());
  hosted_.emplace_back(msg.owner, static_cast<std::uint32_t>(msg.agents.size()));
  ensure_keepalive_task();
}

void DustClient::on_telemetry(const TelemetryDataMsg& msg) {
  if (device_ == nullptr) return;
  device_->observe_remote(client_endpoint(msg.owner), msg.snapshot, rng_);
}

void DustClient::on_rep(const RepMsg& msg) {
  if (msg.busy != node_) return;
  ++reps_received_;
  // Drop the failed relationship and re-home the same agents to the replica.
  auto it = std::find_if(outbound_.begin(), outbound_.end(),
                         [&msg](const OutboundOffload& o) {
                           return o.destination == msg.failed;
                         });
  if (it == outbound_.end()) return;
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  const obs::TraceContext ack_ctx = obs::record_instant(
      registry, "offload_ack", track_, msg.trace, sim_->now());
  AgentTransferMsg transfer;
  transfer.request_id = msg.request_id;
  transfer.owner = node_;
  transfer.agents = it->blueprints;
  transfer.trace = obs::record_instant(registry, "agent_transfer", track_,
                                       msg.trace, sim_->now());
  it->destination = msg.replacement;
  metrics_.tx_offload_ack->inc();
  metrics_.tx_agent_transfer->inc();
  transport_->send(endpoint_id_, manager_id_,
                   Message{OffloadAckMsg{msg.request_id, node_, true, ack_ctx}},
                   sim::Priority::kNormal, "offload_ack", ack_ctx.trace_id);
  const std::uint64_t transfer_trace = transfer.trace.trace_id;
  transport_->send(endpoint_id_, peer_id(msg.replacement),
                   Message{std::move(transfer)}, sim::Priority::kNormal,
                   "agent_transfer", transfer_trace);
}

void DustClient::on_release(const ReleaseMsg& msg) {
  ++releases_received_;
  if (msg.busy == node_) {
    // Reclaim: reinstall our agents locally.
    auto it = std::find_if(outbound_.begin(), outbound_.end(),
                           [&msg](const OutboundOffload& o) {
                             return o.destination == msg.destination;
                           });
    if (it == outbound_.end()) return;
    if (device_ != nullptr) {
      for (const telemetry::MonitorAgent& blueprint : it->blueprints)
        device_->add_local_agent(blueprint);
    }
    outbound_.erase(it);
    if (device_ != nullptr)
      device_->set_offloaded_agent_count(offloaded_agent_count());
  } else if (msg.destination == node_) {
    // Stop hosting this owner's agents.
    std::erase_if(hosted_, [&msg](const auto& entry) {
      return entry.first == msg.busy;
    });
    if (device_ != nullptr)
      device_->remove_remote_agents(client_endpoint(msg.busy));
    maybe_stop_keepalive_task();
  }
}

void DustClient::ensure_keepalive_task() {
  if (keepalive_task_ && keepalive_task_->active()) return;
  keepalive_task_ = std::make_unique<sim::PeriodicTask>(
      *sim_, sim_->now(), config_.keepalive_interval_ms,
      [this](sim::TimeMs) {
        if (failed_ || hosted_.empty() || flap_suppressed()) return;
        ++keepalives_sent_;
        metrics_.tx_keepalive->inc();
        transport_->send(endpoint_id_, manager_id_,
                         Message{KeepaliveMsg{node_, keepalive_seq_++}},
                         sim::Priority::kNormal, "keepalive");
      });
}

void DustClient::maybe_stop_keepalive_task() {
  if (hosted_.empty()) keepalive_task_.reset();
}

}  // namespace dust::core
