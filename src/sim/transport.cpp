#include "sim/transport.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace dust::sim {

namespace {

// Parse the node id out of "dust-client-<n>" endpoint names; the manager
// ("dust-manager") and anything unrecognised map to kNoNode.
std::int32_t endpoint_node(const std::string& endpoint) {
  constexpr std::string_view kPrefix = "dust-client-";
  if (endpoint.compare(0, kPrefix.size(), kPrefix) != 0)
    return obs::FlightEvent::kNoNode;
  std::int32_t node = 0;
  bool any = false;
  for (std::size_t i = kPrefix.size(); i < endpoint.size(); ++i) {
    const char ch = endpoint[i];
    if (ch < '0' || ch > '9') return obs::FlightEvent::kNoNode;
    if (node > (std::numeric_limits<std::int32_t>::max() - 9) / 10)
      return obs::FlightEvent::kNoNode;
    node = node * 10 + (ch - '0');
    any = true;
  }
  return any ? node : obs::FlightEvent::kNoNode;
}

// Short flight-recorder label for an endpoint, computed once when the name
// is interned: the manager is "M", a client "c<n>", anything else its name.
std::string endpoint_label(const std::string& endpoint, std::int32_t node) {
  if (endpoint == "dust-manager") return "M";
  if (node != obs::FlightEvent::kNoNode) return "c" + std::to_string(node);
  return endpoint;
}

}  // namespace

Transport::Transport(Simulator& sim, util::Rng rng)
    : sim_(&sim), rng_(rng), clears_seen_(sim.clears()) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  metrics_.sent = &registry.counter("dust_sim_transport_sent_total");
  metrics_.sent_low = &registry.counter("dust_sim_transport_sent_low_total");
  metrics_.delivered = &registry.counter("dust_sim_transport_delivered_total");
  metrics_.dropped = &registry.counter("dust_sim_transport_dropped_total");
  metrics_.dropped_congestion =
      &registry.counter("dust_sim_transport_dropped_congestion_total");
  metrics_.dropped_loss =
      &registry.counter("dust_sim_transport_dropped_loss_total");
  metrics_.dropped_partition =
      &registry.counter("dust_sim_transport_dropped_partition_total");
  metrics_.dropped_no_endpoint =
      &registry.counter("dust_sim_transport_dropped_no_endpoint_total");
  metrics_.delivery_latency_ms =
      &registry.histogram("dust_sim_transport_delivery_latency_ms");
}

void Transport::set_loss_probability(double p) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("Transport: loss probability out of [0,1]");
  loss_probability_ = p;
}

void Transport::set_partitioned(const std::string& endpoint, bool partitioned) {
  endpoints_[resolve(endpoint)].partitioned = partitioned;
}

EndpointId Transport::resolve(const std::string& name) {
  const auto [it, inserted] =
      ids_.try_emplace(name, static_cast<EndpointId>(endpoints_.size()));
  if (inserted) {
    Endpoint& endpoint = endpoints_.emplace_back();
    endpoint.name = &it->first;
    const std::int32_t node = endpoint_node(name);
    endpoint.label = obs::intern_hop_label(endpoint_label(name, node), node);
  }
  return it->second;
}

Transport::Endpoint* Transport::find(const std::string& name) {
  const auto it = ids_.find(name);
  return it == ids_.end() ? nullptr : &endpoints_[it->second];
}

std::uint64_t Transport::register_endpoint(const std::string& name,
                                           Handler handler) {
  if (!handler) throw std::invalid_argument("Transport: null handler");
  Endpoint& endpoint = endpoints_[resolve(name)];
  endpoint.handler = std::move(handler);
  endpoint.token = next_token_++;
  return endpoint.token;
}

void Transport::unregister_endpoint(const std::string& name) {
  if (Endpoint* endpoint = find(name)) endpoint->handler = nullptr;
}

void Transport::unregister_endpoint(const std::string& name,
                                    std::uint64_t token) {
  Endpoint* endpoint = find(name);
  if (endpoint != nullptr && endpoint->handler && endpoint->token == token)
    endpoint->handler = nullptr;
}

bool Transport::has_endpoint(const std::string& name) const {
  const auto it = ids_.find(name);
  return it != ids_.end() && endpoints_[it->second].handler != nullptr;
}

void Transport::drop(obs::Counter* cause_counter, obs::DropCause cause,
                     std::string_view kind, EndpointId from, EndpointId to,
                     std::uint64_t trace_id) {
  ++dropped_;
  metrics_.dropped->inc();
  cause_counter->inc();
  hop(obs::FlightEventKind::kMessageDrop, from, to, kind, trace_id, cause);
}

void Transport::send(EndpointId from, EndpointId to, Payload payload,
                     Priority priority, std::string_view kind,
                     std::uint64_t trace_id) {
  if (from >= endpoints_.size() || to >= endpoints_.size())
    throw std::out_of_range("Transport: unresolved endpoint id");
  ++sent_;
  metrics_.sent->inc();
  if (priority == Priority::kLow) metrics_.sent_low->inc();
  hop(obs::FlightEventKind::kMessageTx, from, to, kind, trace_id);
  // Precedence: loss -> partition -> congestion. The loss draw must come
  // first so partition/congestion toggles never change how many RNG draws a
  // message sequence consumes; otherwise a fault schedule flipping
  // congestion would shift every subsequent loss decision and runs would
  // not replay under a fixed seed (see header comment on send()).
  if (loss_probability_ > 0 && rng_.bernoulli(loss_probability_)) {
    drop(metrics_.dropped_loss, obs::DropCause::kLoss, kind, from, to,
         trace_id);
    return;
  }
  if (endpoints_[to].partitioned) {
    drop(metrics_.dropped_partition, obs::DropCause::kPartition, kind, from,
         to, trace_id);
    return;
  }
  if (congested_ && priority == Priority::kLow) {
    // QoS: monitoring data is discardable under congestion.
    drop(metrics_.dropped_congestion, obs::DropCause::kCongestion, kind,
         from, to, trace_id);
    return;
  }
  // Slots whose delivery a clear() dropped can only be found here, before
  // this send takes one: every slot still queued was sent before the clear.
  if (sim_->clears() != clears_seen_) reclaim_cleared();
  std::uint32_t slot = free_slot_;
  if (slot != kNoSlot) {
    free_slot_ = in_flight_[slot].next_free;
  } else {
    if (in_flight_.size() >= kNoSlot)
      throw std::length_error("Transport: too many messages in flight");
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  }
  InFlight& message = in_flight_[slot];
  message.payload = std::move(payload);
  message.kind.assign(kind);
  message.trace_id = trace_id;
  message.priority = priority;
  message.from = from;
  message.to = to;
  message.sent_at = sim_->now();
  // (this, slot) fits std::function's inline buffer: no allocation.
  try {
    sim_->schedule(default_latency_ms_, [this, slot] { deliver(slot); });
  } catch (...) {
    free_slot(slot);  // e.g. a negative latency: nothing will deliver it
    throw;
  }
  message.queued = true;
}

void Transport::free_slot(std::uint32_t slot) noexcept {
  InFlight& message = in_flight_[slot];
  message.payload.reset();
  message.next_free = free_slot_;
  free_slot_ = slot;
}

void Transport::reclaim_cleared() noexcept {
  clears_seen_ = sim_->clears();
  for (std::size_t slot = 0; slot < in_flight_.size(); ++slot) {
    InFlight& message = in_flight_[slot];
    if (!message.queued) continue;
    message.queued = false;
    free_slot(static_cast<std::uint32_t>(slot));
  }
}

void Transport::deliver(std::uint32_t slot) {
  // The slot goes back to the free list when delivery ends, also if the
  // handler throws. Until then it is busy, so sends from inside the handler
  // take other slots; the deque never moves this one while it grows. It is
  // no longer queued, so a clear() from inside the handler leaves it here.
  struct Release {
    Transport* transport;
    std::uint32_t slot;
    ~Release() { transport->free_slot(slot); }
  } release{this, slot};
  InFlight& message = in_flight_[slot];
  message.queued = false;
  // Looked up now, not at send: the endpoint may have unregistered while
  // the message was in flight (e.g. failed node), or re-registered.
  const Endpoint& endpoint = endpoints_[message.to];
  if (!endpoint.handler) {
    drop(metrics_.dropped_no_endpoint, obs::DropCause::kNoEndpoint,
         message.kind, message.from, message.to, message.trace_id);
    return;
  }
  ++delivered_;
  metrics_.delivered->inc();
  metrics_.delivery_latency_ms->observe(
      static_cast<double>(sim_->now() - message.sent_at));
  // No flight event for an ordinary delivery: every send is already
  // recorded as msg_tx and every failure as msg_drop, so delivery is the
  // implied default — recording it too would double the hot-path flight
  // volume for no extra diagnostic power.
  if (delivery_depth_ == delivering_.size()) delivering_.emplace_back();
  Envelope& envelope = delivering_[delivery_depth_];
  struct Nest {
    Transport* transport;
    Envelope& envelope;
    ~Nest() {
      envelope.payload.reset();
      --transport->delivery_depth_;
    }
  } nest{this, envelope};
  ++delivery_depth_;
  envelope.from = *endpoints_[message.from].name;
  envelope.to = *endpoint.name;
  envelope.payload = std::move(message.payload);
  envelope.priority = message.priority;
  envelope.kind.swap(message.kind);  // both keep a reusable buffer
  envelope.trace_id = message.trace_id;
  endpoint.handler(envelope);
}

void schedule_fault_script(Simulator& sim, Transport& transport,
                           const std::vector<FaultEvent>& script) {
  const TimeMs now = sim.now();
  for (const FaultEvent& event : script) {
    const TimeMs delay = event.at_ms > now ? event.at_ms - now : 0;
    sim.schedule(delay, [&transport, event] {
      switch (event.kind) {
        case FaultEvent::Kind::kLossProbability:
          transport.set_loss_probability(event.value);
          break;
        case FaultEvent::Kind::kPartition:
          transport.set_partitioned(event.endpoint, true);
          break;
        case FaultEvent::Kind::kHeal:
          transport.set_partitioned(event.endpoint, false);
          break;
        case FaultEvent::Kind::kCongestionOn:
          transport.set_congested(true);
          break;
        case FaultEvent::Kind::kCongestionOff:
          transport.set_congested(false);
          break;
      }
    });
  }
}

}  // namespace dust::sim
