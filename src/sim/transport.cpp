#include "sim/transport.hpp"

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/flight_recorder.hpp"

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

// Compact flight-recorder detail for a hop, built allocation-free into a
// stack buffer: "[<cause>: ]<kind> c3>M". This runs on every tx/rx/drop,
// so it must stay off the heap; truncation to the event's 31 detail chars
// is fine (the recorder truncates anyway).
struct DetailBuf {
  char data[obs::FlightEvent::kDetailCapacity];
  std::size_t len = 0;

  void append(std::string_view text) {
    const std::size_t room = sizeof(data) - 1 - len;
    const std::size_t n = text.size() < room ? text.size() : room;
    std::memcpy(data + len, text.data(), n);
    len += n;
  }
  [[nodiscard]] std::string_view view() const { return {data, len}; }
};

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
  endpoints_[intern(endpoint)].partitioned = partitioned;
}

std::uint32_t Transport::intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(endpoints_.size()));
  if (inserted) {
    Endpoint& endpoint = endpoints_.emplace_back();
    endpoint.node = endpoint_node(name);
    endpoint.label = endpoint_label(name, endpoint.node);
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
  Endpoint& endpoint = endpoints_[intern(name)];
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

void Transport::record_hop(obs::FlightEventKind event_kind,
                           const std::string& kind, std::uint32_t from,
                           std::uint32_t to, std::uint64_t trace_id,
                           const char* cause) const {
  if (!obs::enabled()) return;  // skip the detail work entirely
  const Endpoint& source = endpoints_[from];
  const Endpoint& target = endpoints_[to];
  DetailBuf detail;
  if (cause != nullptr) {
    detail.append(cause);
    detail.append(": ");
  }
  detail.append(kind.empty() ? std::string_view("?") : std::string_view(kind));
  detail.append(" ");
  detail.append(source.label);
  detail.append(">");
  detail.append(target.label);
  obs::FlightRecorder::global().record(event_kind, sim_->now(), trace_id,
                                       source.node, target.node, 0.0,
                                       detail.view());
}

void Transport::drop(obs::Counter* cause_counter, const char* cause,
                     const std::string& kind, std::uint32_t from,
                     std::uint32_t to, std::uint64_t trace_id) {
  ++dropped_;
  metrics_.dropped->inc();
  cause_counter->inc();
  record_hop(obs::FlightEventKind::kMessageDrop, kind, from, to, trace_id,
             cause);
}

void Transport::send(const std::string& from, const std::string& to,
                     std::any payload, Priority priority, std::string kind,
                     std::uint64_t trace_id) {
  ++sent_;
  metrics_.sent->inc();
  if (priority == Priority::kLow) metrics_.sent_low->inc();
  const std::uint32_t from_id = intern(from);
  const std::uint32_t to_id = intern(to);
  record_hop(obs::FlightEventKind::kMessageTx, kind, from_id, to_id, trace_id,
             nullptr);
  // Precedence: loss -> partition -> congestion. The loss draw must come
  // first so partition/congestion toggles never change how many RNG draws a
  // message sequence consumes; otherwise a fault schedule flipping
  // congestion would shift every subsequent loss decision and runs would
  // not replay under a fixed seed (see header comment on send()).
  if (loss_probability_ > 0 && rng_.bernoulli(loss_probability_)) {
    drop(metrics_.dropped_loss, "loss", kind, from_id, to_id, trace_id);
    return;
  }
  if (endpoints_[to_id].partitioned) {
    drop(metrics_.dropped_partition, "partition", kind, from_id, to_id,
         trace_id);
    return;
  }
  if (congested_ && priority == Priority::kLow) {
    // QoS: monitoring data is discardable under congestion.
    drop(metrics_.dropped_congestion, "congestion", kind, from_id, to_id,
         trace_id);
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
  // Assigning into a recycled slot reuses the strings' capacity.
  message.envelope.from = from;
  message.envelope.to = to;
  message.envelope.payload = std::move(payload);
  message.envelope.priority = priority;
  message.envelope.kind = std::move(kind);
  message.envelope.trace_id = trace_id;
  message.from = from_id;
  message.to = to_id;
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
  message.envelope.payload.reset();
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
    drop(metrics_.dropped_no_endpoint, "no_endpoint", message.envelope.kind,
         message.from, message.to, message.envelope.trace_id);
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
  endpoint.handler(message.envelope);
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
