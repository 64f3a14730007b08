// In-memory message transport with latency and loss injection.
//
// Stands in for the REST/gRPC channels between DUST-Clients and the
// DUST-Manager. Endpoints register a handler under a name; send() delivers a
// type-erased payload after the configured latency, unless the (seeded) loss
// process drops it. Protocol state machines in dust::core are exercised over
// this transport, including Keepalive loss -> replica substitution.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/payload.hpp"
#include "sim/priority.hpp"
#include "util/rng.hpp"

namespace dust::sim {

struct Envelope {
  std::string from;
  std::string to;
  Payload payload;
  Priority priority = Priority::kNormal;
  // Observability passengers (appended — aggregate initializers above keep
  // working). `kind` is a short message label ("stat", "offload_request");
  // `trace_id` ties the hop to a causal trace (obs/trace.hpp). Both feed the
  // flight recorder's msg_tx/msg_rx/msg_drop events.
  std::string kind;
  std::uint64_t trace_id = 0;
};

/// Dense id of an endpoint name interned by TransportBase::resolve(). Ids
/// belong to the transport that handed them out, are never reused, and stay
/// valid for its lifetime whether or not the name is registered.
using EndpointId = std::uint32_t;

/// The transport surface the protocol state machines (core::DustManager,
/// core::DustClient) program against: named endpoints with token-scoped
/// registration and fire-and-forget sends. Implementations decide what a
/// "send" physically is — the in-memory simulator Transport below delivers
/// through the event queue; wire::SocketTransport frames the payload with
/// wire::Codec and moves it over TCP. Everything QoS-relevant (priority) and
/// observability-relevant (kind, trace_id) crosses the interface so no
/// implementation can lose it.
class TransportBase {
 public:
  using Handler = std::function<void(const Envelope&)>;

  virtual ~TransportBase() = default;

  /// Register (or replace) the handler for `name`. Returns a registration
  /// token; unregistering with a stale token is a no-op, so a destroyed
  /// owner can never tear down a successor that re-registered the name.
  virtual std::uint64_t register_endpoint(const std::string& name,
                                          Handler handler) = 0;
  virtual void unregister_endpoint(const std::string& name,
                                   std::uint64_t token) = 0;
  [[nodiscard]] virtual bool has_endpoint(const std::string& name) const = 0;

  /// Intern `name` and return its id; the same name always resolves to the
  /// same id. Senders resolve their peers once and send by id, so the
  /// per-message path hashes no strings.
  virtual EndpointId resolve(const std::string& name) = 0;

  /// Queue delivery of `payload` from `from` to `to` (resolved ids). `kind`
  /// and `trace_id` are observability-only passengers; `priority` is the
  /// §III-C QoS class and MUST survive to the receiver's Envelope verbatim.
  virtual void send(EndpointId from, EndpointId to, Payload payload,
                    Priority priority = Priority::kNormal,
                    std::string_view kind = {},
                    std::uint64_t trace_id = 0) = 0;

  /// send() by name: resolves both ends, then sends by id.
  void send(const std::string& from, const std::string& to, Payload payload,
            Priority priority = Priority::kNormal, std::string_view kind = {},
            std::uint64_t trace_id = 0) {
    const EndpointId source = resolve(from);
    send(source, resolve(to), std::move(payload), priority, kind, trace_id);
  }
};

class Transport : public TransportBase {
 public:
  using Handler = TransportBase::Handler;

  Transport(Simulator& sim, util::Rng rng);

  void set_default_latency_ms(TimeMs latency) { default_latency_ms_ = latency; }
  /// Message loss probability in [0, 1] applied to every send.
  void set_loss_probability(double p);
  /// Per-destination partition: all traffic to `endpoint` is dropped.
  void set_partitioned(const std::string& endpoint, bool partitioned);

  /// Register (or replace) the handler for `name`. Returns a registration
  /// token; unregistering with a stale token is a no-op, so a destroyed
  /// owner can never tear down a successor that re-registered the name.
  std::uint64_t register_endpoint(const std::string& name,
                                  Handler handler) override;
  EndpointId resolve(const std::string& name) override;
  void unregister_endpoint(const std::string& name);
  void unregister_endpoint(const std::string& name,
                           std::uint64_t token) override;
  [[nodiscard]] bool has_endpoint(const std::string& name) const override;

  /// Congestion drops all kLow-priority traffic (QoS guarantee of §III-C).
  void set_congested(bool congested) noexcept { congested_ = congested; }
  [[nodiscard]] bool congested() const noexcept { return congested_; }

  /// Queue delivery of `payload` to `to` after the transport latency.
  /// Messages to unknown endpoints, lost messages, low-priority messages
  /// under congestion, and messages to partitioned endpoints are counted in
  /// dropped(). Throws std::out_of_range for an id this transport did not
  /// hand out.
  ///
  /// Drop precedence is fixed at loss -> partition -> congestion: the random
  /// loss draw happens first on every send regardless of partition or
  /// congestion state, so the RNG stream consumed by a run is a function of
  /// the message sequence alone. Toggling partitions or congestion mid-run
  /// (e.g. via a fault schedule) therefore never shifts later loss draws,
  /// and a fault schedule replays bit-identically under a fixed seed.
  /// `kind` and `trace_id` are observability-only passengers: they label the
  /// flight-recorder events for this hop and ride in the Envelope, but never
  /// influence delivery.
  void send(EndpointId from, EndpointId to, Payload payload,
            Priority priority = Priority::kNormal, std::string_view kind = {},
            std::uint64_t trace_id = 0) override;
  using TransportBase::send;

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Global-registry handles (dust_sim_transport_*), resolved once at
  /// construction so the send path stays lock-free. Drops are counted both
  /// in total and by cause so QoS behaviour under congestion is scrapable.
  struct Metrics {
    obs::Counter* sent = nullptr;
    obs::Counter* sent_low = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* dropped_congestion = nullptr;
    obs::Counter* dropped_loss = nullptr;
    obs::Counter* dropped_partition = nullptr;
    obs::Counter* dropped_no_endpoint = nullptr;
    obs::Histogram* delivery_latency_ms = nullptr;  ///< sim-time latency
  };

  /// One interned endpoint name. Ids are dense and never reused; the
  /// handler is looked up here at delivery, so a name re-registered while a
  /// message is in flight receives it.
  struct Endpoint {
    Handler handler;  ///< empty while unregistered
    std::uint64_t token = 0;
    const std::string* name = nullptr;  ///< its key in ids_ (nodes are stable)
    /// Flight-recorder identity: the short text hop details show ("M",
    /// "c3", or the name itself) with the client node id (or kNoNode).
    obs::HopLabel label = 0;
    bool partitioned = false;
  };
  /// A message between send() and delivery. Slots are recycled through a
  /// free list, so steady-state sends reuse the kind string's capacity.
  struct InFlight {
    Payload payload;
    std::string kind;
    std::uint64_t trace_id = 0;
    TimeMs sent_at = 0;
    EndpointId from = 0;
    EndpointId to = 0;
    std::uint32_t next_free = 0;
    Priority priority = Priority::kNormal;
    /// Its delivery event is in the simulator's queue (set once scheduled,
    /// cleared when delivery starts): a Simulator::clear() orphaned it.
    bool queued = false;
  };

  [[nodiscard]] Endpoint* find(const std::string& name);
  void deliver(std::uint32_t slot);
  /// Release the payload and put `slot` back on the free list.
  void free_slot(std::uint32_t slot) noexcept;
  /// Free every slot whose delivery event a Simulator::clear() dropped.
  void reclaim_cleared() noexcept;
  /// The shared obs hop path, with this transport's labels and clock.
  void hop(obs::FlightEventKind event, EndpointId from, EndpointId to,
           std::string_view kind, std::uint64_t trace_id,
           obs::DropCause cause = obs::DropCause::kNone) const noexcept {
    obs::FlightRecorder::global().record_hop(
        event, sim_->now(), trace_id, endpoints_[from].label,
        endpoints_[to].label, kind, cause);
  }
  /// Count a drop by `cause` (also the flight-recorder prefix).
  void drop(obs::Counter* cause_counter, obs::DropCause cause,
            std::string_view kind, EndpointId from, EndpointId to,
            std::uint64_t trace_id);

  Simulator* sim_;
  util::Rng rng_;
  Metrics metrics_;
  TimeMs default_latency_ms_ = 1;
  double loss_probability_ = 0.0;
  bool congested_ = false;
  std::unordered_map<std::string, std::uint32_t> ids_;
  // Deques: a handler may register endpoints or send while its own
  // Endpoint and InFlight are in use, and growth must not move them.
  std::deque<Endpoint> endpoints_;
  std::deque<InFlight> in_flight_;
  /// The Envelope a handler sees, one per delivery nesting level (a handler
  /// may run the simulator, which delivers again). Only messages being
  /// delivered need names, so slots carry ids and these carry the strings,
  /// reusing their capacity.
  std::deque<Envelope> delivering_;
  std::size_t delivery_depth_ = 0;
  std::uint32_t free_slot_ = kNoSlot;
  std::uint64_t clears_seen_ = 0;  ///< sim_->clears() at the last send
  std::uint64_t next_token_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

/// One entry of a scripted fault schedule. Applied to a Transport at
/// `at_ms` sim-time by schedule_fault_script(); the dust::check scenario
/// generator emits these so a scenario's fault injection is replayable.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLossProbability,  ///< set_loss_probability(value)
    kPartition,        ///< set_partitioned(endpoint, true)
    kHeal,             ///< set_partitioned(endpoint, false)
    kCongestionOn,     ///< set_congested(true)
    kCongestionOff,    ///< set_congested(false)
  };
  TimeMs at_ms = 0;
  Kind kind = Kind::kLossProbability;
  double value = 0.0;     ///< kLossProbability only
  std::string endpoint;   ///< kPartition / kHeal only
};

/// Schedule every event of `script` against `transport` at its `at_ms`.
/// Events may be in any order; the transport must outlive the simulator run.
void schedule_fault_script(Simulator& sim, Transport& transport,
                           const std::vector<FaultEvent>& script);

}  // namespace dust::sim
