// wire::SocketTransport — the DUST control plane over real sockets
// (DESIGN.md §11).
//
// A sim::TransportBase implementation that frames every message with
// wire::Codec and moves it over non-blocking TCP, driven by a poll(2) event
// loop the owner pumps (`poll_once`). Two roles:
//
//   kHub  — listens; accepts any number of leaf connections; routes frames
//           between leaves by endpoint name (a leaf only ever knows the
//           hub's address — matching the paper's star control plane where
//           clients know only the DUST-Manager).
//   kLeaf — connects to the hub, announces its local endpoint names, and
//           reconnects with capped exponential backoff when the hub drops.
//
// Every local delivery goes through one endpoint table: a frame is handed to
// the handler registered under the name in `frame.to`, whatever its type.
// Protocol endpoints (register_endpoint) see a sim::Envelope; data-plane,
// observability and federation endpoints (register_frame_endpoint) see the
// decoded Frame. Any number of collectors, responders, scrapers and shard
// managers can share one transport, each under its own name.
//
// QoS (§III-C): each connection keeps two outbound queues; kNormal control
// traffic always drains before kLow monitoring data, and when the queue cap
// is hit, kLow is shed first. Partial reads reassemble through
// wire::FrameBuffer; partial writes resume mid-frame on the next poll.
//
// Single-threaded by design, like the rest of the runtime: all calls —
// send(), register_endpoint(), poll_once() — must come from the owning
// thread. Handlers run inside poll_once, in arrival order across all frame
// types, and may send() reentrantly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/transport.hpp"
#include "wire/codec.hpp"

namespace dust::wire {

struct SocketTransportConfig {
  enum class Role : std::uint8_t { kHub, kLeaf };
  Role role = Role::kHub;
  /// kHub: bind address (port 0 = ephemeral, read back via listen_port()).
  /// kLeaf: hub address to connect to.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Leaf reconnect backoff: first retry after `reconnect_initial_ms`,
  /// doubling per failure up to `reconnect_max_ms`.
  std::int64_t reconnect_initial_ms = 50;
  std::int64_t reconnect_max_ms = 2000;
  /// Per-connection outbound cap, in frames. At the cap, kLow frames are
  /// shed (newest first) to make room for kNormal; kNormal overflow drops
  /// the new frame. Keeps a dead peer from ballooning memory.
  std::size_t max_queued_frames = 4096;
  /// Clock stamped onto flight-recorder events for wire hops. Defaults to
  /// wall milliseconds since transport construction; daemons that advance a
  /// Simulator against wall time pass `[&sim] { return sim.now(); }` so wire
  /// events interleave correctly with protocol events.
  std::function<sim::TimeMs()> now;
};

/// Outbound-queue telemetry for one peer connection — the data plane's
/// backpressure signal (DESIGN.md §12). `fill()` is the fraction of the
/// frame cap currently queued; shed_* count kLow frames discarded at the
/// cap since the connection was made.
struct QueueState {
  std::size_t queued_frames = 0;
  std::size_t queued_bytes = 0;
  std::size_t capacity_frames = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t shed_bytes = 0;
  std::uint64_t backpressure_events = 0;
  [[nodiscard]] double fill() const noexcept {
    return capacity_frames == 0
               ? 0.0
               : static_cast<double>(queued_frames) /
                     static_cast<double>(capacity_frames);
  }
};

class SocketTransport final : public sim::TransportBase {
 public:
  using FrameHandler = std::function<void(Frame&&)>;

  /// Hub: binds and listens immediately (throws std::runtime_error on
  /// failure). Leaf: the first connect attempt happens on the next
  /// poll_once().
  explicit SocketTransport(SocketTransportConfig config);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // --- sim::TransportBase ---------------------------------------------------
  /// Protocol endpoint: frames carrying a core::Message reach `handler` as
  /// a sim::Envelope; any other frame type addressed here is dropped
  /// (no_endpoint). Wraps register_frame_endpoint.
  std::uint64_t register_endpoint(const std::string& name,
                                  Handler handler) override;
  void unregister_endpoint(const std::string& name,
                           std::uint64_t token) override;
  [[nodiscard]] bool has_endpoint(const std::string& name) const override;
  /// Interns into this transport's own name table, which also carries each
  /// name's flight-recorder hop label.
  sim::EndpointId resolve(const std::string& name) override;
  /// Local destinations dispatch on the next poll_once without a codec
  /// round trip; remote destinations are framed and queued on the owning
  /// connection (leaf: the hub link, queued across reconnects). Payload
  /// must hold a core::Message. Throws std::out_of_range for an id this
  /// transport did not hand out.
  void send(sim::EndpointId from, sim::EndpointId to, sim::Payload payload,
            sim::Priority priority = sim::Priority::kNormal,
            std::string_view kind = {}, std::uint64_t trace_id = 0) override;
  using sim::TransportBase::send;

  /// Register (or replace) the handler for every frame addressed to `name`:
  /// data-plane blocks, obs scrapes and snapshots, federation frames, and
  /// protocol messages alike. Same token and unregister_endpoint rules as
  /// register_endpoint; a leaf announces the name to its hub.
  std::uint64_t register_frame_endpoint(const std::string& name,
                                        FrameHandler handler);

  // --- event loop -----------------------------------------------------------
  /// Pump the loop once: poll sockets up to `timeout_ms` (0 = non-blocking),
  /// accept/connect, read + decode + dispatch, flush queues, run reconnect
  /// backoff. Returns the number of frames handed to local endpoint
  /// handlers.
  std::size_t poll_once(int timeout_ms);

  [[nodiscard]] std::uint16_t listen_port() const noexcept {
    return listen_port_;
  }
  [[nodiscard]] bool connected() const noexcept;  ///< leaf: link established
  [[nodiscard]] std::size_t peer_count() const noexcept;

  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_;
  }
  [[nodiscard]] std::uint64_t frames_received() const noexcept {
    return frames_received_;
  }
  [[nodiscard]] std::uint64_t frames_forwarded() const noexcept {
    return frames_forwarded_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }
  [[nodiscard]] std::uint64_t decode_errors() const noexcept {
    return decode_errors_;
  }

  // --- data plane -----------------------------------------------------------
  /// Queue a gather-encoded data frame toward `to`. The segments point into
  /// `owner`-kept storage (sealed TSDB blocks); the transport holds `owner`
  /// alive until the frame has fully left the socket, and the block bytes
  /// are never copied into a codec buffer. Returns false when the frame was
  /// shed (queue at cap) or unroutable. Local destinations are decoded and
  /// delivered to the endpoint's handler on the next poll_once().
  bool send_data_frame(const std::string& from, const std::string& to,
                       GatherFrame frame, sim::Priority priority,
                       const std::string& kind,
                       std::shared_ptr<const void> owner);

  /// Queue an already-built frame (obs scrape/snapshot, federation) toward
  /// `frame.to`. Encoded through the codec and routed exactly like
  /// send_data_frame(); local destinations take the decode round trip too,
  /// so a handler sees the same decoder-validated frame whether its peer
  /// lives in this process or another. Returns false when shed or
  /// unroutable.
  bool send_frame(const Frame& frame);

  /// Hub only: last-resort route for a received frame whose destination is
  /// neither a local endpoint nor announced by any connected leaf. A
  /// federated shard daemon installs this to forward cross-domain client
  /// traffic (AgentTransfer, TelemetryData) over its manager-to-manager
  /// links (DESIGN.md §16) — without it a busy client's transfer to a
  /// destination homed on another shard's hub would drop as unroutable.
  /// Return true when the frame was taken; false falls through to the
  /// normal no_endpoint drop.
  void set_gateway(std::function<bool(const Frame&)> gateway) {
    gateway_ = std::move(gateway);
  }

  /// Leaf only: invoked from inside poll_once() every time the hub link is
  /// RE-established (never on the first connect). The listener runs after
  /// the kAnnounce is queued but before any frame queued during the outage:
  /// anything it send()s — a client's fresh STAT, a re-home handshake —
  /// goes out ahead of the stale backlog, so a restarted manager solves
  /// from current load instead of replaying pre-outage ordering.
  void set_reconnect_listener(std::function<void()> listener) {
    reconnect_listener_ = std::move(listener);
  }

  /// Names of remote endpoints (hub: announced by any leaf) starting with
  /// `prefix`. The scraper's discovery primitive: responders register
  /// "dust-obs-<node>" endpoints and the manager enumerates them here.
  [[nodiscard]] std::vector<std::string> remote_endpoint_names(
      const std::string& prefix) const;

  /// Outbound-queue state of the connection that would carry traffic to
  /// `endpoint` (leaf: always the hub link). Empty default when unroutable.
  [[nodiscard]] QueueState queue_state(const std::string& endpoint) const;

  /// The streamer's backpressure probe: true when the queue toward
  /// `endpoint` is at or past `fill_threshold` of the frame cap. A true
  /// result is counted (per peer and in dust_wire_backpressure_events_total)
  /// so operators can see pushback land before shedding would start.
  bool poll_backpressure(const std::string& endpoint, double fill_threshold);

 private:
  /// One queued wire frame: contiguous head plus optional borrowed payload
  /// segments (gather frames). `keepalive` pins the segment storage until
  /// the bytes are on the socket.
  struct TxFrame {
    std::vector<std::uint8_t> head;
    std::vector<PayloadRef> segments;
    std::shared_ptr<const void> keepalive;
    [[nodiscard]] std::size_t size() const noexcept {
      std::size_t total = head.size();
      for (const PayloadRef& segment : segments) total += segment.size;
      return total;
    }
  };

  struct Peer {
    int fd = -1;
    bool connecting = false;  ///< leaf: non-blocking connect in flight
    FrameBuffer rx;
    /// Encoded frames awaiting the socket, split by QoS class.
    std::deque<TxFrame> tx_normal;
    std::deque<TxFrame> tx_low;
    std::size_t queued_bytes = 0;  ///< sum of tx_normal + tx_low sizes
    /// Frame currently being written (may be partially sent). Empty head
    /// means none.
    TxFrame inflight;
    std::size_t inflight_offset = 0;
    /// Endpoint names announced over this connection (hub side).
    std::vector<std::string> endpoints;
    /// Per-peer shedding/backpressure telemetry (ISSUE 6 satellite).
    std::uint64_t shed_frames = 0;
    std::uint64_t shed_bytes = 0;
    std::uint64_t backpressure_events = 0;
  };

  /// Global-registry handles (dust_wire_*), resolved once at construction.
  struct Metrics {
    obs::Counter* tx_frames = nullptr;
    obs::Counter* rx_frames = nullptr;
    obs::Counter* tx_bytes = nullptr;
    obs::Counter* rx_bytes = nullptr;
    obs::Counter* forwarded = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* dropped_no_endpoint = nullptr;
    obs::Counter* dropped_queue_full = nullptr;
    obs::Counter* shed_bytes = nullptr;
    obs::Counter* backpressure_events = nullptr;
    obs::Counter* decode_errors = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* connects = nullptr;
    obs::Histogram* encode_us = nullptr;  ///< wall-clock codec latency
    obs::Histogram* decode_us = nullptr;
  };

  [[nodiscard]] sim::TimeMs now() const;
  void start_listening();
  void start_connect();
  bool finish_connect();  ///< leaf: resolve a pending non-blocking connect
  void on_link_established();
  void on_link_lost();
  bool enqueue(Peer& peer, TxFrame frame, sim::Priority priority,
               const std::string& kind, const std::string& from,
               const std::string& to, std::uint64_t trace_id);
  bool flush(Peer& peer);  ///< false when the connection broke
  bool read_from(Peer& peer);  ///< false when the connection broke
  bool handle_frame(Peer& peer, DecodeResult decoded);
  /// Shared tail of send_frame/send_data_frame: a local destination decodes
  /// `tx` into the inbox, a remote one queues it on the owning connection,
  /// an unroutable one drops (no_endpoint). False when dropped or shed.
  bool transmit(TxFrame tx, sim::Priority priority, const std::string& kind,
                const std::string& from, const std::string& to,
                std::uint64_t trace_id);
  void count_tx(const std::string& kind, const std::string& from,
                const std::string& to, std::uint64_t trace_id);
  /// `name`'s hop label, interned on first sight up to kMaxHopNames names.
  obs::HopLabel hop_label(const std::string& name);
  /// The shared obs hop path; hop details show full endpoint names.
  void hop(obs::FlightEventKind event, const std::string& kind,
           const std::string& from, const std::string& to,
           std::uint64_t trace_id,
           obs::DropCause cause = obs::DropCause::kNone);
  void drop_no_endpoint(const std::string& kind, const std::string& from,
                        const std::string& to, std::uint64_t trace_id);
  /// Leaf: (re)send the kAnnounce frame naming every local endpoint.
  void announce_local_endpoints();
  [[nodiscard]] Peer* route_of(const std::string& endpoint);
  [[nodiscard]] const Peer* peer_toward(const std::string& endpoint) const;

  SocketTransportConfig config_;
  Metrics metrics_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  /// Hub: all accepted leaf connections, keyed by fd.
  std::map<int, Peer> peers_;
  /// Leaf: the (single) hub link. Persists across reconnects — fd flips to
  /// -1 while disconnected but the outbound queues keep accumulating, so
  /// control traffic sent during an outage is delivered after the backoff
  /// loop re-establishes the link.
  Peer hub_link_;
  std::int64_t backoff_ms_ = 0;
  std::int64_t next_connect_at_ms_ = 0;  ///< steady wall clock (ms)

  struct EndpointEntry {
    FrameHandler handler;
    std::uint64_t token = 0;
  };
  std::unordered_map<std::string, EndpointEntry> local_endpoints_;
  std::unordered_map<std::string, int> remote_endpoints_;  ///< name -> peer fd
  /// Names interned by resolve(): id -> name and hop label. A deque, so a
  /// name stays in place while the table grows.
  struct Name {
    std::string name;
    obs::HopLabel label = 0;
  };
  std::deque<Name> names_;
  std::unordered_map<std::string, sim::EndpointId> name_ids_;
  static constexpr std::size_t kMaxHopNames = std::size_t{1} << 16;
  std::uint64_t next_token_ = 1;

  /// Frames for local endpoints, received or sent in-process, in arrival
  /// order; dispatched in poll_once so handler reentrancy is never an issue.
  std::deque<Frame> inbox_;
  std::function<bool(const Frame&)> gateway_;
  /// Leaf re-home hook (see set_reconnect_listener). `ever_connected_`
  /// distinguishes the first connect (no listener call) from reconnects.
  std::function<void()> reconnect_listener_;
  bool ever_connected_ = false;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::int64_t epoch_ms_ = 0;  ///< steady-clock origin for the default now()
};

}  // namespace dust::wire
