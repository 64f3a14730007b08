#include "wire/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace dust::wire {

namespace {

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("wire: invalid IPv4 address '" + host + "'");
  return addr;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)), epoch_ms_(steady_ms()) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  metrics_.tx_frames = &registry.counter("dust_wire_tx_frames_total");
  metrics_.rx_frames = &registry.counter("dust_wire_rx_frames_total");
  metrics_.tx_bytes = &registry.counter("dust_wire_tx_bytes_total");
  metrics_.rx_bytes = &registry.counter("dust_wire_rx_bytes_total");
  metrics_.forwarded = &registry.counter("dust_wire_forwarded_frames_total");
  metrics_.dropped = &registry.counter("dust_wire_dropped_total");
  metrics_.dropped_no_endpoint =
      &registry.counter("dust_wire_dropped_no_endpoint_total");
  metrics_.dropped_queue_full =
      &registry.counter("dust_wire_dropped_queue_full_total");
  metrics_.shed_bytes = &registry.counter("dust_wire_shed_bytes_total");
  metrics_.backpressure_events =
      &registry.counter("dust_wire_backpressure_events_total");
  metrics_.decode_errors = &registry.counter("dust_wire_decode_errors_total");
  metrics_.reconnects = &registry.counter("dust_wire_reconnects_total");
  metrics_.connects = &registry.counter("dust_wire_connects_total");
  metrics_.encode_us = &registry.histogram("dust_wire_encode_us");
  metrics_.decode_us = &registry.histogram("dust_wire_decode_us");
  backoff_ms_ = config_.reconnect_initial_ms;
  if (config_.role == SocketTransportConfig::Role::kHub) start_listening();
}

SocketTransport::~SocketTransport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& [fd, peer] : peers_) ::close(fd);
  if (hub_link_.fd >= 0) ::close(hub_link_.fd);
}

sim::TimeMs SocketTransport::now() const {
  if (config_.now) return config_.now();
  return steady_ms() - epoch_ms_;
}

bool SocketTransport::connected() const noexcept {
  return hub_link_.fd >= 0 && !hub_link_.connecting;
}

std::size_t SocketTransport::peer_count() const noexcept {
  if (config_.role == SocketTransportConfig::Role::kHub) return peers_.size();
  return connected() ? 1 : 0;
}

void SocketTransport::start_listening() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("wire: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(config_.host, config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("wire: bind " + config_.host + ":" +
                             std::to_string(config_.port) + " failed: " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("wire: listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);
  DUST_LOG_INFO << "wire: hub listening on " << config_.host << ":"
                << listen_port_;
}

void SocketTransport::start_connect() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  set_nonblocking(fd);
  set_nodelay(fd);
  sockaddr_in addr = make_addr(config_.host, config_.port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc == 0) {
    hub_link_.fd = fd;
    hub_link_.connecting = false;
    on_link_established();
    return;
  }
  if (errno == EINPROGRESS) {
    hub_link_.fd = fd;
    hub_link_.connecting = true;
    return;
  }
  ::close(fd);
  on_link_lost();  // schedules the next backoff attempt
}

bool SocketTransport::finish_connect() {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(hub_link_.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
      err != 0) {
    ::close(hub_link_.fd);
    hub_link_.fd = -1;
    hub_link_.connecting = false;
    on_link_lost();
    return false;
  }
  hub_link_.connecting = false;
  on_link_established();
  return true;
}

void SocketTransport::on_link_established() {
  metrics_.connects->inc();
  backoff_ms_ = config_.reconnect_initial_ms;
  // A frame interrupted by the outage is retransmitted whole: the hub
  // discarded its partial-read buffer when the old connection died, so the
  // stream restarts clean at a frame boundary.
  if (!hub_link_.inflight.head.empty()) {
    hub_link_.queued_bytes += hub_link_.inflight.size();
    hub_link_.tx_normal.push_front(std::move(hub_link_.inflight));
  }
  hub_link_.inflight = TxFrame{};
  hub_link_.inflight_offset = 0;
  hub_link_.rx.clear();
  // Frames queued before or during the outage are stashed aside: they ride
  // BEHIND the announce and behind anything the reconnect listener sends.
  // The other end of the link may be a different process entirely (manager
  // failover restarted the hub), so fresh state — a client's re-home
  // handshake and current STAT — must reach it before the stale backlog,
  // or the new manager solves from pre-outage ordering.
  std::deque<TxFrame> stale_normal = std::move(hub_link_.tx_normal);
  std::deque<TxFrame> stale_low = std::move(hub_link_.tx_low);
  hub_link_.tx_normal.clear();
  hub_link_.tx_low.clear();
  // The announce must be the FIRST frame on a fresh link: protocol frames
  // queued before the connect (the join handshake, anything sent during an
  // outage) ride behind it, so by the time the hub dispatches them it can
  // already route the replies. Enqueued at the back instead, the hub may
  // read the handshake in an earlier batch than the announce and drop the
  // response as unroutable.
  std::vector<std::string> names;
  names.reserve(local_endpoints_.size());
  for (const auto& [name, entry] : local_endpoints_) names.push_back(name);
  TxFrame announce{encode_frame(announce_frame(std::move(names))), {}, {}};
  hub_link_.queued_bytes += announce.size();
  hub_link_.tx_normal.push_back(std::move(announce));
  if (ever_connected_ && reconnect_listener_) reconnect_listener_();
  ever_connected_ = true;
  for (TxFrame& frame : stale_normal)
    hub_link_.tx_normal.push_back(std::move(frame));
  for (TxFrame& frame : stale_low) hub_link_.tx_low.push_back(std::move(frame));
  DUST_LOG_INFO << "wire: leaf connected to " << config_.host << ":"
                << config_.port;
}

void SocketTransport::on_link_lost() {
  if (hub_link_.fd >= 0) {
    ::close(hub_link_.fd);
    hub_link_.fd = -1;
  }
  hub_link_.connecting = false;
  hub_link_.rx.clear();
  hub_link_.inflight_offset = 0;
  ++reconnects_;
  metrics_.reconnects->inc();
  next_connect_at_ms_ = steady_ms() + backoff_ms_;
  backoff_ms_ = std::min<std::int64_t>(backoff_ms_ * 2,
                                       config_.reconnect_max_ms);
}

void SocketTransport::announce_local_endpoints() {
  if (config_.role != SocketTransportConfig::Role::kLeaf || !connected())
    return;
  std::vector<std::string> names;
  names.reserve(local_endpoints_.size());
  for (const auto& [name, entry] : local_endpoints_) names.push_back(name);
  enqueue(hub_link_,
          TxFrame{encode_frame(announce_frame(std::move(names))), {}, {}},
          sim::Priority::kNormal, "announce", "", "", 0);
}

std::uint64_t SocketTransport::register_endpoint(const std::string& name,
                                                 Handler handler) {
  if (!handler) throw std::invalid_argument("wire: null handler");
  return register_frame_endpoint(
      name, [this, handler = std::move(handler)](Frame&& frame) {
        if (!is_message_frame(frame.type)) {
          drop_no_endpoint(frame.kind, frame.from, frame.to, frame.trace_id);
          return;
        }
        handler(sim::Envelope{std::move(frame.from), std::move(frame.to),
                              std::move(frame.message), frame.priority,
                              std::move(frame.kind), frame.trace_id});
      });
}

std::uint64_t SocketTransport::register_frame_endpoint(const std::string& name,
                                                       FrameHandler handler) {
  if (!handler) throw std::invalid_argument("wire: null handler");
  const std::uint64_t token = next_token_++;
  local_endpoints_[name] = EndpointEntry{std::move(handler), token};
  announce_local_endpoints();
  return token;
}

void SocketTransport::unregister_endpoint(const std::string& name,
                                          std::uint64_t token) {
  auto it = local_endpoints_.find(name);
  if (it != local_endpoints_.end() && it->second.token == token)
    local_endpoints_.erase(it);
}

bool SocketTransport::has_endpoint(const std::string& name) const {
  return local_endpoints_.count(name) > 0;
}

sim::EndpointId SocketTransport::resolve(const std::string& name) {
  const auto [it, inserted] = name_ids_.try_emplace(
      name, static_cast<sim::EndpointId>(names_.size()));
  if (inserted)
    names_.push_back(
        Name{name, obs::intern_hop_label(name, obs::FlightEvent::kNoNode)});
  return it->second;
}

obs::HopLabel SocketTransport::hop_label(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return names_[it->second].label;
  // Frames from peers name arbitrary endpoints, and interned names are
  // never freed: past the cap, new names share one "?" label.
  if (names_.size() >= kMaxHopNames) {
    static const obs::HopLabel unknown =
        obs::intern_hop_label("?", obs::FlightEvent::kNoNode);
    return unknown;
  }
  return names_[resolve(name)].label;
}

void SocketTransport::hop(obs::FlightEventKind event, const std::string& kind,
                          const std::string& from, const std::string& to,
                          std::uint64_t trace_id, obs::DropCause cause) {
  if (!obs::enabled()) return;  // skip the name lookups too
  const obs::HopLabel source = hop_label(from);
  obs::FlightRecorder::global().record_hop(event, now(), trace_id, source,
                                           hop_label(to), kind, cause);
}

void SocketTransport::drop_no_endpoint(const std::string& kind,
                                       const std::string& from,
                                       const std::string& to,
                                       std::uint64_t trace_id) {
  ++dropped_;
  metrics_.dropped->inc();
  metrics_.dropped_no_endpoint->inc();
  hop(obs::FlightEventKind::kMessageDrop, kind, from, to, trace_id,
      obs::DropCause::kNoEndpoint);
}

void SocketTransport::count_tx(const std::string& kind, const std::string& from,
                               const std::string& to, std::uint64_t trace_id) {
  ++frames_sent_;
  metrics_.tx_frames->inc();
  hop(obs::FlightEventKind::kMessageTx, kind, from, to, trace_id);
}

bool SocketTransport::enqueue(Peer& peer, TxFrame frame,
                              sim::Priority priority, const std::string& kind,
                              const std::string& from, const std::string& to,
                              std::uint64_t trace_id) {
  std::deque<TxFrame>& queue =
      priority == sim::Priority::kLow ? peer.tx_low : peer.tx_normal;
  if (peer.tx_normal.size() + peer.tx_low.size() >=
      config_.max_queued_frames) {
    // QoS shedding at the cap (§III-C): make room for control traffic by
    // discarding the newest monitoring frames; a kLow arrival at a full
    // queue is itself the cheapest thing to discard.
    if (priority == sim::Priority::kLow || peer.tx_low.empty()) {
      ++dropped_;
      ++peer.shed_frames;
      peer.shed_bytes += frame.size();
      metrics_.dropped->inc();
      metrics_.dropped_queue_full->inc();
      metrics_.shed_bytes->inc(frame.size());
      hop(obs::FlightEventKind::kMessageDrop, kind, from, to, trace_id,
          obs::DropCause::kQueueFull);
      return false;
    }
    TxFrame& victim = peer.tx_low.back();
    peer.queued_bytes -= victim.size();
    ++peer.shed_frames;
    peer.shed_bytes += victim.size();
    metrics_.shed_bytes->inc(victim.size());
    peer.tx_low.pop_back();
    ++dropped_;
    metrics_.dropped->inc();
    metrics_.dropped_queue_full->inc();
  }
  peer.queued_bytes += frame.size();
  queue.push_back(std::move(frame));
  return true;
}

void SocketTransport::send(sim::EndpointId from, sim::EndpointId to,
                           sim::Payload payload, sim::Priority priority,
                           std::string_view kind, std::uint64_t trace_id) {
  if (from >= names_.size() || to >= names_.size())
    throw std::out_of_range("wire: unresolved endpoint id");
  core::Message* message = payload.get_if<core::Message>();
  if (message == nullptr) {
    DUST_LOG_WARN << "wire: send() payload is not a core::Message, dropping";
    ++dropped_;
    metrics_.dropped->inc();
    return;
  }
  const std::string& to_name = names_[to].name;
  Frame frame = message_frame(names_[from].name, to_name, std::move(*message),
                              priority, std::string(kind), trace_id);
  if (local_endpoints_.count(to_name) > 0) {
    // Same-process endpoint: no codec round trip, but identical delivery
    // semantics (queued, dispatched from poll_once like a received frame).
    count_tx(frame.kind, frame.from, frame.to, trace_id);
    inbox_.push_back(std::move(frame));
    return;
  }
  send_frame(frame);
}

bool SocketTransport::send_data_frame(const std::string& from,
                                      const std::string& to,
                                      GatherFrame frame,
                                      sim::Priority priority,
                                      const std::string& kind,
                                      std::shared_ptr<const void> owner) {
  return transmit(TxFrame{std::move(frame.head), std::move(frame.segments),
                          std::move(owner)},
                  priority, kind, from, to, 0);
}

bool SocketTransport::send_frame(const Frame& frame) {
  const std::int64_t start_us = steady_us();
  std::vector<std::uint8_t> bytes = encode_frame(frame);
  metrics_.encode_us->observe(static_cast<double>(steady_us() - start_us));
  return transmit(TxFrame{std::move(bytes), {}, {}}, frame.priority,
                  frame.kind, frame.from, frame.to, frame.trace_id);
}

bool SocketTransport::transmit(TxFrame tx, sim::Priority priority,
                               const std::string& kind,
                               const std::string& from, const std::string& to,
                               std::uint64_t trace_id) {
  count_tx(kind, from, to, trace_id);
  if (local_endpoints_.count(to) > 0) {
    // Same-process destination (tests, single-transport demos, in-process
    // shards): reassemble the contiguous encoding and run it through the
    // decoder, so the handler sees exactly what a remote peer would.
    std::vector<std::uint8_t> bytes = std::move(tx.head);
    for (const PayloadRef& segment : tx.segments)
      bytes.insert(bytes.end(), segment.data, segment.data + segment.size);
    DecodeResult decoded = decode_frame(bytes.data(), bytes.size());
    if (decoded.status != DecodeStatus::kOk) {
      ++decode_errors_;
      metrics_.decode_errors->inc();
      return false;
    }
    inbox_.push_back(std::move(decoded.frame));
    return true;
  }
  Peer* peer = config_.role == SocketTransportConfig::Role::kLeaf
                   ? &hub_link_  // queues persist across reconnects
                   : route_of(to);
  if (peer == nullptr) {
    drop_no_endpoint(kind, from, to, trace_id);
    return false;
  }
  return enqueue(*peer, std::move(tx), priority, kind, from, to, trace_id);
}

std::vector<std::string> SocketTransport::remote_endpoint_names(
    const std::string& prefix) const {
  std::vector<std::string> names;
  for (const auto& [name, fd] : remote_endpoints_)
    if (name.compare(0, prefix.size(), prefix) == 0) names.push_back(name);
  return names;
}

const SocketTransport::Peer* SocketTransport::peer_toward(
    const std::string& endpoint) const {
  if (config_.role == SocketTransportConfig::Role::kLeaf) return &hub_link_;
  auto it = remote_endpoints_.find(endpoint);
  if (it == remote_endpoints_.end()) return nullptr;
  auto peer = peers_.find(it->second);
  return peer == peers_.end() ? nullptr : &peer->second;
}

QueueState SocketTransport::queue_state(const std::string& endpoint) const {
  QueueState state;
  state.capacity_frames = config_.max_queued_frames;
  const Peer* peer = peer_toward(endpoint);
  if (peer == nullptr) return state;
  state.queued_frames = peer->tx_normal.size() + peer->tx_low.size();
  state.queued_bytes = peer->queued_bytes;
  state.shed_frames = peer->shed_frames;
  state.shed_bytes = peer->shed_bytes;
  state.backpressure_events = peer->backpressure_events;
  return state;
}

bool SocketTransport::poll_backpressure(const std::string& endpoint,
                                        double fill_threshold) {
  const Peer* found = peer_toward(endpoint);
  if (found == nullptr) return false;
  Peer& peer = const_cast<Peer&>(*found);
  const double fill =
      config_.max_queued_frames == 0
          ? 0.0
          : static_cast<double>(peer.tx_normal.size() + peer.tx_low.size()) /
                static_cast<double>(config_.max_queued_frames);
  if (fill < fill_threshold) return false;
  ++peer.backpressure_events;
  metrics_.backpressure_events->inc();
  return true;
}

SocketTransport::Peer* SocketTransport::route_of(const std::string& endpoint) {
  auto it = remote_endpoints_.find(endpoint);
  if (it == remote_endpoints_.end()) return nullptr;
  auto peer = peers_.find(it->second);
  if (peer == peers_.end()) {
    remote_endpoints_.erase(it);
    return nullptr;
  }
  return &peer->second;
}

bool SocketTransport::handle_frame(Peer& peer, DecodeResult decoded) {
  Frame& frame = decoded.frame;
  if (frame.type == FrameType::kAnnounce) {
    for (std::string& name : frame.announce_endpoints) {
      remote_endpoints_[name] = peer.fd;
      peer.endpoints.push_back(std::move(name));
    }
    return true;
  }
  ++frames_received_;
  metrics_.rx_frames->inc();
  if (local_endpoints_.count(frame.to) > 0) {
    hop(obs::FlightEventKind::kMessageRx, frame.kind, frame.from, frame.to,
        frame.trace_id);
    inbox_.push_back(std::move(frame));
    return true;
  }
  if (config_.role == SocketTransportConfig::Role::kHub) {
    // Route leaf-to-leaf traffic (busy -> destination AgentTransfer /
    // TelemetryData / data-plane blocks): forward the encoded frame
    // verbatim.
    Peer* next_hop = route_of(frame.to);
    if (next_hop != nullptr && next_hop->fd != peer.fd) {
      ++frames_forwarded_;
      metrics_.forwarded->inc();
      enqueue(*next_hop,
              TxFrame{std::vector<std::uint8_t>(
                          decoded.raw, decoded.raw + decoded.raw_size),
                      {},
                      {}},
              frame.priority, frame.kind, frame.from, frame.to,
              frame.trace_id);
      return true;
    }
    // No local endpoint, no announced route: a gateway (a federated shard
    // daemon bridging domains, DESIGN.md §16) gets the last word before
    // the frame drops.
    if (gateway_ && gateway_(frame)) {
      ++frames_forwarded_;
      metrics_.forwarded->inc();
      return true;
    }
  }
  drop_no_endpoint(frame.kind, frame.from, frame.to, frame.trace_id);
  return true;
}

bool SocketTransport::read_from(Peer& peer) {
  char buffer[65536];
  while (true) {
    const ssize_t n = ::read(peer.fd, buffer, sizeof(buffer));
    if (n > 0) {
      metrics_.rx_bytes->inc(static_cast<std::uint64_t>(n));
      peer.rx.append(buffer, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) {
      DUST_LOG_DEBUG << "wire: peer closed connection (fd " << peer.fd << ")";
      return false;  // orderly shutdown
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    DUST_LOG_DEBUG << "wire: read failed (fd " << peer.fd << "): "
                   << std::strerror(errno);
    return false;
  }
  while (true) {
    const std::int64_t start_us = steady_us();
    DecodeResult decoded = peer.rx.next();
    if (decoded.status == DecodeStatus::kNeedMoreData) break;
    if (decoded.status != DecodeStatus::kOk) {
      // A TCP stream never legitimately desynchronises: any decode error
      // means the peer speaks another version or the stream is corrupt.
      // Count it, surface the typed cause, and drop the connection.
      ++decode_errors_;
      metrics_.decode_errors->inc();
      DUST_LOG_WARN << "wire: decode error (" << to_string(decoded.status)
                    << "), dropping connection";
      return false;
    }
    metrics_.decode_us->observe(static_cast<double>(steady_us() - start_us));
    if (!handle_frame(peer, std::move(decoded))) return false;
  }
  return true;
}

bool SocketTransport::flush(Peer& peer) {
  while (true) {
    if (peer.inflight.head.empty()) {
      if (!peer.tx_normal.empty()) {
        // kNormal control traffic always drains before kLow monitoring
        // data (§III-C).
        peer.inflight = std::move(peer.tx_normal.front());
        peer.tx_normal.pop_front();
      } else if (!peer.tx_low.empty()) {
        peer.inflight = std::move(peer.tx_low.front());
        peer.tx_low.pop_front();
      } else {
        return true;
      }
      peer.queued_bytes -= peer.inflight.size();
      peer.inflight_offset = 0;
    }
    // Scatter-gather write: head plus the borrowed block payloads go out in
    // one writev, resuming mid-frame at inflight_offset after a short
    // write. The payload bytes are still the TSDB's — never copied here.
    const std::size_t frame_bytes = peer.inflight.size();
    std::vector<iovec> iov;
    iov.reserve(1 + peer.inflight.segments.size());
    std::size_t skip = peer.inflight_offset;
    auto add = [&](const std::uint8_t* data, std::size_t size) {
      if (skip >= size) {
        skip -= size;
        return;
      }
      iov.push_back(iovec{
          const_cast<std::uint8_t*>(data) + skip, size - skip});
      skip = 0;
    };
    add(peer.inflight.head.data(), peer.inflight.head.size());
    for (const PayloadRef& segment : peer.inflight.segments)
      add(segment.data, segment.size);
    if (iov.empty()) {
      peer.inflight = TxFrame{};
      peer.inflight_offset = 0;
      continue;
    }
    const ssize_t n =
        ::writev(peer.fd, iov.data(), static_cast<int>(iov.size()));
    if (n > 0) {
      metrics_.tx_bytes->inc(static_cast<std::uint64_t>(n));
      peer.inflight_offset += static_cast<std::size_t>(n);
      if (peer.inflight_offset == frame_bytes) {
        peer.inflight = TxFrame{};  // releases the gather keepalive
        peer.inflight_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;  // later
    if (n < 0 && errno == EINTR) continue;
    DUST_LOG_DEBUG << "wire: write failed (fd " << peer.fd << "): "
                   << std::strerror(errno);
    return false;
  }
}

std::size_t SocketTransport::poll_once(int timeout_ms) {
  const bool leaf = config_.role == SocketTransportConfig::Role::kLeaf;
  if (leaf && hub_link_.fd < 0 && steady_ms() >= next_connect_at_ms_)
    start_connect();

  std::vector<pollfd> fds;
  fds.reserve(peers_.size() + 2);
  if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
  auto wants = [](const Peer& peer) -> short {
    short events = POLLIN;
    if (peer.connecting || !peer.inflight.head.empty() ||
        !peer.tx_normal.empty() || !peer.tx_low.empty())
      events |= POLLOUT;
    return events;
  };
  for (auto& [fd, peer] : peers_) fds.push_back({fd, wants(peer), 0});
  if (hub_link_.fd >= 0) fds.push_back({hub_link_.fd, wants(hub_link_), 0});

  // Local-only work pending? Don't sleep on the sockets.
  if (!inbox_.empty()) timeout_ms = 0;
  if (!fds.empty()) {
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  }

  std::vector<int> dead;
  for (const pollfd& entry : fds) {
    if (entry.fd == listen_fd_) {
      if ((entry.revents & POLLIN) == 0) continue;
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        set_nodelay(fd);
        Peer peer;
        peer.fd = fd;
        peers_.emplace(fd, std::move(peer));
        metrics_.connects->inc();
        DUST_LOG_DEBUG << "wire: hub accepted connection (fd " << fd << ")";
      }
      continue;
    }
    Peer* peer = nullptr;
    if (leaf && entry.fd == hub_link_.fd) {
      peer = &hub_link_;
    } else {
      auto it = peers_.find(entry.fd);
      if (it == peers_.end()) continue;
      peer = &it->second;
    }
    if (peer->connecting) {
      if ((entry.revents & (POLLOUT | POLLERR | POLLHUP)) != 0)
        finish_connect();
      continue;
    }
    bool alive = true;
    if ((entry.revents & (POLLERR | POLLHUP)) != 0 &&
        (entry.revents & POLLIN) == 0) {
      DUST_LOG_DEBUG << "wire: poll error on fd " << entry.fd << " (revents "
                     << entry.revents << ")";
      alive = false;
    }
    if (alive && (entry.revents & POLLIN) != 0) alive = read_from(*peer);
    if (alive) alive = flush(*peer);
    if (!alive) dead.push_back(entry.fd);
  }

  for (const int fd : dead) {
    if (leaf && fd == hub_link_.fd) {
      DUST_LOG_INFO << "wire: hub link lost, reconnecting with backoff";
      on_link_lost();
      continue;
    }
    auto it = peers_.find(fd);
    if (it == peers_.end()) continue;
    for (const std::string& name : it->second.endpoints) {
      auto route = remote_endpoints_.find(name);
      if (route != remote_endpoints_.end() && route->second == fd)
        remote_endpoints_.erase(route);
    }
    ::close(fd);
    peers_.erase(it);
  }

  // Dispatch local deliveries last, outside all socket iteration, so
  // handlers can freely send() (and even trigger new local deliveries,
  // which run in this same drain).
  std::size_t delivered = 0;
  while (!inbox_.empty()) {
    Frame frame = std::move(inbox_.front());
    inbox_.pop_front();
    auto it = local_endpoints_.find(frame.to);
    if (it == local_endpoints_.end()) {
      drop_no_endpoint(frame.kind, frame.from, frame.to, frame.trace_id);
      continue;
    }
    ++delivered;
    it->second.handler(std::move(frame));
  }
  return delivered;
}

}  // namespace dust::wire
