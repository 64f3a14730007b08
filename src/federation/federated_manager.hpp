// FederatedManager — one manager shard of a federated DUST fleet
// (DESIGN.md §16).
//
// Wraps an unmodified core::DustManager over a domain slice of the
// topology (out-of-domain nodes are masked non-offload-capable, and their
// clients report to other shards, so they never look busy here). On top of
// the local solve it speaks the manager-to-manager wire extension:
//
//   ShardHello       — shard id / epoch / standby announcement
//   CapacityDigest   — periodic aggregated spare/excess (never per-node)
//   DelegateRequest  — "host this overflow busy node for me"
//   DelegateReply    — grant (with a concrete destination) or reject
//   DomainHandoff    — epoch-fenced ownership transfer after failover
//
// Delegation: when the local solve leaves a busy node with residual excess
// (domain out of spare), the shard asks the neighbor whose latest digest
// shows the most spare. The granting shard picks a concrete destination,
// books it via DustManager::adopt_external_offload (keepalive supervision
// of the destination lives with its home shard), and the origin shard
// creates the busy-side relationship via create_delegated_offload. The
// AgentTransfer then flows client-to-client exactly as in-domain.
//
// Epoch fencing: every federation frame carries (shard, epoch). A frame
// whose epoch is below the highest seen for that shard is rejected and
// counted — after a failover bumps the epoch, nothing from the dead
// primary is ever acted on.
//
// Failover: a standby shard instance stays passive (no solving, no
// digests) while watching primary traffic; when the primary falls silent
// past the timeout the owner calls become_primary(), which bumps the
// epoch, starts the solver, and broadcasts ShardHello + DomainHandoff so
// peers drop in-flight delegations against the dead epoch. Clients re-home
// through the wire layer's reconnect listener (DustClient::rehome).
//
// Transport-agnostic: peer frames leave through an injected sender and
// arrive through handle_peer_frame(). The daemon wires both to a
// wire::SocketTransport (a frame endpoint named federation_endpoint(shard),
// and send_frame); in-process tests wire shards directly to each other.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "federation/partition.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/transport.hpp"
#include "wire/codec.hpp"

namespace dust::federation {

/// Federation-plane endpoint of shard `s`: "dust-fed-<s>".
[[nodiscard]] std::string federation_endpoint(std::uint32_t shard);
/// Federation-plane endpoint of shard `s`'s standby: "dust-fed-<s>-standby".
[[nodiscard]] std::string standby_federation_endpoint(std::uint32_t shard);
/// Control-plane endpoint the shard's DustManager answers on:
/// "dust-manager-shard<s>". Clients homed to the shard set
/// ClientConfig::manager to this.
[[nodiscard]] std::string shard_manager_endpoint(std::uint32_t shard);

struct FederatedManagerConfig {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 1;
  /// Passive standby: no solving, no digests, no delegation until
  /// become_primary().
  bool standby = false;
  /// Cross-domain capacity digest broadcast cadence.
  std::int64_t digest_period_ms = 5000;
  /// Digests older than this are ignored when picking a delegation target.
  std::int64_t digest_stale_ms = 30000;
  /// Residual busy excess (capacity-percent) below this is not worth a
  /// cross-domain delegation.
  double min_delegation_amount = 1.0;
  /// An unanswered DelegateRequest is forgotten (and may be re-issued)
  /// after this long.
  std::int64_t delegation_timeout_ms = 30000;
  /// Standby: primary silence past this is a takeover signal
  /// (primary_silent()). The owner decides when to act on it.
  std::int64_t primary_silence_timeout_ms = 15000;
  /// Inner manager configuration. `manager.placement_period_ms` becomes the
  /// federated cycle period (local solve + delegation sweep); the default
  /// endpoint is replaced with shard_manager_endpoint(shard).
  core::ManagerConfig manager;
};

/// One in-flight DelegateRequest this shard issued.
struct PendingDelegation {
  graph::NodeId busy = graph::kInvalidNode;
  double amount = 0.0;
  std::uint32_t agents = 0;
  std::uint32_t shard = 0;  ///< the neighbor asked
  sim::TimeMs sent_at = 0;
};

/// Aggregate federation telemetry (mirrored into dust_fed_* metrics).
struct FederationStats {
  std::uint64_t digests_sent = 0;
  std::uint64_t digests_received = 0;
  std::uint64_t delegations_requested = 0;
  std::uint64_t delegations_granted = 0;    ///< we granted a peer's request
  std::uint64_t delegations_rejected = 0;   ///< we rejected a peer's request
  std::uint64_t delegations_confirmed = 0;  ///< a peer granted our request
  std::uint64_t delegations_refused = 0;    ///< a peer rejected our request
  std::uint64_t stale_frames_rejected = 0;
  std::uint64_t takeovers = 0;
};

class FederatedManager {
 public:
  /// `nmdb` must span the full topology; nodes outside
  /// `partition.members[config.shard]` are masked non-offload-capable so
  /// the local solver never plans onto them.
  FederatedManager(sim::Simulator& sim, sim::TransportBase& transport,
                   core::Nmdb nmdb, const DomainPartition& partition,
                   FederatedManagerConfig config);

  FederatedManager(const FederatedManager&) = delete;
  FederatedManager& operator=(const FederatedManager&) = delete;

  /// How federation frames leave this shard. The sender receives a fully
  /// addressed frame (from = this shard's federation endpoint, to = the
  /// peer's); return false to report a send failure. Unset: frames are
  /// dropped silently.
  void set_peer_sender(std::function<bool(wire::Frame&&)> sender) {
    peer_sender_ = std::move(sender);
  }
  /// Declare a neighboring shard (digest/hello/handoff broadcast target).
  void add_peer(std::uint32_t shard);
  /// Additional broadcast destination (e.g. this shard's own standby, which
  /// watches primary traffic to detect silence).
  void add_observer(std::string endpoint);

  /// Primary: start periodic federated cycles (local solve + delegation),
  /// digest broadcasts, and keepalive supervision; announces via
  /// ShardHello. Standby: records the start but stays passive.
  void start();
  void stop();

  /// Feed one received federation frame (any of the five types; others are
  /// ignored). Epoch-fenced: stale frames are counted and dropped.
  void handle_peer_frame(wire::Frame frame);

  /// One federated cycle: local placement cycle, then delegate residual
  /// busy excess to the least-loaded neighbor (by latest digest). Returns
  /// offloads created locally plus delegations issued.
  std::size_t run_cycle();

  /// Broadcast a CapacityDigest to every peer and observer now.
  void broadcast_digest();
  /// Broadcast a ShardHello now.
  void send_hello();

  /// Standby -> primary: bump the epoch past everything seen from the old
  /// primary, start solving, and broadcast ShardHello + DomainHandoff.
  /// No-op when already primary.
  void become_primary();

  [[nodiscard]] bool primary() const noexcept { return !config_.standby; }
  [[nodiscard]] std::uint32_t shard() const noexcept { return config_.shard; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] core::DustManager& manager() noexcept { return manager_; }
  [[nodiscard]] const core::DustManager& manager() const noexcept {
    return manager_;
  }
  [[nodiscard]] bool in_domain(graph::NodeId node) const {
    return home_.at(node) == config_.shard;
  }
  [[nodiscard]] const FederationStats& stats() const noexcept {
    return stats_;
  }
  /// Latest digest received from `shard`, if any.
  [[nodiscard]] const wire::CapacityDigestBody* digest_of(
      std::uint32_t shard) const;
  /// Highest epoch seen from `shard` (0 when never heard from).
  [[nodiscard]] std::uint64_t peer_epoch(std::uint32_t shard) const;
  [[nodiscard]] std::size_t pending_delegations() const noexcept {
    return pending_.size();
  }
  /// Sim-time of the last frame seen from this shard's primary (standby
  /// silence detection). 0 until the first frame.
  [[nodiscard]] sim::TimeMs last_primary_activity() const noexcept {
    return last_primary_activity_;
  }
  /// Standby only: has the primary been silent past the configured timeout?
  [[nodiscard]] bool primary_silent() const;

 private:
  struct ReceivedDigest {
    wire::CapacityDigestBody body;
    sim::TimeMs received_at = 0;
    /// Spare remaining after optimistic local decrements (delegations
    /// issued against this digest before the next one arrives).
    double spare_left = 0.0;
  };

  /// Global-registry handles (dust_fed_*), resolved once at construction.
  struct Metrics {
    obs::Counter* digests_tx = nullptr;
    obs::Counter* digests_rx = nullptr;
    obs::Counter* delegations_requested = nullptr;
    obs::Counter* delegations_granted = nullptr;
    obs::Counter* delegations_rejected = nullptr;
    obs::Counter* delegations_confirmed = nullptr;
    obs::Counter* stale_frames = nullptr;
    obs::Counter* takeovers = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::Gauge* neighbor_spare = nullptr;  ///< sum of fresh digest spares
  };

  /// True when (shard, epoch) passes the fence; updates the recorded epoch.
  bool fence(std::uint32_t shard, std::uint64_t epoch);
  void on_hello(const wire::ShardHelloBody& body);
  void on_digest(const wire::CapacityDigestBody& body);
  void on_delegate_request(const wire::DelegateRequestBody& body);
  void on_delegate_reply(const wire::DelegateReplyBody& body);
  void on_handoff(const wire::DomainHandoffBody& body);
  std::size_t delegate_overflow();
  bool send_to_endpoint(const std::string& endpoint, wire::Frame frame);
  void broadcast(const std::function<wire::Frame(const std::string& to)>& make);
  void start_primary_tasks();
  /// Reservation-adjusted spare capacity of node `v` given `booked`.
  [[nodiscard]] double residual_spare(
      graph::NodeId v, const std::map<graph::NodeId, double>& booked) const;
  void expire_pending();

  sim::Simulator* sim_;
  FederatedManagerConfig config_;
  std::vector<std::uint32_t> home_;  ///< node -> shard (from the partition)
  std::int64_t cycle_period_ms_ = 0;
  core::DustManager manager_;
  Metrics metrics_;
  std::uint64_t epoch_ = 1;
  std::uint64_t digest_seq_ = 0;
  std::uint64_t next_delegation_id_ = 1;
  std::function<bool(wire::Frame&&)> peer_sender_;
  std::vector<std::uint32_t> peer_shards_;
  std::vector<std::string> observers_;
  std::map<std::uint32_t, std::uint64_t> peer_epochs_;
  std::map<std::uint32_t, ReceivedDigest> digests_;
  std::map<std::uint64_t, PendingDelegation> pending_;
  /// Delegations we granted: (origin shard, delegation id) -> request_id in
  /// the inner manager (DomainHandoff bookkeeping).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> adopted_;
  sim::TimeMs last_primary_activity_ = 0;
  sim::TimeMs started_at_ = 0;
  bool started_ = false;
  std::unique_ptr<sim::PeriodicTask> cycle_task_;
  std::unique_ptr<sim::PeriodicTask> digest_task_;
  FederationStats stats_;
};

}  // namespace dust::federation
