// DUST-Manager: the decision node (paper §III-B, Fig. 3).
//
// Owns the NMDB, runs the optimization engine on a period, notifies busy
// nodes and destinations with Offload-Request messages, tracks Keepalives
// from hosting destinations, substitutes failed destinations with replicas
// (REP), and releases offloads when a busy node's load recedes below Cmax.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/messages.hpp"
#include "core/nmdb.hpp"
#include "core/optimizer.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/transport.hpp"

namespace dust::core {

struct ManagerConfig {
  std::int64_t update_interval_ms = 60000;    ///< STAT interval sent in ACK
  std::int64_t placement_period_ms = 60000;   ///< optimization cadence
  std::int64_t keepalive_timeout_ms = 15000;  ///< destination declared dead
  std::int64_t keepalive_check_period_ms = 5000;
  /// Hysteresis: release offloads only when the busy node could re-absorb
  /// them with this much headroom below Cmax (prevents offload/release
  /// oscillation when the shed monitoring load is close to the excess).
  double release_margin_percent = 5.0;
  /// Assignments smaller than this (capacity-percent) are not worth a
  /// relationship: skip them rather than move zero agents.
  double min_offload_amount_percent = 1.0;
  /// Re-send an Offload-Request (same request_id, same trace) when it has
  /// not been acknowledged within this long — a dropped request otherwise
  /// dangles forever, since keepalive supervision only covers acknowledged
  /// relationships. 0 disables retransmission (the historical behaviour,
  /// and the default: existing seeded runs consume exactly the same
  /// transport RNG stream). Placement-created offloads only; REP-created
  /// ones are re-homed by the next keepalive sweep instead.
  std::int64_t offload_request_retry_ms = 0;
  /// Incremental placement pipeline (DESIGN.md §8): reuse Trmin rows across
  /// cycles via a dirty-aware cache and warm-start the solver from the
  /// previous cycle's flow, remapped by node id when nodes changed roles
  /// since. With the default link epsilon of 0 the plans are optimal exactly
  /// as with full recomputation (warm starts change the pivot path, not the
  /// optimum, though at a tie they may pick another equal-cost plan);
  /// steady-state cycles get dramatically cheaper. On, it points
  /// optimizer.placement.response_cache at the manager's cache and sets
  /// optimizer.warm_start.
  bool incremental_placement = true;
  /// Keepalive hysteresis: a supervised destination is declared failed only
  /// after this many *consecutive* keepalive checks found it overdue. The
  /// default of 1 is the historical behaviour (declare on the first overdue
  /// check); 2+ keeps a node oscillating just inside/outside the deadline
  /// from thrashing replica substitution (DESIGN.md §14).
  int keepalive_miss_threshold = 1;
  /// EWMA weight of the newest trust observation: t += alpha * (obs - t).
  /// Used only when optimizer.placement.trust_weighting is on (DESIGN.md
  /// §14): then each node carries an EWMA trust score updated from
  /// observed-vs-promised behaviour — keepalive failures and loss audits
  /// push it down, clean audits pull it back up — which (a) scales that
  /// candidate's Trmin column, (b) excludes candidates below
  /// placement.trust_exclude_below from placement and replica selection,
  /// and (c) evicts live offloads from a node the moment it crosses below
  /// that threshold. With weighting off the manager never writes trust
  /// state.
  double trust_ewma_alpha = 0.4;
  /// Transport endpoint this manager answers on. The default is the
  /// classic single-manager name every client targets; federated
  /// deployments give each shard its own ("dust-manager-shard0", ...) and
  /// point their clients' ClientConfig::manager at it (DESIGN.md §16).
  std::string endpoint = manager_endpoint();
  OptimizerOptions optimizer;
};

/// Snapshot handed to a cycle observer after every placement cycle —
/// everything the dust::check invariants need: the authoritative NMDB, the
/// reservation-adjusted view the engine actually planned on, the built
/// model, and the solve result. Pointers are valid only for the duration of
/// the callback.
struct CycleObservation {
  const Nmdb* nmdb = nullptr;
  const Nmdb* planning_view = nullptr;
  const PlacementProblem* problem = nullptr;
  const PlacementResult* result = nullptr;
  sim::TimeMs now = 0;
};
using CycleObserver = std::function<void(const CycleObservation&)>;

/// One live offload relationship.
struct ActiveOffload {
  std::uint64_t request_id = 0;
  graph::NodeId busy = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  double amount = 0.0;
  std::uint32_t agents = 0;
  bool acknowledged = false;
  /// Controllable route installed for this relationship (busy ... dest).
  std::vector<graph::NodeId> route;
  /// Causal context of the latest span in this relationship's trace: the
  /// offload_request span until the ACK arrives, then the client's
  /// offload_ack span (so a later REP extends the chain linearly).
  obs::TraceContext trace{};
  sim::TimeMs requested_at = 0;   ///< when the request was (re)sent
  std::uint32_t retransmits = 0;  ///< unacked re-sends so far
  bool via_rep = false;           ///< created by replica substitution
  /// Federation (DESIGN.md §16): the destination lives in another manager's
  /// domain. Keepalive supervision and replica substitution for it belong
  /// to the granting shard; this manager only tracks the busy side.
  bool external_destination = false;
  /// Federation: the busy node lives in another manager's domain — this
  /// manager adopted the offload when it granted a DelegateRequest, and it
  /// supervises the (local) destination's keepalives. On destination
  /// failure the offload is dropped, not REP'd: the origin shard re-solves
  /// and re-delegates instead.
  bool external_origin = false;
};

class DustManager {
 public:
  /// Programs against the transport interface: pass a sim::Transport for
  /// deterministic in-process runs or a wire::SocketTransport for the
  /// multi-process daemon runtime (DESIGN.md §11) — the protocol state
  /// machine is identical over both.
  DustManager(sim::Simulator& sim, sim::TransportBase& transport, Nmdb nmdb,
              ManagerConfig config);

  /// Begin periodic placement and keepalive supervision.
  void start();
  void stop();

  /// Run one placement cycle immediately (also called by the periodic task).
  /// Returns the number of new offload relationships created.
  std::size_t run_placement_cycle();

  [[nodiscard]] Nmdb& nmdb() noexcept { return nmdb_; }
  [[nodiscard]] const Nmdb& nmdb() const noexcept { return nmdb_; }

  [[nodiscard]] std::size_t active_offload_count() const noexcept {
    return offloads_.size();
  }
  [[nodiscard]] std::vector<ActiveOffload> active_offloads() const;
  [[nodiscard]] std::size_t placement_cycles() const noexcept {
    return placement_cycles_;
  }
  [[nodiscard]] std::size_t keepalive_failures() const noexcept {
    return keepalive_failures_;
  }
  [[nodiscard]] std::size_t releases() const noexcept { return releases_; }
  [[nodiscard]] std::size_t redirects() const noexcept { return redirects_; }
  /// Feed one loss-audit observation (collector declared/undeclared gap
  /// audit, or the dust::check delivery model): of `expected` samples
  /// promised by destination `node` in the audit window, `delivered`
  /// actually arrived. No-op unless placement trust weighting is on.
  void record_loss_audit(graph::NodeId node, double expected,
                         double delivered);
  [[nodiscard]] double trust(graph::NodeId node) const {
    return nmdb_.trust(node);
  }
  /// Offload relationships evicted because their destination's trust
  /// crossed below the exclusion threshold.
  [[nodiscard]] std::size_t trust_evictions() const noexcept {
    return trust_evictions_;
  }
  [[nodiscard]] std::size_t stats_received() const noexcept {
    return stats_received_;
  }
  /// Distinct nodes that have reported at least one STAT — the daemon
  /// runtime gates its first placement cycle on full fleet visibility.
  [[nodiscard]] std::size_t nodes_reporting() const noexcept;
  /// Trmin cache behaviour (hits/misses/invalidations) — only moves when
  /// incremental_placement is on.
  [[nodiscard]] net::ResponseTimeCacheStats trmin_cache_stats() const {
    return trmin_cache_.stats();
  }
  /// The persistent engine (exposes warm/cold solve counts).
  [[nodiscard]] const OptimizationEngine& engine() const noexcept {
    return engine_;
  }
  /// Invariant observation hook: called after every placement cycle (even
  /// when nothing was offloaded) with the model and result of that cycle.
  /// Used by the dust::check harness; pass {} to clear.
  void set_cycle_observer(CycleObserver observer) {
    cycle_observer_ = std::move(observer);
  }

  // --- federation hooks (DESIGN.md §16) -------------------------------------
  /// The endpoint name this manager registered on the transport.
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return config_.endpoint;
  }
  /// Origin side of a granted delegation: create an offload whose
  /// destination another shard supervises. Sends the Offload-Request to the
  /// busy client only (the destination-side bookkeeping happens on the
  /// granting shard via adopt_external_offload). Returns the request_id.
  std::uint64_t create_delegated_offload(graph::NodeId busy,
                                         graph::NodeId destination,
                                         double amount, std::uint32_t agents);
  /// Granting side of a delegation: adopt an offload whose busy node lives
  /// in the requesting shard. The local `destination` will receive the
  /// AgentTransfer directly from the foreign busy client; this manager
  /// supervises its keepalives from now on. Returns the request_id.
  std::uint64_t adopt_external_offload(graph::NodeId busy,
                                       graph::NodeId destination,
                                       double amount, std::uint32_t agents);
  /// Epoch-fenced cleanup: erase one offload relationship without sending
  /// protocol messages (used when a DomainHandoff invalidates delegations
  /// against a dead peer epoch — the new primary re-solves from scratch, so
  /// keeping the booking would double-count capacity). Returns whether the
  /// id existed.
  bool drop_offload(std::uint64_t request_id);

 private:
  void handle(const sim::Envelope& envelope);
  void on_offload_capable(const OffloadCapableMsg& msg);
  void on_stat(const StatMsg& msg);
  void on_offload_ack(const OffloadAckMsg& msg);
  void on_keepalive(const KeepaliveMsg& msg);
  void check_keepalives();
  void release_offloads_of(graph::NodeId busy);
  /// Move all relationships off `node`. `quarantine` marks it non-capable
  /// (keepalive death); without it the node stays eligible (it merely became
  /// busy and redirects its hosted workload, §III-B).
  void replace_destination(graph::NodeId node, bool quarantine);
  [[nodiscard]] bool destination_hosting(graph::NodeId node) const;
  /// EWMA-update `node`'s trust toward `observation` (0 = betrayed promise,
  /// 1 = behaved). Evicts the node's live offloads when it crosses below
  /// the exclusion threshold. Only called when trust weighting is on.
  void update_trust(graph::NodeId node, double observation);

  /// Global-registry handles (dust_core_*), resolved once at construction.
  /// rx_* / tx_* count protocol messages by type; staleness is the age of
  /// each node's last STAT at planning time (how outdated the NMDB view the
  /// optimizer ran on actually was).
  struct Metrics {
    obs::Counter* rx_offload_capable = nullptr;
    obs::Counter* rx_stat = nullptr;
    obs::Counter* rx_offload_ack = nullptr;
    obs::Counter* rx_keepalive = nullptr;
    obs::Counter* rx_unexpected = nullptr;
    obs::Counter* tx_ack = nullptr;
    obs::Counter* tx_offload_request = nullptr;
    obs::Counter* tx_release = nullptr;
    obs::Counter* tx_rep = nullptr;
    obs::Counter* placement_cycles = nullptr;
    obs::Counter* offloads_created = nullptr;
    obs::Counter* keepalive_failures = nullptr;
    obs::Counter* releases = nullptr;
    obs::Counter* redirects = nullptr;
    obs::Counter* trust_penalties = nullptr;   ///< EWMA moves below 1.0
    obs::Counter* trust_evictions = nullptr;   ///< offloads evicted on crossing
    obs::Counter* loss_audits = nullptr;       ///< record_loss_audit calls
    obs::Gauge* trust_min = nullptr;           ///< lowest trust in the fleet
    obs::Gauge* distrusted_nodes = nullptr;    ///< nodes below the threshold
    obs::Histogram* placement_solve_ms = nullptr;  ///< wall, solver only
    obs::Histogram* placement_build_ms = nullptr;  ///< wall, model build
    obs::Histogram* nmdb_staleness_ms = nullptr;   ///< sim-time STAT age
  };

  /// Transport id of client `node`'s endpoint, resolved on first use.
  sim::EndpointId client_id(graph::NodeId node);

  sim::Simulator* sim_;
  sim::TransportBase* transport_;
  Nmdb nmdb_;
  ManagerConfig config_;
  sim::EndpointId endpoint_id_ = 0;  ///< config_.endpoint, resolved once
  /// client_id() memo, indexed by NodeId over the topology; kUnresolved
  /// until first use.
  static constexpr sim::EndpointId kUnresolved = UINT32_MAX;
  std::vector<sim::EndpointId> client_ids_;
  /// Declared before engine_: the engine's options point at this cache when
  /// incremental_placement is on. Both persist across cycles by design —
  /// that persistence is what makes the pipeline incremental.
  net::ResponseTimeCache trmin_cache_;
  OptimizationEngine engine_;
  Metrics metrics_;
  /// Per-node STAT bookkeeping, indexed by NodeId (sized to the topology at
  /// construction, grown on demand for out-of-range ids). Vectors, not maps:
  /// these are written on every STAT, the hottest message path.
  /// kNeverStat marks nodes that have never reported.
  static constexpr sim::TimeMs kNeverStat = -1;
  std::vector<sim::TimeMs> last_stat_at_;
  /// Trace context of each node's most recent STAT — the root every
  /// solve/offload chain for that node hangs off (DESIGN.md §10).
  std::vector<obs::TraceContext> last_stat_trace_;
  /// span_id of the last STAT root span materialized per node (clients
  /// defer the record; the manager writes it when a solve first uses it).
  std::vector<std::uint64_t> stat_spans_recorded_;
  /// Trmin cache totals at the previous cycle end, for per-cycle deltas in
  /// the flight recorder's cache_stats events.
  std::uint64_t cache_hits_seen_ = 0;
  std::uint64_t cache_misses_seen_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::map<std::uint64_t, ActiveOffload> offloads_;
  std::map<graph::NodeId, sim::TimeMs> last_keepalive_;
  /// Consecutive overdue keepalive checks per supervised destination
  /// (keepalive_miss_threshold hysteresis).
  std::map<graph::NodeId, int> keepalive_overdue_;
  std::unique_ptr<sim::PeriodicTask> placement_task_;
  std::unique_ptr<sim::PeriodicTask> keepalive_task_;
  std::size_t placement_cycles_ = 0;
  std::size_t keepalive_failures_ = 0;
  std::size_t releases_ = 0;
  std::size_t redirects_ = 0;
  std::size_t stats_received_ = 0;
  std::size_t trust_evictions_ = 0;
  CycleObserver cycle_observer_;
};

}  // namespace dust::core
