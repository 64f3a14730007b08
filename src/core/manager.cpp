#include "core/manager.hpp"

#include "core/routes.hpp"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace dust::core {

namespace {

constexpr const char* kManagerTrack = "manager";

obs::FlightRecorder& flight() { return obs::FlightRecorder::global(); }

}  // namespace

DustManager::DustManager(sim::Simulator& sim, sim::TransportBase& transport,
                         Nmdb nmdb, ManagerConfig config)
    : sim_(&sim),
      transport_(&transport),
      nmdb_(std::move(nmdb)),
      config_(config) {
  if (config_.incremental_placement) {
    config_.optimizer.placement.response_cache = &trmin_cache_;
    config_.optimizer.warm_start = true;
  }
  engine_ = OptimizationEngine(config_.optimizer);
  const std::size_t n = nmdb_.network().graph().node_count();
  last_stat_at_.assign(n, kNeverStat);
  last_stat_trace_.assign(n, obs::TraceContext{});
  stat_spans_recorded_.assign(n, 0);
  client_ids_.assign(n, kUnresolved);
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  metrics_.rx_offload_capable =
      &registry.counter("dust_core_rx_offload_capable_total");
  metrics_.rx_stat = &registry.counter("dust_core_rx_stat_total");
  metrics_.rx_offload_ack = &registry.counter("dust_core_rx_offload_ack_total");
  metrics_.rx_keepalive = &registry.counter("dust_core_rx_keepalive_total");
  metrics_.rx_unexpected = &registry.counter("dust_core_rx_unexpected_total");
  metrics_.tx_ack = &registry.counter("dust_core_tx_ack_total");
  metrics_.tx_offload_request =
      &registry.counter("dust_core_tx_offload_request_total");
  metrics_.tx_release = &registry.counter("dust_core_tx_release_total");
  metrics_.tx_rep = &registry.counter("dust_core_tx_rep_total");
  metrics_.placement_cycles =
      &registry.counter("dust_core_placement_cycles_total");
  metrics_.offloads_created =
      &registry.counter("dust_core_offloads_created_total");
  metrics_.keepalive_failures =
      &registry.counter("dust_core_keepalive_failures_total");
  metrics_.releases = &registry.counter("dust_core_releases_total");
  metrics_.redirects = &registry.counter("dust_core_redirects_total");
  metrics_.trust_penalties =
      &registry.counter("dust_core_trust_penalties_total");
  metrics_.trust_evictions =
      &registry.counter("dust_core_trust_evictions_total");
  metrics_.loss_audits = &registry.counter("dust_core_loss_audits_total");
  metrics_.trust_min = &registry.gauge("dust_core_trust_min");
  metrics_.distrusted_nodes = &registry.gauge("dust_core_distrusted_nodes");
  metrics_.placement_solve_ms =
      &registry.histogram("dust_core_placement_solve_ms");
  metrics_.placement_build_ms =
      &registry.histogram("dust_core_placement_build_ms");
  metrics_.nmdb_staleness_ms =
      &registry.histogram("dust_core_nmdb_staleness_ms");
  transport_->register_endpoint(
      config_.endpoint,
      [this](const sim::Envelope& envelope) { handle(envelope); });
  endpoint_id_ = transport_->resolve(config_.endpoint);
}

sim::EndpointId DustManager::client_id(graph::NodeId node) {
  // Node ids arrive in messages; only the topology's nodes are memoised.
  if (node >= client_ids_.size())
    return transport_->resolve(client_endpoint(node));
  if (client_ids_[node] == kUnresolved)
    client_ids_[node] = transport_->resolve(client_endpoint(node));
  return client_ids_[node];
}

void DustManager::start() {
  placement_task_ = std::make_unique<sim::PeriodicTask>(
      *sim_, sim_->now() + config_.placement_period_ms,
      config_.placement_period_ms,
      [this](sim::TimeMs) { run_placement_cycle(); });
  keepalive_task_ = std::make_unique<sim::PeriodicTask>(
      *sim_, sim_->now() + config_.keepalive_check_period_ms,
      config_.keepalive_check_period_ms,
      [this](sim::TimeMs) { check_keepalives(); });
}

void DustManager::stop() {
  placement_task_.reset();
  keepalive_task_.reset();
}

void DustManager::handle(const sim::Envelope& envelope) {
  const Message* message = envelope.payload.get_if<Message>();
  if (message == nullptr) {
    DUST_LOG_WARN << "manager: non-protocol payload from " << envelope.from;
    return;
  }
  std::visit(
      [this](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, OffloadCapableMsg>) {
          metrics_.rx_offload_capable->inc();
          on_offload_capable(msg);
        } else if constexpr (std::is_same_v<T, StatMsg>) {
          metrics_.rx_stat->inc();
          on_stat(msg);
        } else if constexpr (std::is_same_v<T, OffloadAckMsg>) {
          metrics_.rx_offload_ack->inc();
          on_offload_ack(msg);
        } else if constexpr (std::is_same_v<T, KeepaliveMsg>) {
          metrics_.rx_keepalive->inc();
          on_keepalive(msg);
        } else {
          metrics_.rx_unexpected->inc();
          DUST_LOG_WARN << "manager: unexpected message type";
        }
      },
      *message);
}

void DustManager::on_offload_capable(const OffloadCapableMsg& msg) {
  nmdb_.set_offload_capable(msg.node, msg.capable);
  if (msg.platform_factor > 0)
    nmdb_.set_platform_factor(msg.node, msg.platform_factor);
  if (msg.capable) {
    metrics_.tx_ack->inc();
    transport_->send(endpoint_id_, client_id(msg.node),
                     Message{AckMsg{msg.node, config_.update_interval_ms}},
                     sim::Priority::kNormal, "ack");
  }
}

void DustManager::on_stat(const StatMsg& msg) {
  ++stats_received_;
  if (msg.node >= last_stat_at_.size()) {
    last_stat_at_.resize(msg.node + 1, kNeverStat);
    last_stat_trace_.resize(msg.node + 1);
    stat_spans_recorded_.resize(msg.node + 1, 0);
  }
  last_stat_at_[msg.node] = sim_->now();
  last_stat_trace_[msg.node] = msg.trace;
  nmdb_.record_stat(msg.node, msg.utilization_percent, msg.monitoring_data_mb,
                    msg.agent_count, msg.telemetry_keep_fraction);
  // Reclaim: a previously busy node whose load (which already excludes the
  // offloaded agents) dropped back under Cmax with margin keeps its offloads;
  // release only when it could re-absorb them: load + offloaded < Cmax.
  double offloaded = 0.0;
  for (const auto& [id, offload] : offloads_)
    if (offload.busy == msg.node) offloaded += offload.amount;
  if (offloaded > 0 &&
      msg.utilization_percent + offloaded + config_.release_margin_percent <
          nmdb_.thresholds(msg.node).c_max) {
    release_offloads_of(msg.node);
  }
  // Redirect (§III-B): "an Offload-destination node can redirect the
  // workload to another node if it becomes busy." The node stays capable —
  // it is overloaded, not dead.
  if (destination_hosting(msg.node) &&
      msg.utilization_percent >= nmdb_.thresholds(msg.node).c_max) {
    ++redirects_;
    metrics_.redirects->inc();
    flight().record(obs::FlightEventKind::kRoleChange, sim_->now(),
                    msg.trace.trace_id, msg.node, obs::FlightEvent::kNoNode,
                    msg.utilization_percent, "host>busy");
    replace_destination(msg.node, /*quarantine=*/false);
  }
}

void DustManager::on_offload_ack(const OffloadAckMsg& msg) {
  auto it = offloads_.find(msg.request_id);
  if (it == offloads_.end()) return;
  if (!msg.accepted) {
    const graph::NodeId destination = it->second.destination;
    offloads_.erase(it);  // erase first: hosting reflects remaining offloads
    nmdb_.set_hosting(destination, destination_hosting(destination));
    return;
  }
  it->second.acknowledged = true;
  // The chain's tip moves to the client's offload_ack span, so any later
  // REP for this relationship extends the trace linearly.
  if (msg.trace.valid()) it->second.trace = msg.trace;
  flight().record(obs::FlightEventKind::kOffloadAcked, sim_->now(),
                  it->second.trace.trace_id, it->second.busy,
                  it->second.destination, it->second.amount,
                  "req " + std::to_string(msg.request_id));
  // Grace-stamp the keepalive clock so a just-acked destination is not
  // declared dead before its first Keepalive crosses the transport. A
  // delegated destination keepalives to its own shard instead — no clock
  // to stamp here.
  if (!it->second.external_destination) {
    sim::TimeMs& last = last_keepalive_[it->second.destination];
    last = std::max(last, sim_->now());
  }
}

void DustManager::on_keepalive(const KeepaliveMsg& msg) {
  last_keepalive_[msg.node] = sim_->now();
}

std::size_t DustManager::run_placement_cycle() {
  ++placement_cycles_;
  metrics_.placement_cycles->inc();
  flight().record(obs::FlightEventKind::kCycleStart, sim_->now(), 0,
                  obs::FlightEvent::kNoNode, obs::FlightEvent::kNoNode,
                  static_cast<double>(placement_cycles_), "");
  obs::Span cycle_span(obs::MetricRegistry::global(),
                       "dust_core_placement_cycle",
                       [this] { return sim_->now(); },
                       obs::SpanOptions{{}, kManagerTrack});
  // How stale is the state this cycle plans on? One observation per node
  // that has ever STATed: sim-time age of its latest report.
  for (const sim::TimeMs at : last_stat_at_)
    if (at != kNeverStat)
      metrics_.nmdb_staleness_ms->observe(
          static_cast<double>(sim_->now() - at));
  // Plan against a reservation-adjusted view: capacity already booked on a
  // destination is added to its utilization, so lagging STATs (which may
  // not yet reflect freshly transferred agents) cannot lead to over-booking
  // the same spare capacity in consecutive cycles. Conservative by design:
  // once the destination's STAT does include the hosted load, the
  // reservation double-counts it and the optimizer simply under-uses that
  // node slightly.
  // Sync the Trmin cache against the authoritative link state *before* the
  // planning copy below: the copy shares the links bit-for-bit (only node
  // utilizations are adjusted, and Trmin depends on links alone), so rows
  // cached against nmdb_ serve the adjusted view exactly.
  if (config_.incremental_placement) trmin_cache_.begin_cycle(nmdb_.network());
  Nmdb adjusted = nmdb_;
  for (const auto& [id, offload] : offloads_) {
    const double arriving = offload.amount *
                            nmdb_.platform_factor(offload.busy) /
                            nmdb_.platform_factor(offload.destination);
    const double utilization =
        adjusted.network().node_utilization(offload.destination) + arriving;
    adjusted.network().set_node_utilization(
        offload.destination, std::min(100.0, utilization));
  }
  PlacementProblem problem;
  const PlacementResult result =
      engine_.run(adjusted, cycle_observer_ ? &problem : nullptr);
  metrics_.placement_solve_ms->observe(result.solve_seconds * 1e3);
  metrics_.placement_build_ms->observe(result.build_seconds * 1e3);
  flight().record(obs::FlightEventKind::kSolverOutcome, sim_->now(), 0,
                  obs::FlightEvent::kNoNode, obs::FlightEvent::kNoNode,
                  result.objective, to_string(result.status));
  if (config_.incremental_placement) {
    const net::ResponseTimeCacheStats cache = trmin_cache_.stats();
    flight().record(obs::FlightEventKind::kCacheStats, sim_->now(), 0,
                    obs::FlightEvent::kNoNode,
                    static_cast<std::int32_t>(cache.misses -
                                              cache_misses_seen_),
                    static_cast<double>(cache.hits - cache_hits_seen_),
                    "trmin hits/misses");
    cache_hits_seen_ = cache.hits;
    cache_misses_seen_ = cache.misses;
  }
  if (cycle_observer_) {
    CycleObservation observation;
    observation.nmdb = &nmdb_;
    observation.planning_view = &adjusted;
    observation.problem = &problem;
    observation.result = &result;
    observation.now = sim_->now();
    cycle_observer_(observation);
  }
  if (!result.optimal() && result.assignments.empty()) {
    DUST_LOG_INFO << "manager: placement " << to_string(result.status)
                  << ", nothing offloaded";
    return 0;
  }
  // Resolve each assignment's controllable route for the request messages.
  RouteOptions route_options;
  route_options.max_hops = config_.optimizer.placement.max_hops;
  const std::vector<ResolvedRoute> routes =
      resolve_routes(nmdb_.network(), result.assignments, route_options);

  std::size_t created = 0;
  // One "solve" span per busy node per cycle, parented to that node's last
  // STAT — the causal story is "this STAT made the solver act". Memoized so
  // multiple assignments from one busy node share the solve span.
  std::map<graph::NodeId, obs::TraceContext> solve_ctx;
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  for (std::size_t index = 0; index < result.assignments.size(); ++index) {
    const Assignment& assignment = result.assignments[index];
    if (assignment.amount < config_.min_offload_amount_percent) continue;
    // One relationship per (busy, destination) pair; refresh amount if the
    // pair already exists.
    bool exists = false;
    for (auto& [id, offload] : offloads_) {
      if (offload.busy == assignment.from &&
          offload.destination == assignment.to) {
        exists = true;
        break;
      }
    }
    if (exists) continue;
    const double cs = nmdb_.thresholds(assignment.from)
                          .excess_load(nmdb_.network().node_utilization(
                              assignment.from));
    const std::uint32_t total_agents = nmdb_.agent_count(assignment.from);
    const auto agents_to_move = static_cast<std::uint32_t>(std::min<double>(
        total_agents,
        std::round(total_agents * (cs > 0 ? assignment.amount / cs : 0.0))));
    auto solve_it = solve_ctx.find(assignment.from);
    if (solve_it == solve_ctx.end()) {
      // The client allocated this STAT's trace ids but deferred the span
      // record (send_stat is the hottest protocol path and most STATs cause
      // nothing). This STAT did cause something — materialize its root span
      // now, on the owner's track, stamped with the STAT's arrival time.
      const obs::TraceContext stat_ctx = last_stat_trace_[assignment.from];
      if (stat_ctx.valid() &&
          stat_spans_recorded_[assignment.from] != stat_ctx.span_id) {
        stat_spans_recorded_[assignment.from] = stat_ctx.span_id;
        obs::SpanRecord stat_span;
        stat_span.name = "stat";
        stat_span.track = "client-" + std::to_string(assignment.from);
        stat_span.wall_ms = 0.0;
        stat_span.wall_start_ms = obs::wall_now_ms();
        stat_span.sim_start_ms = last_stat_at_[assignment.from];
        stat_span.sim_duration_ms = 0;
        stat_span.trace_id = stat_ctx.trace_id;
        stat_span.span_id = stat_ctx.span_id;
        stat_span.parent_span_id = 0;
        registry.record_span(std::move(stat_span));
      }
      solve_it = solve_ctx
                     .emplace(assignment.from,
                              obs::record_instant(registry, "solve",
                                                  kManagerTrack, stat_ctx,
                                                  sim_->now()))
                     .first;
    }
    const obs::TraceContext request_ctx = obs::record_instant(
        registry, "offload_request", kManagerTrack, solve_it->second,
        sim_->now());

    ActiveOffload offload;
    offload.request_id = next_request_id_++;
    offload.busy = assignment.from;
    offload.destination = assignment.to;
    offload.amount = assignment.amount;
    offload.agents = agents_to_move;
    offload.route = routes[index].primary.nodes;
    offload.trace = request_ctx;
    offload.requested_at = sim_->now();
    if (!destination_hosting(assignment.to))
      flight().record(obs::FlightEventKind::kRoleChange, sim_->now(),
                      request_ctx.trace_id, assignment.to,
                      obs::FlightEvent::kNoNode, 0.0, "normal>host");
    offloads_[offload.request_id] = offload;
    nmdb_.set_hosting(assignment.to, true);
    flight().record(obs::FlightEventKind::kOffloadCreated, sim_->now(),
                    request_ctx.trace_id, assignment.from, assignment.to,
                    assignment.amount,
                    "req " + std::to_string(offload.request_id));

    OffloadRequestMsg request{offload.request_id, assignment.from,
                              assignment.to,      assignment.amount,
                              agents_to_move,     {},
                              request_ctx};
    request.route = routes[index].primary.nodes;
    metrics_.tx_offload_request->inc(2);
    transport_->send(endpoint_id_, client_id(assignment.from),
                     Message{request}, sim::Priority::kNormal,
                     "offload_request", request_ctx.trace_id);
    transport_->send(endpoint_id_, client_id(assignment.to),
                     Message{request}, sim::Priority::kNormal,
                     "offload_request", request_ctx.trace_id);
    ++created;
  }
  metrics_.offloads_created->inc(created);
  flight().record(obs::FlightEventKind::kCycleEnd, sim_->now(), 0,
                  obs::FlightEvent::kNoNode, obs::FlightEvent::kNoNode,
                  static_cast<double>(created), "");
  DUST_LOG_INFO << "manager: placement cycle created " << created
                << " offload(s), objective " << result.objective;
  return created;
}

bool DustManager::destination_hosting(graph::NodeId node) const {
  for (const auto& [id, offload] : offloads_)
    if (offload.destination == node) return true;
  return false;
}

void DustManager::release_offloads_of(graph::NodeId busy) {
  std::vector<std::uint64_t> to_erase;
  for (const auto& [id, offload] : offloads_) {
    if (offload.busy != busy) continue;
    metrics_.tx_release->inc(2);
    const obs::TraceContext release_ctx = obs::record_instant(
        obs::MetricRegistry::global(), "release", kManagerTrack,
        offload.trace, sim_->now());
    flight().record(obs::FlightEventKind::kRelease, sim_->now(),
                    release_ctx.trace_id, busy, offload.destination,
                    offload.amount, "req " + std::to_string(id));
    transport_->send(endpoint_id_, client_id(busy),
                     Message{ReleaseMsg{busy, offload.destination}},
                     sim::Priority::kNormal, "release",
                     release_ctx.trace_id);
    transport_->send(endpoint_id_, client_id(offload.destination),
                     Message{ReleaseMsg{busy, offload.destination}},
                     sim::Priority::kNormal, "release",
                     release_ctx.trace_id);
    to_erase.push_back(id);
  }
  for (std::uint64_t id : to_erase) {
    const graph::NodeId dest = offloads_[id].destination;
    offloads_.erase(id);
    nmdb_.set_hosting(dest, destination_hosting(dest));
    ++releases_;
    metrics_.releases->inc();
  }
}

void DustManager::check_keepalives() {
  // Destinations with live offloads must keepalive within the timeout.
  std::vector<graph::NodeId> supervised;
  std::vector<graph::NodeId> overdue;
  std::vector<graph::NodeId> failed;
  for (auto& [id, offload] : offloads_) {
    // Delegated-out relationships: the granting shard supervises the
    // destination's keepalives (and owns retransmission of its side); the
    // origin shard's federation layer re-delegates on silence instead.
    if (offload.external_destination) continue;
    if (!offload.acknowledged) {
      // A request nobody acknowledged is invisible to keepalive supervision;
      // without retransmission a dropped Offload-Request dangles forever.
      // Re-send with the same request_id and the same trace, so the retry
      // visibly joins the truncated causal chain (DESIGN.md §10). REP-made
      // relationships are excluded — re-sending an OffloadRequestMsg would
      // not re-create them; the next sweep re-homes them instead.
      if (config_.offload_request_retry_ms > 0 && !offload.via_rep &&
          sim_->now() - offload.requested_at >=
              config_.offload_request_retry_ms) {
        offload.requested_at = sim_->now();
        ++offload.retransmits;
        flight().record(obs::FlightEventKind::kRetransmit, sim_->now(),
                        offload.trace.trace_id, offload.busy,
                        offload.destination,
                        static_cast<double>(offload.retransmits),
                        "req " + std::to_string(id));
        OffloadRequestMsg request{id,
                                  offload.busy,
                                  offload.destination,
                                  offload.amount,
                                  offload.agents,
                                  offload.route,
                                  offload.trace};
        metrics_.tx_offload_request->inc(2);
        transport_->send(endpoint_id_, client_id(offload.busy),
                         Message{request}, sim::Priority::kNormal,
                         "offload_request", offload.trace.trace_id);
        transport_->send(endpoint_id_, client_id(offload.destination),
                         Message{request}, sim::Priority::kNormal,
                         "offload_request", offload.trace.trace_id);
      }
      continue;  // transfer still in flight
    }
    const auto it = last_keepalive_.find(offload.destination);
    const sim::TimeMs last = it == last_keepalive_.end() ? 0 : it->second;
    if (std::find(supervised.begin(), supervised.end(),
                  offload.destination) == supervised.end())
      supervised.push_back(offload.destination);
    if (sim_->now() - last > config_.keepalive_timeout_ms) {
      if (std::find(overdue.begin(), overdue.end(), offload.destination) ==
          overdue.end())
        overdue.push_back(offload.destination);
    }
  }
  // Hysteresis (keepalive_miss_threshold): declare a destination failed only
  // after that many consecutive overdue checks; one on-time keepalive resets
  // the streak. Threshold 1 reproduces the historical declare-on-first-miss.
  std::erase_if(keepalive_overdue_, [&](const auto& entry) {
    return std::find(supervised.begin(), supervised.end(), entry.first) ==
           supervised.end();
  });
  for (graph::NodeId node : supervised) {
    if (std::find(overdue.begin(), overdue.end(), node) == overdue.end()) {
      keepalive_overdue_.erase(node);
      continue;
    }
    if (++keepalive_overdue_[node] < config_.keepalive_miss_threshold)
      continue;
    keepalive_overdue_.erase(node);
    failed.push_back(node);
  }
  for (graph::NodeId node : failed) {
    ++keepalive_failures_;
    metrics_.keepalive_failures->inc();
    flight().record(obs::FlightEventKind::kKeepaliveFailure, sim_->now(), 0,
                    node, obs::FlightEvent::kNoNode, 0.0, "timeout");
    if (config_.optimizer.placement.trust_weighting) update_trust(node, 0.0);
    replace_destination(node, /*quarantine=*/true);
  }
}

void DustManager::record_loss_audit(graph::NodeId node, double expected,
                                    double delivered) {
  if (!config_.optimizer.placement.trust_weighting) return;
  metrics_.loss_audits->inc();
  const double observation =
      expected > 0.0 ? std::clamp(delivered / expected, 0.0, 1.0) : 1.0;
  update_trust(node, observation);
}

void DustManager::update_trust(graph::NodeId node, double observation) {
  if (node >= nmdb_.node_count()) return;
  const double before = nmdb_.trust(node);
  // t += alpha*(obs - t): exact fixpoint at t == obs, so a fleet that always
  // delivers what it promised stays at exactly 1.0 — and trust-blind vs
  // trust-weighted plans stay bit-identical when nothing misbehaves.
  const double after = std::clamp(
      before + config_.trust_ewma_alpha * (observation - before), 0.0, 1.0);
  if (after == before) return;
  const double threshold = config_.optimizer.placement.trust_exclude_below;
  nmdb_.set_trust(node, after);
  if (after < before) metrics_.trust_penalties->inc();
  metrics_.trust_min->set(nmdb_.min_trust());
  metrics_.distrusted_nodes->set(
      static_cast<double>(nmdb_.distrusted_count(threshold)));
  flight().record(obs::FlightEventKind::kRoleChange, sim_->now(), 0, node,
                  obs::FlightEvent::kNoNode, after, "trust");
  if (before >= threshold && after < threshold) {
    DUST_LOG_INFO << "manager: node " << node << " trust " << after
                  << " crossed below " << threshold
                  << " — excluded from placement";
    if (destination_hosting(node)) {
      ++trust_evictions_;
      metrics_.trust_evictions->inc();
      replace_destination(node, /*quarantine=*/false);
    }
  }
}

void DustManager::replace_destination(graph::NodeId failed, bool quarantine) {
  DUST_LOG_INFO << "manager: moving offloads off destination " << failed
                << (quarantine ? " (keepalive failure)" : " (became busy)");
  if (quarantine) {
    nmdb_.set_offload_capable(failed, false);
    flight().record(obs::FlightEventKind::kRoleChange, sim_->now(), 0, failed,
                    obs::FlightEvent::kNoNode, 0.0, "host>dead");
  }
  nmdb_.set_hosting(failed, false);
  // Collect the relationships to move.
  std::vector<ActiveOffload> moved;
  std::vector<std::uint64_t> to_erase;
  for (const auto& [id, offload] : offloads_) {
    if (offload.destination != failed) continue;
    // Adopted delegations are dropped, not REP'd: the replica would serve a
    // foreign busy node this manager never hears STATs from. Release the
    // busy client (reachable over the federation bridge) so it reclaims its
    // agents; the origin shard re-solves and re-delegates.
    if (offload.external_origin) {
      to_erase.push_back(id);
      metrics_.tx_release->inc();
      ++releases_;
      metrics_.releases->inc();
      transport_->send(endpoint_id_, client_id(offload.busy),
                       Message{ReleaseMsg{offload.busy, failed}},
                       sim::Priority::kNormal, "release",
                       offload.trace.trace_id);
      continue;
    }
    moved.push_back(offload);
    to_erase.push_back(id);
    // Tell the (possibly still alive) old destination to drop the hosted
    // agents; harmless no-op when it is actually dead. Carries the same
    // kind/trace passengers as every other Release so the hop is labelled
    // in the flight recorder and classified by the wire codec.
    metrics_.tx_release->inc();
    transport_->send(endpoint_id_, client_id(failed),
                     Message{ReleaseMsg{offload.busy, failed}},
                     sim::Priority::kNormal, "release",
                     offload.trace.trace_id);
  }
  for (std::uint64_t id : to_erase) offloads_.erase(id);

  // Pick replicas: nearest candidate (by hops) with spare capacity, net of
  // capacity already booked by live relationships (same reservation rule as
  // the placement cycle — lagging STATs must not cause over-booking).
  std::map<graph::NodeId, double> booked;
  for (const auto& [id, offload] : offloads_)
    booked[offload.destination] += offload.amount *
                                   nmdb_.platform_factor(offload.busy) /
                                   nmdb_.platform_factor(offload.destination);
  for (const ActiveOffload& old : moved) {
    const std::vector<std::uint32_t> hops =
        graph::bfs_hops(nmdb_.network().graph(), old.busy);
    graph::NodeId best = graph::kInvalidNode;
    std::uint32_t best_hops = graph::kUnreachable;
    for (graph::NodeId candidate : nmdb_.candidate_nodes()) {
      if (candidate == failed || candidate == old.busy) continue;
      // Distrusted nodes are no better as replicas than as planned
      // destinations (DESIGN.md §14).
      const PlacementOptions& placement = config_.optimizer.placement;
      if (placement.trust_weighting &&
          nmdb_.trust(candidate) < placement.trust_exclude_below)
        continue;
      const double spare =
          nmdb_.thresholds(candidate)
              .spare_capacity(nmdb_.network().node_utilization(candidate)) -
          booked[candidate];
      if (spare < old.amount) continue;
      if (hops[candidate] < best_hops) {
        best_hops = hops[candidate];
        best = candidate;
      }
    }
    if (best == graph::kInvalidNode) {
      DUST_LOG_WARN << "manager: no replica available for busy node "
                    << old.busy;
      continue;
    }
    booked[best] += old.amount * nmdb_.platform_factor(old.busy) /
                    nmdb_.platform_factor(best);
    // The REP span extends the original offload's causal chain (whose tip
    // is the client's offload_ack span once acknowledged).
    const obs::TraceContext rep_ctx = obs::record_instant(
        obs::MetricRegistry::global(), "rep", kManagerTrack, old.trace,
        sim_->now());
    ActiveOffload replacement = old;
    replacement.request_id = next_request_id_++;
    replacement.destination = best;
    replacement.acknowledged = false;
    replacement.trace = rep_ctx;
    replacement.requested_at = sim_->now();
    replacement.retransmits = 0;
    replacement.via_rep = true;
    // The old controllable route pointed at the dead destination; install
    // the best hop-bounded route to the replica instead.
    replacement.route =
        graph::hop_bounded_path(nmdb_.network().graph(), old.busy, best,
                                nmdb_.network().inverse_bandwidth_costs(),
                                config_.optimizer.placement.max_hops)
            .nodes;
    offloads_[replacement.request_id] = replacement;
    nmdb_.set_hosting(best, true);
    metrics_.tx_rep->inc();
    flight().record(obs::FlightEventKind::kReplicaSubstitution, sim_->now(),
                    rep_ctx.trace_id, failed, best, old.amount,
                    "req " + std::to_string(replacement.request_id));
    transport_->send(
        endpoint_id_, client_id(old.busy),
        Message{RepMsg{failed, best, old.busy, replacement.request_id,
                       old.amount, rep_ctx}},
        sim::Priority::kNormal, "rep", rep_ctx.trace_id);
  }
}

std::uint64_t DustManager::create_delegated_offload(graph::NodeId busy,
                                                    graph::NodeId destination,
                                                    double amount,
                                                    std::uint32_t agents) {
  const obs::TraceContext stat_ctx =
      busy < last_stat_trace_.size() ? last_stat_trace_[busy]
                                     : obs::TraceContext{};
  const obs::TraceContext request_ctx =
      obs::record_instant(obs::MetricRegistry::global(), "delegate_offload",
                          kManagerTrack, stat_ctx, sim_->now());
  ActiveOffload offload;
  offload.request_id = next_request_id_++;
  offload.busy = busy;
  offload.destination = destination;
  offload.amount = amount;
  offload.agents = agents;
  offload.trace = request_ctx;
  offload.requested_at = sim_->now();
  offload.external_destination = true;
  offloads_[offload.request_id] = offload;
  metrics_.offloads_created->inc();
  flight().record(obs::FlightEventKind::kOffloadCreated, sim_->now(),
                  request_ctx.trace_id, busy, destination, amount,
                  "delegated req " + std::to_string(offload.request_id));
  // Only the busy client gets the request: it ACKs here and sends the
  // AgentTransfer straight to the foreign destination (whose own shard
  // already booked the capacity when it granted the delegation).
  OffloadRequestMsg request{offload.request_id, busy,         destination,
                            amount,             agents,       {},
                            request_ctx};
  metrics_.tx_offload_request->inc();
  transport_->send(endpoint_id_, client_id(busy), Message{request},
                   sim::Priority::kNormal, "offload_request",
                   request_ctx.trace_id);
  return offload.request_id;
}

std::uint64_t DustManager::adopt_external_offload(graph::NodeId busy,
                                                  graph::NodeId destination,
                                                  double amount,
                                                  std::uint32_t agents) {
  ActiveOffload offload;
  offload.request_id = next_request_id_++;
  offload.busy = busy;
  offload.destination = destination;
  offload.amount = amount;
  offload.agents = agents;
  // The origin shard owns the busy-side handshake; by the time the grant is
  // sent this side's only job is supervising the destination.
  offload.acknowledged = true;
  offload.requested_at = sim_->now();
  offload.external_origin = true;
  offloads_[offload.request_id] = offload;
  nmdb_.set_hosting(destination, true);
  metrics_.offloads_created->inc();
  flight().record(obs::FlightEventKind::kOffloadCreated, sim_->now(), 0, busy,
                  destination, amount,
                  "adopted req " + std::to_string(offload.request_id));
  // Grace-stamp the keepalive clock: the destination only starts
  // keepaliving after the foreign AgentTransfer lands.
  sim::TimeMs& last = last_keepalive_[destination];
  last = std::max(last, sim_->now());
  return offload.request_id;
}

bool DustManager::drop_offload(std::uint64_t request_id) {
  auto it = offloads_.find(request_id);
  if (it == offloads_.end()) return false;
  const graph::NodeId destination = it->second.destination;
  offloads_.erase(it);
  nmdb_.set_hosting(destination, destination_hosting(destination));
  return true;
}

std::size_t DustManager::nodes_reporting() const noexcept {
  std::size_t n = 0;
  for (const sim::TimeMs at : last_stat_at_)
    if (at != kNeverStat) ++n;
  return n;
}

std::vector<ActiveOffload> DustManager::active_offloads() const {
  std::vector<ActiveOffload> out;
  out.reserve(offloads_.size());
  for (const auto& [id, offload] : offloads_) out.push_back(offload);
  return out;
}

}  // namespace dust::core
