#include "federation/federated_manager.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

namespace dust::federation {

namespace {

/// Mask every out-of-domain node non-offload-capable before the inner
/// manager ever sees the NMDB: the local solver can then never plan onto
/// foreign nodes, and — since foreign clients STAT to their own shard —
/// foreign nodes never classify busy here either. Cross-domain capacity is
/// reachable exclusively through the delegation protocol.
core::Nmdb mask_foreign_domains(core::Nmdb nmdb,
                                const DomainPartition& partition,
                                std::uint32_t shard) {
  for (graph::NodeId v = 0; v < partition.home.size(); ++v)
    if (partition.home[v] != shard) nmdb.set_offload_capable(v, false);
  return nmdb;
}

core::ManagerConfig prepare_inner_config(const FederatedManagerConfig& config,
                                         std::int64_t& cycle_period_ms) {
  core::ManagerConfig inner = config.manager;
  // The federated cycle (local solve + delegation sweep) owns the cadence;
  // push the inner manager's own placement task past any realistic horizon
  // so start() contributes keepalive supervision and message handling only.
  cycle_period_ms = inner.placement_period_ms;
  inner.placement_period_ms = std::int64_t{1} << 40;
  if (inner.endpoint == core::manager_endpoint())
    inner.endpoint = shard_manager_endpoint(config.shard);
  // A shard must place what its domain can hold and leave the residual for
  // delegation — a strict solve that refuses the whole scenario because the
  // domain alone is short of spare would delegate everything instead of the
  // overflow (and diverge from the O8 oracle's per-shard model).
  inner.optimizer.allow_partial = true;
  return inner;
}

}  // namespace

std::string federation_endpoint(std::uint32_t shard) {
  return "dust-fed-" + std::to_string(shard);
}

std::string standby_federation_endpoint(std::uint32_t shard) {
  return federation_endpoint(shard) + "-standby";
}

std::string shard_manager_endpoint(std::uint32_t shard) {
  return "dust-manager-shard" + std::to_string(shard);
}

FederatedManager::FederatedManager(sim::Simulator& sim,
                                   sim::TransportBase& transport,
                                   core::Nmdb nmdb,
                                   const DomainPartition& partition,
                                   FederatedManagerConfig config)
    : sim_(&sim),
      config_(std::move(config)),
      home_(partition.home),
      manager_(sim, transport,
               mask_foreign_domains(std::move(nmdb), partition, config_.shard),
               prepare_inner_config(config_, cycle_period_ms_)),
      epoch_(config_.epoch) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  metrics_.digests_tx = &registry.counter("dust_fed_digests_tx_total");
  metrics_.digests_rx = &registry.counter("dust_fed_digests_rx_total");
  metrics_.delegations_requested =
      &registry.counter("dust_fed_delegations_requested_total");
  metrics_.delegations_granted =
      &registry.counter("dust_fed_delegations_granted_total");
  metrics_.delegations_rejected =
      &registry.counter("dust_fed_delegations_rejected_total");
  metrics_.delegations_confirmed =
      &registry.counter("dust_fed_delegations_confirmed_total");
  metrics_.stale_frames = &registry.counter("dust_fed_stale_frames_total");
  metrics_.takeovers = &registry.counter("dust_fed_takeovers_total");
  metrics_.epoch = &registry.gauge("dust_fed_epoch");
  metrics_.neighbor_spare = &registry.gauge("dust_fed_neighbor_spare");
  metrics_.epoch->set(static_cast<double>(epoch_));
}

void FederatedManager::add_peer(std::uint32_t shard) {
  if (std::find(peer_shards_.begin(), peer_shards_.end(), shard) ==
      peer_shards_.end())
    peer_shards_.push_back(shard);
}

void FederatedManager::add_observer(std::string endpoint) {
  if (std::find(observers_.begin(), observers_.end(), endpoint) ==
      observers_.end())
    observers_.push_back(std::move(endpoint));
}

void FederatedManager::start() {
  started_ = true;
  started_at_ = sim_->now();
  if (config_.standby) return;  // passive until become_primary()
  manager_.start();
  send_hello();
  start_primary_tasks();
}

void FederatedManager::stop() {
  cycle_task_.reset();
  digest_task_.reset();
  manager_.stop();
  started_ = false;
}

void FederatedManager::start_primary_tasks() {
  broadcast_digest();
  cycle_task_ = std::make_unique<sim::PeriodicTask>(
      *sim_, sim_->now() + cycle_period_ms_, cycle_period_ms_,
      [this](sim::TimeMs) { run_cycle(); });
  digest_task_ = std::make_unique<sim::PeriodicTask>(
      *sim_, sim_->now() + config_.digest_period_ms, config_.digest_period_ms,
      [this](sim::TimeMs) {
        broadcast_digest();
        send_hello();
      });
}

bool FederatedManager::send_to_endpoint(const std::string& endpoint,
                                        wire::Frame frame) {
  frame.from = config_.standby ? standby_federation_endpoint(config_.shard)
                               : federation_endpoint(config_.shard);
  frame.to = endpoint;
  if (!peer_sender_) return false;
  return peer_sender_(std::move(frame));
}

void FederatedManager::broadcast(
    const std::function<wire::Frame(const std::string& to)>& make) {
  for (std::uint32_t peer : peer_shards_)
    send_to_endpoint(federation_endpoint(peer), make(federation_endpoint(peer)));
  for (const std::string& endpoint : observers_)
    send_to_endpoint(endpoint, make(endpoint));
}

void FederatedManager::send_hello() {
  wire::ShardHelloBody body;
  body.shard = config_.shard;
  body.epoch = epoch_;
  body.standby = config_.standby;
  body.endpoint = config_.standby ? standby_federation_endpoint(config_.shard)
                                  : federation_endpoint(config_.shard);
  broadcast([&](const std::string& to) {
    return wire::shard_hello_frame({}, to, body);
  });
}

double FederatedManager::residual_spare(
    graph::NodeId v, const std::map<graph::NodeId, double>& booked) const {
  const core::Nmdb& nmdb = manager_.nmdb();
  const double util = nmdb.network().node_utilization(v);
  double spare = nmdb.thresholds(v).spare_capacity(util);
  auto it = booked.find(v);
  if (it != booked.end()) spare -= it->second;
  return spare;
}

void FederatedManager::broadcast_digest() {
  const core::Nmdb& nmdb = manager_.nmdb();
  // Book every live reservation against its destination so a digest never
  // advertises spare that an in-flight AgentTransfer is about to consume
  // (amounts convert through the platform-factor ratio, same as placement).
  std::map<graph::NodeId, double> booked;
  for (const core::ActiveOffload& offload : manager_.active_offloads())
    booked[offload.destination] += offload.amount *
                                   nmdb.platform_factor(offload.busy) /
                                   nmdb.platform_factor(offload.destination);
  wire::CapacityDigestBody body;
  body.shard = config_.shard;
  body.epoch = epoch_;
  body.seq = ++digest_seq_;
  std::vector<graph::NodeId> nodes = nmdb.candidate_nodes();
  body.candidate_count = static_cast<std::uint32_t>(nodes.size());
  for (graph::NodeId v : nodes)
    body.spare += std::max(0.0, residual_spare(v, booked));
  nmdb.busy_nodes_into(nodes);
  body.busy_count = static_cast<std::uint32_t>(nodes.size());
  for (graph::NodeId v : nodes)
    body.excess += nmdb.thresholds(v).excess_load(
        nmdb.network().node_utilization(v));
  broadcast([&](const std::string& to) {
    metrics_.digests_tx->inc();
    ++stats_.digests_sent;
    return wire::capacity_digest_frame({}, to, body);
  });
}

std::size_t FederatedManager::run_cycle() {
  if (config_.standby) return 0;
  expire_pending();
  std::size_t created = manager_.run_placement_cycle();
  created += delegate_overflow();
  return created;
}

void FederatedManager::expire_pending() {
  const sim::TimeMs now = sim_->now();
  for (auto it = pending_.begin(); it != pending_.end();)
    if (now - it->second.sent_at >= config_.delegation_timeout_ms)
      it = pending_.erase(it);
    else
      ++it;
}

std::size_t FederatedManager::delegate_overflow() {
  const core::Nmdb& nmdb = manager_.nmdb();
  const sim::TimeMs now = sim_->now();
  // Residual excess per busy node: what the local solve (plus everything
  // already delegated or in flight) could not place inside the domain.
  std::map<graph::NodeId, double> handled;
  for (const core::ActiveOffload& offload : manager_.active_offloads())
    handled[offload.busy] += offload.amount;
  for (const auto& [id, pending] : pending_) handled[pending.busy] += pending.amount;

  double neighbor_spare = 0.0;
  for (const auto& [shard, digest] : digests_)
    if (now - digest.received_at <= config_.digest_stale_ms)
      neighbor_spare += std::max(0.0, digest.spare_left);
  metrics_.neighbor_spare->set(neighbor_spare);

  std::size_t delegated = 0;
  for (graph::NodeId busy : nmdb.busy_nodes()) {
    const double excess = nmdb.thresholds(busy).excess_load(
        nmdb.network().node_utilization(busy));
    double residual = excess;
    auto it = handled.find(busy);
    if (it != handled.end()) residual -= it->second;
    if (residual < config_.min_delegation_amount) continue;

    // Freshest digest wins ties; otherwise the neighbor advertising the
    // most (optimistically decremented) spare.
    ReceivedDigest* best = nullptr;
    std::uint32_t best_shard = 0;
    for (auto& [shard, digest] : digests_) {
      if (now - digest.received_at > config_.digest_stale_ms) continue;
      if (digest.spare_left < config_.min_delegation_amount) continue;
      if (!best || digest.spare_left > best->spare_left) {
        best = &digest;
        best_shard = shard;
      }
    }
    if (!best) continue;

    const double amount = std::min(residual, best->spare_left);
    const std::uint32_t total_agents = nmdb.agent_count(busy);
    std::uint32_t agents = 0;
    if (total_agents > 0 && excess > 0.0)
      agents = std::min<std::uint32_t>(
          total_agents,
          std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(
                     std::lround(total_agents * amount / excess))));

    wire::DelegateRequestBody body;
    body.shard = config_.shard;
    body.epoch = epoch_;
    body.delegation_id = next_delegation_id_++;
    body.busy = busy;
    body.amount = amount;
    body.agents = agents;
    body.platform_factor = nmdb.platform_factor(busy);
    // Book before sending: over an in-process router the grant can arrive
    // synchronously, and on_delegate_reply must find the pending entry.
    best->spare_left -= amount;
    pending_[body.delegation_id] =
        PendingDelegation{busy, amount, agents, best_shard, now};
    metrics_.delegations_requested->inc();
    ++stats_.delegations_requested;
    if (!send_to_endpoint(federation_endpoint(best_shard),
                          wire::delegate_request_frame(
                              {}, federation_endpoint(best_shard), body))) {
      pending_.erase(body.delegation_id);
      best->spare_left += amount;
      continue;
    }
    ++delegated;
  }
  return delegated;
}

bool FederatedManager::fence(std::uint32_t shard, std::uint64_t epoch) {
  auto [it, inserted] = peer_epochs_.try_emplace(shard, epoch);
  if (!inserted) {
    if (epoch < it->second) return false;
    it->second = epoch;
  }
  return true;
}

void FederatedManager::handle_peer_frame(wire::Frame frame) {
  const std::optional<wire::FederationOrigin> origin =
      wire::federation_origin(frame);
  if (!origin) return;  // not a federation frame
  // A standby watches its own primary's traffic: any non-standby frame from
  // the home shard proves the primary is alive.
  if (origin->shard == config_.shard && !origin->standby)
    last_primary_activity_ = sim_->now();
  if (!fence(origin->shard, origin->epoch)) {
    metrics_.stale_frames->inc();
    ++stats_.stale_frames_rejected;
    return;
  }
  switch (frame.type) {
    case wire::FrameType::kShardHello:
      on_hello(frame.shard_hello);
      break;
    case wire::FrameType::kCapacityDigest:
      on_digest(frame.capacity_digest);
      break;
    case wire::FrameType::kDelegateRequest:
      on_delegate_request(frame.delegate_request);
      break;
    case wire::FrameType::kDelegateReply:
      on_delegate_reply(frame.delegate_reply);
      break;
    case wire::FrameType::kDomainHandoff:
      on_handoff(frame.domain_handoff);
      break;
    default:
      break;
  }
}

void FederatedManager::on_hello(const wire::ShardHelloBody& body) {
  // The fence already recorded the epoch; nothing else to track — digests
  // carry the load state, hellos are liveness + role.
  (void)body;
}

void FederatedManager::on_digest(const wire::CapacityDigestBody& body) {
  if (body.shard == config_.shard) return;  // own-shard echo (standby watch)
  auto [it, inserted] = digests_.try_emplace(body.shard);
  if (!inserted && body.epoch == it->second.body.epoch &&
      body.seq <= it->second.body.seq)
    return;  // out-of-order digest lost the race
  // Carry forward reservations made against the previous digest that are
  // still unanswered, so a refresh cannot double-book the same spare.
  double in_flight = 0.0;
  for (const auto& [id, pending] : pending_)
    if (pending.shard == body.shard) in_flight += pending.amount;
  it->second.body = body;
  it->second.received_at = sim_->now();
  it->second.spare_left = body.spare - in_flight;
  metrics_.digests_rx->inc();
  ++stats_.digests_received;
}

void FederatedManager::on_delegate_request(const wire::DelegateRequestBody& body) {
  const auto reject = [&] {
    wire::DelegateReplyBody reply;
    reply.shard = config_.shard;
    reply.epoch = epoch_;
    reply.delegation_id = body.delegation_id;
    reply.granted = false;
    send_to_endpoint(federation_endpoint(body.shard),
                     wire::delegate_reply_frame(
                         {}, federation_endpoint(body.shard), reply));
    metrics_.delegations_rejected->inc();
    ++stats_.delegations_rejected;
  };
  if (config_.standby || !started_) return reject();

  core::Nmdb& nmdb = manager_.nmdb();
  // The foreign busy node's persona: record its platform factor so the
  // amount converts into destination capacity the same way in-domain
  // placement converts it.
  nmdb.set_platform_factor(body.busy, body.platform_factor);
  std::map<graph::NodeId, double> booked;
  for (const core::ActiveOffload& offload : manager_.active_offloads())
    booked[offload.destination] += offload.amount *
                                   nmdb.platform_factor(offload.busy) /
                                   nmdb.platform_factor(offload.destination);
  graph::NodeId best = graph::kInvalidNode;
  double best_spare = 0.0;
  for (graph::NodeId v : nmdb.candidate_nodes()) {
    const double spare = residual_spare(v, booked);
    if (best == graph::kInvalidNode || spare > best_spare) {
      best = v;
      best_spare = spare;
    }
  }
  if (best == graph::kInvalidNode) return reject();
  const double needed = body.amount * body.platform_factor /
                        nmdb.platform_factor(best);
  if (best_spare < needed) return reject();

  const std::uint64_t request_id = manager_.adopt_external_offload(
      body.busy, best, body.amount, body.agents);
  adopted_[{body.shard, body.delegation_id}] = request_id;
  wire::DelegateReplyBody reply;
  reply.shard = config_.shard;
  reply.epoch = epoch_;
  reply.delegation_id = body.delegation_id;
  reply.granted = true;
  reply.destination = best;
  reply.amount = body.amount;
  send_to_endpoint(federation_endpoint(body.shard),
                   wire::delegate_reply_frame(
                       {}, federation_endpoint(body.shard), reply));
  metrics_.delegations_granted->inc();
  ++stats_.delegations_granted;
}

void FederatedManager::on_delegate_reply(const wire::DelegateReplyBody& body) {
  auto it = pending_.find(body.delegation_id);
  if (it == pending_.end()) return;  // expired or superseded; see DESIGN §16
  const PendingDelegation pending = it->second;
  pending_.erase(it);
  if (!body.granted) {
    ++stats_.delegations_refused;
    return;
  }
  manager_.create_delegated_offload(pending.busy, body.destination,
                                    body.amount, pending.agents);
  metrics_.delegations_confirmed->inc();
  ++stats_.delegations_confirmed;
}

void FederatedManager::on_handoff(const wire::DomainHandoffBody& body) {
  // The fence has recorded the new epoch: nothing from the superseded
  // primary can pass anymore. Unanswered delegation requests to that domain
  // died with it — forget them (the carried reservation evaporates with the
  // next digest from the new primary).
  for (auto it = pending_.begin(); it != pending_.end();)
    if (it->second.shard == body.domain)
      it = pending_.erase(it);
    else
      ++it;
  // Delegations we adopted FROM that domain: the new primary re-solves from
  // scratch and re-delegates residual excess, so drop the bookkeeping to
  // un-book the capacity (drop_offload sends nothing — agents the busy
  // client already transferred keep running on the destination until its
  // own shard releases or re-plans them; no placement is lost).
  for (auto it = adopted_.begin(); it != adopted_.end();)
    if (it->first.first == body.domain) {
      manager_.drop_offload(it->second);
      it = adopted_.erase(it);
    } else {
      ++it;
    }
}

void FederatedManager::become_primary() {
  if (!config_.standby) return;
  config_.standby = false;
  // Fence out everything the dead primary ever sent: our epoch must exceed
  // the highest epoch any peer could have recorded for this shard.
  auto it = peer_epochs_.find(config_.shard);
  const std::uint64_t primary_epoch = it == peer_epochs_.end() ? 0 : it->second;
  epoch_ = std::max(epoch_, primary_epoch) + 1;
  metrics_.epoch->set(static_cast<double>(epoch_));
  metrics_.takeovers->inc();
  ++stats_.takeovers;
  manager_.start();
  send_hello();
  wire::DomainHandoffBody handoff;
  handoff.domain = config_.shard;
  handoff.epoch = epoch_;
  handoff.endpoint = federation_endpoint(config_.shard);
  broadcast([&](const std::string& to) {
    return wire::domain_handoff_frame({}, to, handoff);
  });
  start_primary_tasks();
}

const wire::CapacityDigestBody* FederatedManager::digest_of(
    std::uint32_t shard) const {
  auto it = digests_.find(shard);
  return it == digests_.end() ? nullptr : &it->second.body;
}

std::uint64_t FederatedManager::peer_epoch(std::uint32_t shard) const {
  auto it = peer_epochs_.find(shard);
  return it == peer_epochs_.end() ? 0 : it->second;
}

bool FederatedManager::primary_silent() const {
  if (!config_.standby || !started_) return false;
  const sim::TimeMs since = std::max(last_primary_activity_, started_at_);
  return sim_->now() - since > config_.primary_silence_timeout_ms;
}

}  // namespace dust::federation
