// FederatedManager behaviour over the in-process simulator (DESIGN.md §16):
// cross-domain delegation end to end (digest -> request -> grant -> offload
// -> agent transfer -> keepalives to the granting shard), rejection when a
// neighbor has no spare, epoch fencing, and the standby takeover protocol.
//
// Shards are wired directly to each other through set_peer_sender /
// handle_peer_frame — the daemon runtime routes the same frames through
// one wire::SocketTransport frame endpoint per shard instead; the state
// machines under test are identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "federation/federated_manager.hpp"
#include "federation/partition.hpp"
#include "graph/topology.hpp"
#include "net/network_state.hpp"

namespace dust::federation {
namespace {

/// N shards over a ring, all on one simulator. Every shard's inner manager
/// listens on its own endpoint of the shared transport; federation frames
/// hop directly between FederatedManager objects via a router that matches
/// frame.to against each shard's federation endpoint.
struct FedHarness {
  sim::Simulator sim;
  sim::Transport transport{sim, util::Rng(7)};
  DomainPartition partition;
  std::vector<std::unique_ptr<FederatedManager>> shards;
  std::vector<std::unique_ptr<core::DustClient>> clients;

  FedHarness(std::uint32_t nodes, std::size_t shard_count,
             double initial_util = 70.0) {
    net::NetworkState state(graph::make_ring(nodes));
    for (graph::NodeId v = 0; v < nodes; ++v) {
      state.set_node_utilization(v, initial_util);
      state.set_monitoring_data_mb(v, 10.0);
    }
    partition = partition_balanced(state.graph(), shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      shards.push_back(std::make_unique<FederatedManager>(
          sim, transport, core::Nmdb(state, core::Thresholds{}), partition,
          fast_config(s)));
      shards.back()->set_peer_sender(
          [this](wire::Frame&& frame) { return route(std::move(frame)); });
    }
    for (std::uint32_t s = 0; s < shard_count; ++s)
      for (std::uint32_t t = 0; t < shard_count; ++t)
        if (s != t) shards[s]->add_peer(t);
    for (graph::NodeId v = 0; v < nodes; ++v) {
      clients.push_back(std::make_unique<core::DustClient>(
          sim, transport, v,
          core::ClientConfig{
              .keepalive_interval_ms = 500,
              .manager = shard_manager_endpoint(partition.shard_of(v))},
          util::Rng(100 + v)));
      clients.back()->set_reported_state(initial_util, 10.0, 10);
    }
  }

  static FederatedManagerConfig fast_config(std::uint32_t shard) {
    FederatedManagerConfig config;
    config.shard = shard;
    config.digest_period_ms = 1000;
    config.digest_stale_ms = 5000;
    config.primary_silence_timeout_ms = 3000;
    config.manager.update_interval_ms = 500;
    config.manager.placement_period_ms = 2000;  // federated cycle period
    config.manager.keepalive_timeout_ms = 2000;
    config.manager.keepalive_check_period_ms = 500;
    return config;
  }

  /// Deliver a federation frame to whichever shard (or extra receiver)
  /// owns frame.to. Synchronous: the reply conversation completes within
  /// the sending shard's cycle, like a same-poll socket round trip.
  bool route(wire::Frame&& frame) {
    for (auto& shard : shards) {
      const std::string primary_ep = federation_endpoint(shard->shard());
      const std::string standby_ep =
          standby_federation_endpoint(shard->shard());
      if (frame.to == (shard->primary() ? primary_ep : standby_ep)) {
        shard->handle_peer_frame(std::move(frame));
        return true;
      }
    }
    lost_frames.push_back(std::move(frame));
    return false;
  }

  void start_all() {
    for (auto& client : clients) client->start();
    for (auto& shard : shards) shard->start();
  }

  std::vector<wire::Frame> lost_frames;
};

TEST(Federation, DelegationMovesOverflowAcrossShards) {
  FedHarness h(6, 2);
  h.start_all();
  // Shard 0's domain: one hot node, everyone else neutral (no local spare).
  // Shard 1's domain: all comfortable candidates.
  const std::uint32_t origin = 0, granting = 1;
  const graph::NodeId busy = h.partition.members[origin].front();
  for (graph::NodeId v : h.partition.members[origin])
    h.clients[v]->set_reported_state(v == busy ? 95.0 : 70.0, 10.0, 10);
  for (graph::NodeId v : h.partition.members[granting])
    h.clients[v]->set_reported_state(30.0, 5.0, 10);
  h.sim.run_until(10000);

  const FederationStats& origin_stats = h.shards[origin]->stats();
  const FederationStats& granting_stats = h.shards[granting]->stats();
  EXPECT_GT(origin_stats.digests_received, 0u);
  ASSERT_GE(origin_stats.delegations_requested, 1u);
  EXPECT_GE(granting_stats.delegations_granted, 1u);
  ASSERT_GE(origin_stats.delegations_confirmed, 1u);

  // Origin bookkeeping: an offload whose destination it does not supervise.
  const auto origin_offloads = h.shards[origin]->manager().active_offloads();
  ASSERT_FALSE(origin_offloads.empty());
  const core::ActiveOffload& delegated = origin_offloads.front();
  EXPECT_EQ(delegated.busy, busy);
  EXPECT_TRUE(delegated.external_destination);
  EXPECT_FALSE(h.shards[origin]->in_domain(delegated.destination));

  // Granting bookkeeping: the adopted twin, supervised locally.
  const auto granting_offloads =
      h.shards[granting]->manager().active_offloads();
  ASSERT_FALSE(granting_offloads.empty());
  EXPECT_TRUE(granting_offloads.front().external_origin);
  EXPECT_EQ(granting_offloads.front().destination, delegated.destination);

  // The agents actually moved: busy client sheds, the foreign destination
  // hosts, and its keepalives satisfy the granting shard's supervision.
  EXPECT_GT(h.clients[busy]->offloaded_agent_count(), 0u);
  EXPECT_GT(h.clients[delegated.destination]->hosted_agent_count(), 0u);
  EXPECT_GT(h.clients[delegated.destination]->keepalives_sent(), 0u);
  EXPECT_EQ(h.shards[granting]->manager().keepalive_failures(), 0u);
}

TEST(Federation, DelegationRejectedWhenNeighborHasNoSpare) {
  FedHarness h(6, 2);
  h.start_all();
  // Both domains hot: shard 0 has an overflow node, shard 1 nothing to give.
  const graph::NodeId busy = h.partition.members[0].front();
  for (auto& client : h.clients) client->set_reported_state(75.0, 10.0, 10);
  h.clients[busy]->set_reported_state(95.0, 10.0, 10);
  h.sim.run_until(10000);

  EXPECT_EQ(h.shards[0]->stats().delegations_confirmed, 0u);
  EXPECT_EQ(h.shards[1]->stats().delegations_granted, 0u);
  // Either shard 1's digests advertised no spare (no request worth
  // sending), or a request went out and was rejected — never a grant.
  if (h.shards[0]->stats().delegations_requested > 0) {
    EXPECT_GE(h.shards[0]->stats().delegations_refused, 1u);
  }
  EXPECT_TRUE(h.shards[0]->manager().active_offloads().empty());
}

TEST(Federation, StaleEpochFramesAreRejected) {
  FedHarness h(6, 2);
  h.start_all();
  h.sim.run_until(3000);
  ASSERT_GT(h.shards[0]->peer_epoch(1), 0u);

  // A frame from shard 1 claiming a *newer* epoch advances the fence...
  wire::CapacityDigestBody body;
  body.shard = 1;
  body.epoch = 5;
  body.seq = 1000;
  body.spare = 42.0;
  h.shards[0]->handle_peer_frame(
      wire::capacity_digest_frame("test", federation_endpoint(0), body));
  EXPECT_EQ(h.shards[0]->peer_epoch(1), 5u);
  ASSERT_NE(h.shards[0]->digest_of(1), nullptr);
  EXPECT_DOUBLE_EQ(h.shards[0]->digest_of(1)->spare, 42.0);

  // ...and everything below it — including the live primary's real epoch —
  // is now fenced out and counted, leaving state untouched.
  const std::uint64_t stale_before = h.shards[0]->stats().stale_frames_rejected;
  body.epoch = 4;
  body.seq = 2000;
  body.spare = 7.0;
  h.shards[0]->handle_peer_frame(
      wire::capacity_digest_frame("test", federation_endpoint(0), body));
  EXPECT_EQ(h.shards[0]->stats().stale_frames_rejected, stale_before + 1);
  EXPECT_DOUBLE_EQ(h.shards[0]->digest_of(1)->spare, 42.0);
  EXPECT_EQ(h.shards[0]->peer_epoch(1), 5u);
}

TEST(Federation, StandbyDetectsSilenceAndTakesOverWithHigherEpoch) {
  FedHarness h(6, 2);
  // The standby twin of shard 0 lives on its own transport (its inner
  // manager binds the same control endpoint the primary owns — exactly the
  // daemon deployment, where the standby is a separate process).
  sim::Transport standby_transport{h.sim, util::Rng(99)};
  net::NetworkState state(graph::make_ring(6));
  for (graph::NodeId v = 0; v < 6; ++v) state.set_node_utilization(v, 70.0);
  FederatedManagerConfig standby_config = FedHarness::fast_config(0);
  standby_config.standby = true;
  FederatedManager standby(h.sim, standby_transport,
                           core::Nmdb(state, core::Thresholds{}), h.partition,
                           standby_config);
  standby.set_peer_sender(
      [&h](wire::Frame&& frame) { return h.route(std::move(frame)); });
  standby.add_peer(1);
  // The primary copies its federation traffic to the standby; shard 1 also
  // lets it observe cross-domain frames.
  h.shards[0]->add_observer(standby_federation_endpoint(0));
  auto route_with_standby = [&](wire::Frame&& frame) {
    if (frame.to == standby_federation_endpoint(0)) {
      standby.handle_peer_frame(std::move(frame));
      return true;
    }
    return h.route(std::move(frame));
  };
  for (auto& shard : h.shards) shard->set_peer_sender(route_with_standby);

  h.start_all();
  standby.start();
  h.sim.run_until(4000);
  // Primary alive: its hellos/digests keep reaching the standby.
  EXPECT_FALSE(standby.primary_silent());
  EXPECT_EQ(standby.stats().takeovers, 0u);
  const std::uint64_t primary_epoch = h.shards[0]->epoch();
  ASSERT_GT(standby.peer_epoch(0), 0u);

  // Primary dies silently. After the silence timeout the standby notices.
  h.shards[0]->stop();
  h.sim.run_until(4000 + standby_config.primary_silence_timeout_ms + 1500);
  ASSERT_TRUE(standby.primary_silent());

  standby.become_primary();
  EXPECT_TRUE(standby.primary());
  EXPECT_EQ(standby.stats().takeovers, 1u);
  EXPECT_GT(standby.epoch(), primary_epoch);

  // The handoff broadcast fenced shard 1: a leftover frame from the dead
  // primary's epoch is rejected, the new primary's accepted.
  const std::uint64_t stale_before = h.shards[1]->stats().stale_frames_rejected;
  wire::CapacityDigestBody zombie;
  zombie.shard = 0;
  zombie.epoch = primary_epoch;
  zombie.seq = 10000;
  h.shards[1]->handle_peer_frame(
      wire::capacity_digest_frame("test", federation_endpoint(1), zombie));
  EXPECT_EQ(h.shards[1]->stats().stale_frames_rejected, stale_before + 1);
  EXPECT_EQ(h.shards[1]->peer_epoch(0), standby.epoch());
  h.sim.run_until(h.sim.now() + 2000);
  EXPECT_GT(h.shards[1]->digest_of(0)->epoch, primary_epoch);
}

TEST(Federation, HandoffDropsAdoptedBookkeepingButKeepsPlacements) {
  FedHarness h(6, 2);
  h.start_all();
  const graph::NodeId busy = h.partition.members[0].front();
  for (graph::NodeId v : h.partition.members[0])
    h.clients[v]->set_reported_state(v == busy ? 95.0 : 70.0, 10.0, 10);
  for (graph::NodeId v : h.partition.members[1])
    h.clients[v]->set_reported_state(30.0, 5.0, 10);
  h.sim.run_until(10000);
  ASSERT_GE(h.shards[0]->stats().delegations_confirmed, 1u);
  const graph::NodeId destination =
      h.shards[0]->manager().active_offloads().front().destination;
  ASSERT_GT(h.clients[destination]->hosted_agent_count(), 0u);
  ASSERT_FALSE(h.shards[1]->manager().active_offloads().empty());

  // Shard 0 fails over: its new primary broadcasts a DomainHandoff at a
  // higher epoch. Shard 1 un-books the adopted delegation (the new primary
  // re-solves from scratch) without touching the clients: the transferred
  // agents keep running on the destination.
  wire::DomainHandoffBody handoff;
  handoff.domain = 0;
  handoff.epoch = h.shards[0]->epoch() + 1;
  handoff.endpoint = federation_endpoint(0);
  h.shards[1]->handle_peer_frame(
      wire::domain_handoff_frame("test", federation_endpoint(1), handoff));
  EXPECT_TRUE(h.shards[1]->manager().active_offloads().empty());
  EXPECT_GT(h.clients[destination]->hosted_agent_count(), 0u);
  EXPECT_GT(h.clients[busy]->offloaded_agent_count(), 0u);
}

}  // namespace
}  // namespace dust::federation
