// apply_assignments (what-if operator) plus targeted coverage of manager
// bookkeeping paths and the transport registration-token semantics.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "core/optimizer.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"

namespace dust::core {
namespace {

TEST(WhatIf, MovesUtilizationBothWays) {
  net::NetworkState state(graph::make_star(1));
  state.set_node_utilization(0, 90.0);
  state.set_node_utilization(1, 40.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  const Assignment a{0, 1, 10.0, 0.1};
  apply_assignments(nmdb, std::vector<Assignment>{a});
  EXPECT_DOUBLE_EQ(nmdb.network().node_utilization(0), 80.0);
  EXPECT_DOUBLE_EQ(nmdb.network().node_utilization(1), 50.0);
}

TEST(WhatIf, PlatformFactorWeightsArrivingLoad) {
  net::NetworkState state(graph::make_star(1));
  state.set_node_utilization(0, 90.0);
  state.set_node_utilization(1, 40.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  nmdb.set_platform_factor(1, 4.0);  // destination is 4x as capable
  const Assignment a{0, 1, 10.0, 0.1};
  apply_assignments(nmdb, std::vector<Assignment>{a});
  EXPECT_DOUBLE_EQ(nmdb.network().node_utilization(0), 80.0);
  EXPECT_DOUBLE_EQ(nmdb.network().node_utilization(1), 42.5);  // +10/4
}

class WhatIfSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Applying an exact optimal plan leaves no busy nodes and crosses no
// candidate over COmax — the whole point of the model.
TEST_P(WhatIfSweep, OptimalPlanClearsAllOverload) {
  util::Rng rng(GetParam());
  net::NetworkState state = net::make_random_state(
      graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});
  OptimizerOptions options;
  const PlacementResult result = OptimizationEngine(options).run(nmdb);
  if (!result.optimal()) GTEST_SKIP();
  const auto candidates_before = nmdb.candidate_nodes();
  apply_assignments(nmdb, result.assignments);
  for (graph::NodeId v = 0; v < nmdb.node_count(); ++v)
    EXPECT_LE(nmdb.network().node_utilization(v),
              nmdb.thresholds(v).c_max + 1e-6)
        << "node " << v << " still overloaded";
  for (graph::NodeId o : candidates_before)
    EXPECT_LE(nmdb.network().node_utilization(o),
              nmdb.thresholds(o).co_max + 1e-6)
        << "destination " << o << " overloaded by the plan";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WhatIfSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- targeted manager paths ---

TEST(ManagerBookkeeping, RejectedAckDropsRelationship) {
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  net::NetworkState state(graph::make_star(1));
  state.set_node_utilization(0, 90.0);
  state.set_node_utilization(1, 40.0);
  state.set_monitoring_data_mb(0, 10.0);
  DustManager manager(sim, transport, Nmdb(std::move(state), Thresholds{}),
                      ManagerConfig{});
  manager.run_placement_cycle();
  ASSERT_EQ(manager.active_offload_count(), 1u);
  const std::uint64_t request = manager.active_offloads()[0].request_id;
  // Busy client refuses.
  transport.send(client_endpoint(0), manager_endpoint(),
                 Message{OffloadAckMsg{request, 0, false}});
  sim.run();
  EXPECT_EQ(manager.active_offload_count(), 0u);
  EXPECT_EQ(manager.nmdb().role(1), NodeRole::kOffloadCandidate);  // unhosted
}

TEST(ManagerBookkeeping, TinyAssignmentsFiltered) {
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  net::NetworkState state(graph::make_star(1));
  state.set_node_utilization(0, 80.4);  // Cs = 0.4 < default 1.0 minimum
  state.set_node_utilization(1, 40.0);
  state.set_monitoring_data_mb(0, 10.0);
  DustManager manager(sim, transport, Nmdb(std::move(state), Thresholds{}),
                      ManagerConfig{});
  EXPECT_EQ(manager.run_placement_cycle(), 0u);
  EXPECT_EQ(manager.active_offload_count(), 0u);
}

TEST(ManagerBookkeeping, DuplicatePairNotRecreated) {
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  net::NetworkState state(graph::make_star(1));
  state.set_node_utilization(0, 90.0);
  state.set_node_utilization(1, 40.0);
  state.set_monitoring_data_mb(0, 10.0);
  DustManager manager(sim, transport, Nmdb(std::move(state), Thresholds{}),
                      ManagerConfig{});
  EXPECT_EQ(manager.run_placement_cycle(), 1u);
  // Same NMDB state (no STAT update): the pair exists, nothing new created.
  EXPECT_EQ(manager.run_placement_cycle(), 0u);
  EXPECT_EQ(manager.active_offload_count(), 1u);
}

// --- transport token semantics ---

TEST(TransportTokens, StaleTokenCannotUnregisterSuccessor) {
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  int first_hits = 0, second_hits = 0;
  const std::uint64_t first = transport.register_endpoint(
      "shared", [&first_hits](const sim::Envelope&) { ++first_hits; });
  transport.register_endpoint(
      "shared", [&second_hits](const sim::Envelope&) { ++second_hits; });
  transport.unregister_endpoint("shared", first);  // stale: must be a no-op
  EXPECT_TRUE(transport.has_endpoint("shared"));
  transport.send("x", "shared", 1);
  sim.run();
  EXPECT_EQ(first_hits, 0);
  EXPECT_EQ(second_hits, 1);
}

TEST(TransportTokens, CurrentTokenUnregisters) {
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  const std::uint64_t token =
      transport.register_endpoint("e", [](const sim::Envelope&) {});
  transport.unregister_endpoint("e", token);
  EXPECT_FALSE(transport.has_endpoint("e"));
}

TEST(TransportTokens, ReplacedClientKeepsEndpointAlive) {
  // The destructor-ordering hazard that motivated tokens: constructing a
  // replacement client before the old one is destroyed must leave the new
  // registration intact.
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  auto first = std::make_unique<DustClient>(sim, transport, 7, ClientConfig{},
                                            util::Rng(1));
  first = std::make_unique<DustClient>(sim, transport, 7, ClientConfig{},
                                       util::Rng(2));
  EXPECT_TRUE(transport.has_endpoint(client_endpoint(7)));
}

}  // namespace
}  // namespace dust::core
