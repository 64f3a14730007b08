#include "core/routes.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/optimizer.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"

namespace dust::core {
namespace {

net::NetworkState square_net() {
  // 0-1-3 and 0-2-3: two disjoint 2-hop routes from 0 to 3.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  net::NetworkState state(std::move(g));
  for (graph::EdgeId e = 0; e < state.edge_count(); ++e)
    state.set_link(e, net::LinkState{1000.0, 1.0});
  return state;
}

TEST(Routes, PrimaryAchievesTrmin) {
  net::NetworkState state = square_net();
  state.set_link(0, net::LinkState{1000.0, 0.5});  // make 0-1-3 slower
  state.set_monitoring_data_mb(0, 100.0);
  Assignment a{0, 3, 5.0, 0.0};
  // Trmin via 0-2-3: 0.1 + 0.1 = 0.2 s for 100 Mb.
  a.trmin_seconds = 0.2;
  const auto routes = resolve_routes(state, std::vector<Assignment>{a});
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].primary.nodes, (std::vector<graph::NodeId>{0, 2, 3}));
  EXPECT_NEAR(routes[0].primary_seconds, 0.2, 1e-12);
  EXPECT_NEAR(routes[0].primary_seconds, a.trmin_seconds, 1e-9);
}

TEST(Routes, BackupIsEdgeDisjoint) {
  net::NetworkState state = square_net();
  state.set_monitoring_data_mb(0, 100.0);
  Assignment a{0, 3, 5.0, 0.2};
  RouteOptions options;
  options.with_backup = true;
  const auto routes = resolve_routes(state, std::vector<Assignment>{a}, options);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_TRUE(routes[0].has_backup());
  std::set<graph::EdgeId> primary(routes[0].primary.edges.begin(),
                                  routes[0].primary.edges.end());
  for (graph::EdgeId e : routes[0].backup.edges) EXPECT_EQ(primary.count(e), 0u);
  EXPECT_EQ(routes[0].backup.destination(), 3u);
  EXPECT_GT(routes[0].backup_seconds, 0.0);
}

TEST(Routes, NoBackupOnBridge) {
  // Path graph 0-1-2: only one route, no disjoint backup possible.
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  net::NetworkState state(std::move(g));
  state.set_monitoring_data_mb(0, 10.0);
  Assignment a{0, 2, 1.0, 0.0};
  RouteOptions options;
  options.with_backup = true;
  const auto routes = resolve_routes(state, std::vector<Assignment>{a}, options);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_FALSE(routes[0].has_backup());
  EXPECT_EQ(routes[0].primary.hops(), 2u);
}

TEST(Routes, HopBoundRespected) {
  net::NetworkState state = square_net();
  state.set_monitoring_data_mb(0, 10.0);
  Assignment a{0, 3, 1.0, 0.0};
  RouteOptions options;
  options.max_hops = 1;
  const auto routes = resolve_routes(state, std::vector<Assignment>{a}, options);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0].primary.nodes.empty());  // unreachable in 1 hop
}

class RoutesSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: for real placements, every resolved primary route exists, stays
// within the hop bound, connects the right endpoints, and reproduces the
// assignment's Trmin cost.
TEST_P(RoutesSweep, ResolvedRoutesMatchPlacement) {
  util::Rng rng(GetParam());
  net::NetworkState state = net::make_random_state(
      graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});
  OptimizerOptions opt;
  opt.placement.max_hops = 6;
  opt.allow_partial = true;
  const PlacementResult placement = OptimizationEngine(opt).run(nmdb);
  RouteOptions route_options;
  route_options.max_hops = 6;
  route_options.with_backup = true;
  const auto routes =
      resolve_routes(nmdb.network(), placement.assignments, route_options);
  ASSERT_EQ(routes.size(), placement.assignments.size());
  for (const ResolvedRoute& route : routes) {
    ASSERT_FALSE(route.primary.nodes.empty());
    EXPECT_EQ(route.primary.source(), route.assignment.from);
    EXPECT_EQ(route.primary.destination(), route.assignment.to);
    EXPECT_LE(route.primary.hops(), 6u);
    EXPECT_NEAR(route.primary_seconds, route.assignment.trmin_seconds,
                1e-9 * (1.0 + route.assignment.trmin_seconds));
    // Consecutive path nodes are really adjacent via the stated edge.
    for (std::size_t i = 0; i < route.primary.edges.size(); ++i) {
      const graph::Edge& edge =
          nmdb.network().graph().edge(route.primary.edges[i]);
      const graph::NodeId a = route.primary.nodes[i];
      const graph::NodeId b = route.primary.nodes[i + 1];
      EXPECT_TRUE((edge.a == a && edge.b == b) || (edge.a == b && edge.b == a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutesSweep, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace dust::core
