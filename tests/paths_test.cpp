#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/topology.hpp"
#include "util/rng.hpp"

namespace dust::graph {
namespace {

Graph diamond() {
  // 0-1, 0-2, 1-3, 2-3 plus the chord 1-2.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(1, 2);
  return g;
}

TEST(BfsHops, LineGraph) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto dist = bfs_hops(g, 0);
  EXPECT_EQ(dist, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(BfsHops, UnreachableMarked) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_hops(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(BfsHops, FatTreeDiameter) {
  const FatTree ft(4);
  // Edge switches in different pods are exactly 4 hops apart
  // (edge-agg-core-agg-edge).
  const auto dist = bfs_hops(ft.graph(), ft.edge_switch(0, 0));
  EXPECT_EQ(dist[ft.edge_switch(1, 0)], 4u);
  EXPECT_EQ(dist[ft.edge_switch(0, 1)], 2u);  // same pod via aggregation
  EXPECT_EQ(dist[ft.aggregation(0, 0)], 1u);
  std::vector<std::uint32_t> into(2, 7u);  // stale contents are overwritten
  bfs_hops_into(ft.graph(), ft.edge_switch(0, 0), into);
  EXPECT_EQ(into, dist);
}

TEST(BfsHops, InvalidSourceThrows) {
  Graph g(2);
  EXPECT_THROW(bfs_hops(g, 5), std::out_of_range);
}

TEST(Dijkstra, PrefersCheapLongPath) {
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  const EdgeId hop1 = g.add_edge(0, 1);
  const EdgeId hop2 = g.add_edge(1, 2);
  std::vector<double> cost(3);
  cost[direct] = 10.0;
  cost[hop1] = 1.0;
  cost[hop2] = 2.0;
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_DOUBLE_EQ(tree.distance[2], 3.0);
  const Path path = tree.extract(g, 0, 2);
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(path.hops(), 2u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1);
  std::vector<double> cost(1, 1.0);
  (void)e;
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_EQ(tree.distance[2], kInfiniteCost);
  EXPECT_TRUE(tree.extract(g, 0, 2).nodes.empty());
}

TEST(Dijkstra, NegativeCostThrows) {
  Graph g(2);
  g.add_edge(0, 1);
  std::vector<double> cost{-1.0};
  EXPECT_THROW(dijkstra(g, 0, cost), std::invalid_argument);
}

TEST(Dijkstra, CostSizeMismatchThrows) {
  Graph g(2);
  g.add_edge(0, 1);
  std::vector<double> cost;
  EXPECT_THROW(dijkstra(g, 0, cost), std::invalid_argument);
}

TEST(PathCost, SumsEdgeCosts) {
  Graph g = diamond();
  std::vector<double> cost{1, 2, 4, 8, 16};
  const auto paths = enumerate_simple_paths(g, 0, 3, 0);
  for (const Path& p : paths) {
    double expected = 0;
    for (EdgeId e : p.edges) expected += cost[e];
    EXPECT_DOUBLE_EQ(p.cost(cost), expected);
  }
}

TEST(Enumerate, DiamondAllPaths) {
  Graph g = diamond();
  const auto paths = enumerate_simple_paths(g, 0, 3, 0);
  // 0-1-3, 0-2-3, 0-1-2-3, 0-2-1-3.
  EXPECT_EQ(paths.size(), 4u);
  std::set<std::vector<NodeId>> node_seqs;
  for (const Path& p : paths) {
    EXPECT_EQ(p.source(), 0u);
    EXPECT_EQ(p.destination(), 3u);
    EXPECT_EQ(p.nodes.size(), p.edges.size() + 1);
    node_seqs.insert(p.nodes);
  }
  EXPECT_EQ(node_seqs.size(), 4u);  // all distinct
}

TEST(Enumerate, HopBoundFilters) {
  Graph g = diamond();
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 2).size(), 2u);
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 1).size(), 0u);
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 3).size(), 4u);
}

TEST(Enumerate, MaxPathsCapStopsEarly) {
  Graph g = diamond();
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 0, 2).size(), 2u);
}

TEST(Enumerate, SimplePathsNeverRevisit) {
  Graph g = diamond();
  for (const Path& p : enumerate_simple_paths(g, 0, 3, 0)) {
    std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(seen.size(), p.nodes.size());
  }
}

TEST(CountPaths, MatchesEnumeration) {
  Graph g = diamond();
  EXPECT_EQ(count_simple_paths(g, 0, 3, 0), 4u);
  EXPECT_EQ(count_simple_paths(g, 0, 3, 2), 2u);
}

TEST(CountPaths, FatTreeInterPod) {
  const FatTree ft(4);
  // Between edge switches in different pods, the 4-hop paths go via one of
  // the 2 aggregations and then one of its 2 cores: 4 paths.
  EXPECT_EQ(count_simple_paths(ft.graph(), ft.edge_switch(0, 0),
                               ft.edge_switch(1, 0), 4),
            4u);
  // Same pod, 2 hops: one per aggregation.
  EXPECT_EQ(count_simple_paths(ft.graph(), ft.edge_switch(0, 0),
                               ft.edge_switch(0, 1), 2),
            2u);
}

TEST(ForEachSimplePath, VisitsMultipleTargets) {
  Graph g = diamond();
  std::set<NodeId> targets{1, 2};
  std::size_t count = 0;
  for_each_simple_path(
      g, 0, [&targets](NodeId v) { return targets.count(v) > 0; }, 2,
      [&count](const Path&) {
        ++count;
        return true;
      });
  // To node 1: {0-1}, {0-2-1}; to node 2: {0-2}, {0-1-2}.
  EXPECT_EQ(count, 4u);
}

TEST(ForEachSimplePath, CallbackCanAbort) {
  Graph g = diamond();
  std::size_t count = 0;
  for_each_simple_path(
      g, 0, [](NodeId) { return true; }, 0,
      [&count](const Path&) {
        ++count;
        return count < 3;
      });
  EXPECT_EQ(count, 3u);
}

TEST(HopBoundedMinCost, MatchesEnumerationOnDiamond) {
  Graph g = diamond();
  std::vector<double> cost{1, 5, 1, 1, 1};
  for (std::uint32_t bound : {1u, 2u, 3u, 0u}) {
    const auto dp = hop_bounded_min_cost(g, 0, cost, bound);
    for (NodeId v = 1; v < 4; ++v) {
      const auto paths = enumerate_simple_paths(g, 0, v, bound);
      double best = kInfiniteCost;
      for (const Path& p : paths) best = std::min(best, p.cost(cost));
      EXPECT_DOUBLE_EQ(dp[v], best) << "node " << v << " bound " << bound;
    }
  }
}

TEST(HopBoundedMinCost, ZeroMeansUnbounded) {
  Graph g(5);
  std::vector<double> cost;
  for (int i = 0; i < 4; ++i) {
    g.add_edge(i, i + 1);
    cost.push_back(1.0);
  }
  const auto dp = hop_bounded_min_cost(g, 0, cost, 0);
  EXPECT_DOUBLE_EQ(dp[4], 4.0);
  const auto bounded = hop_bounded_min_cost(g, 0, cost, 3);
  EXPECT_EQ(bounded[4], kInfiniteCost);
}

class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: the DP evaluator equals exhaustive enumeration for every target
// and hop bound (this underpins the paper-faithful vs. fast Trmin claim).
TEST_P(RandomGraphSweep, DpEqualsEnumeration) {
  util::Rng rng(GetParam());
  const Graph g = make_random_connected(9, 8, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.1, 10.0);
  for (std::uint32_t bound : {1u, 2u, 3u, 5u, 0u}) {
    const auto dp = hop_bounded_min_cost(g, 0, cost, bound);
    for (NodeId v = 1; v < g.node_count(); ++v) {
      double best = kInfiniteCost;
      for (const Path& p : enumerate_simple_paths(g, 0, v, bound))
        best = std::min(best, p.cost(cost));
      if (best == kInfiniteCost)
        EXPECT_EQ(dp[v], kInfiniteCost);
      else
        EXPECT_NEAR(dp[v], best, 1e-9);
    }
  }
}

// Property: Dijkstra equals unbounded DP.
TEST_P(RandomGraphSweep, DijkstraEqualsUnboundedDp) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  const Graph g = make_random_connected(30, 40, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.1, 10.0);
  const ShortestPathTree tree = dijkstra(g, 3, cost);
  const auto dp = hop_bounded_min_cost(g, 3, cost, 0);
  for (NodeId v = 0; v < g.node_count(); ++v)
    EXPECT_NEAR(tree.distance[v], dp[v], 1e-9);
  std::vector<double> into(1, -1.0);  // stale contents are overwritten
  dijkstra_distances_into(g, 3, cost, into);
  EXPECT_EQ(into, tree.distance);  // bit-identical
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(KShortest, OrderedDistinctLoopless) {
  Graph g = diamond();
  std::vector<double> cost{1, 2, 4, 8, 16};
  const auto paths = k_shortest_paths(g, 0, 3, cost, 10);
  EXPECT_EQ(paths.size(), 4u);  // only 4 simple paths exist
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i - 1].cost(cost), paths[i].cost(cost));
  std::set<std::vector<NodeId>> distinct;
  for (const Path& p : paths) {
    distinct.insert(p.nodes);
    std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(seen.size(), p.nodes.size()) << "loop found";
  }
  EXPECT_EQ(distinct.size(), paths.size());
}

TEST(KShortest, FirstMatchesDijkstra) {
  util::Rng rng(77);
  const Graph g = make_random_connected(15, 20, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.5, 5.0);
  const auto paths = k_shortest_paths(g, 0, 14, cost, 3);
  ASSERT_FALSE(paths.empty());
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_NEAR(paths[0].cost(cost), tree.distance[14], 1e-9);
}

TEST(KShortest, KZeroEmpty) {
  Graph g = diamond();
  std::vector<double> cost(5, 1.0);
  EXPECT_TRUE(k_shortest_paths(g, 0, 3, cost, 0).empty());
}

TEST(KShortest, DisconnectedEmpty) {
  Graph g(3);
  g.add_edge(0, 1);
  std::vector<double> cost{1.0};
  EXPECT_TRUE(k_shortest_paths(g, 0, 2, cost, 5).empty());
}

TEST(KShortest, MatchesEnumerationRanking) {
  util::Rng rng(88);
  const Graph g = make_random_connected(8, 6, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.5, 5.0);
  const NodeId dst = 7;
  auto all = enumerate_simple_paths(g, 0, dst, 0);
  std::sort(all.begin(), all.end(), [&cost](const Path& a, const Path& b) {
    return a.cost(cost) < b.cost(cost);
  });
  const std::size_t k = std::min<std::size_t>(4, all.size());
  const auto top = k_shortest_paths(g, 0, dst, cost, k);
  ASSERT_EQ(top.size(), k);
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_NEAR(top[i].cost(cost), all[i].cost(cost), 1e-9);
}

}  // namespace
}  // namespace dust::graph
