#include "net/response_time.hpp"

#include <gtest/gtest.h>

#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "util/rng.hpp"

namespace dust::net {
namespace {

// The paper's illustrative example (Fig. 4): a small multi-path topology with
// one busy node and candidate destinations reached over distinct routes.
NetworkState fig4_like() {
  // 0=S1 (busy), 1=S2 (candidate), 5=S6 (candidate), others relay.
  graph::Graph g(7);
  g.add_edge(0, 3);  // e1: S1-S4
  g.add_edge(3, 1);  // e2: S4-S2
  g.add_edge(3, 4);  // e3: S4-S5
  g.add_edge(4, 1);  // e4: S5-S2
  g.add_edge(1, 2);  // e5: S2-S3
  g.add_edge(2, 6);  // e6: S3-S7
  g.add_edge(3, 5);  // e7: S4-S6
  NetworkState net(std::move(g));
  for (graph::EdgeId e = 0; e < net.edge_count(); ++e)
    net.set_link(e, LinkState{1000.0, 1.0});  // Lu = 1000 Mbps everywhere
  return net;
}

// Reference Trmin row: graph::hop_bounded_min_cost (the dense hop-bounded
// DP) times the data volume, scaled the way the evaluators scale it.
std::vector<double> dp_reference(const NetworkState& net, graph::NodeId source,
                                 double data_mb, std::uint32_t max_hops) {
  std::vector<double> row = graph::hop_bounded_min_cost(
      net.graph(), source, net.inverse_bandwidth_costs(), max_hops);
  for (double& t : row)
    if (t != graph::kInfiniteCost) t *= data_mb;
  return row;
}

TEST(PathResponseTime, SumsPerEdge) {
  NetworkState net = fig4_like();
  graph::Path path;
  path.nodes = {0, 3, 1};
  path.edges = {0, 1};
  // 100 Mb over two 1000 Mbps links: 0.1 s + 0.1 s.
  EXPECT_NEAR(path_response_time(net, path, 100.0), 0.2, 1e-12);
}

TEST(MinResponseTimes, EnumerateFindsShortestRoute) {
  NetworkState net = fig4_like();
  ResponseTimeOptions opt;
  opt.mode = EvaluatorMode::kEnumerate;
  const auto result = min_response_times(net, 0, 100.0, opt);
  // S1 -> S2 best route is e1-e2 (2 hops): 0.2 s.
  EXPECT_NEAR(result.trmin_seconds[1], 0.2, 1e-12);
  // S1 -> S6 via e1-e7: 0.2 s.
  EXPECT_NEAR(result.trmin_seconds[5], 0.2, 1e-12);
  // Source itself is 0.
  EXPECT_DOUBLE_EQ(result.trmin_seconds[0], 0.0);
  EXPECT_GT(result.work, 0u);
}

TEST(MinResponseTimes, DpAgreesWithEnumerate) {
  NetworkState net = fig4_like();
  for (std::uint32_t hops : {1u, 2u, 3u, 0u}) {
    ResponseTimeOptions enumerate_opt{hops, EvaluatorMode::kEnumerate, 0};
    const auto a = min_response_times(net, 0, 50.0, enumerate_opt);
    const std::vector<double> b = dp_reference(net, 0, 50.0, hops);
    for (graph::NodeId v = 0; v < net.node_count(); ++v) {
      if (a.trmin_seconds[v] == graph::kInfiniteCost)
        EXPECT_EQ(b[v], graph::kInfiniteCost);
      else
        EXPECT_NEAR(a.trmin_seconds[v], b[v], 1e-9);
    }
  }
}

// The shared-frontier sweep must produce *bit-identical* labels to the dense
// hop-bounded DP (same sums in the same order; the sparse frontier only skips
// dominated expansions), and match the enumerator wherever paths are simple.
TEST(MinResponseTimes, SharedFrontierBitIdenticalToDp) {
  NetworkState net = fig4_like();
  for (std::uint32_t hops : {1u, 2u, 3u, 0u}) {
    ResponseTimeOptions sf_opt{hops, EvaluatorMode::kSharedFrontier, 0};
    for (graph::NodeId source = 0; source < net.node_count(); ++source) {
      const std::vector<double> a = dp_reference(net, source, 50.0, hops);
      const auto b = min_response_times(net, source, 50.0, sf_opt);
      for (graph::NodeId v = 0; v < net.node_count(); ++v)
        EXPECT_EQ(a[v], b.trmin_seconds[v])
            << "source " << source << " node " << v << " hops " << hops;
    }
  }
}

// Shared-frontier rows record the winning paths' edge support, like the
// enumerator: worsening an unused link must not change the row, worsening a
// used one must.
TEST(MinResponseTimes, SharedFrontierRecordsUsedEdges) {
  NetworkState net = fig4_like();
  ResponseTimeOptions opt{0, EvaluatorMode::kSharedFrontier, 0};
  const auto result = min_response_times(net, 0, 100.0, opt);
  ASSERT_FALSE(result.used_edges.empty());
  // e1 (S1-S4) carries every route from S1; e4 (S5-S2) is on no winning
  // route (e1-e2 dominates e1-e3-e4).
  EXPECT_TRUE(result.used_edges[0] & (std::uint64_t{1} << 0));
  EXPECT_FALSE(result.used_edges[0] & (std::uint64_t{1} << 3));
}

TEST(MinResponseTimes, HopBoundExcludesFarNodes) {
  NetworkState net = fig4_like();
  ResponseTimeOptions opt{1, EvaluatorMode::kEnumerate, 0};
  const auto result = min_response_times(net, 0, 100.0, opt);
  EXPECT_NE(result.trmin_seconds[3], graph::kInfiniteCost);  // neighbour
  EXPECT_EQ(result.trmin_seconds[1], graph::kInfiniteCost);  // 2 hops away
}

TEST(MinResponseTimes, SlowerLinkRaisesCost) {
  NetworkState net = fig4_like();
  ResponseTimeOptions opt;
  const double before = min_response_times(net, 0, 100.0, opt).trmin_seconds[1];
  net.set_link(1, LinkState{1000.0, 0.1});  // e2 now 100 Mbps
  const double after = min_response_times(net, 0, 100.0, opt).trmin_seconds[1];
  EXPECT_GT(after, before);
  // Best route becomes e1-e3-e4 (3 hops x 0.1 s).
  EXPECT_NEAR(after, 0.3, 1e-12);
}

TEST(MinResponseTimes, DataVolumeScalesLinearly) {
  NetworkState net = fig4_like();
  ResponseTimeOptions opt;
  const auto r1 = min_response_times(net, 0, 10.0, opt);
  const auto r2 = min_response_times(net, 0, 30.0, opt);
  for (graph::NodeId v = 1; v < net.node_count(); ++v)
    if (r1.trmin_seconds[v] != graph::kInfiniteCost) {
      EXPECT_NEAR(r2.trmin_seconds[v], 3.0 * r1.trmin_seconds[v], 1e-9);
    }
}

TEST(MinResponseTimes, TruncationFlagged) {
  NetworkState net = fig4_like();
  ResponseTimeOptions opt;
  opt.mode = EvaluatorMode::kEnumerate;
  opt.max_paths_per_source = 2;
  const auto result = min_response_times(net, 0, 10.0, opt);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.work, 2u);
}

class ResponseTimeRandomSweep : public ::testing::TestWithParam<std::uint64_t> {
};

// Property: on random networks the enumerator agrees with the hop-bounded DP
// for every hop bound.
TEST_P(ResponseTimeRandomSweep, EvaluatorsAgree) {
  util::Rng rng(GetParam());
  NetworkState net = make_random_state(
      graph::make_random_connected(10, 8, rng), LinkProfile{}, NodeLoadProfile{},
      rng);
  for (std::uint32_t hops : {2u, 4u, 0u}) {
    ResponseTimeOptions enum_opt{hops, EvaluatorMode::kEnumerate, 0};
    const auto a = min_response_times(net, 0, 42.0, enum_opt);
    const std::vector<double> b = dp_reference(net, 0, 42.0, hops);
    for (graph::NodeId v = 0; v < net.node_count(); ++v) {
      if (a.trmin_seconds[v] == graph::kInfiniteCost)
        EXPECT_EQ(b[v], graph::kInfiniteCost) << "node " << v;
      else
        EXPECT_NEAR(a.trmin_seconds[v], b[v], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseTimeRandomSweep,
                         ::testing::Values(3u, 14u, 159u, 2653u));

TEST(MinResponseTimes, FatTreeEnumerationWorkGrowsWithMaxHop) {
  // The paper-faithful evaluator's work is what Figs 8/10 measure: it must
  // grow (strictly, on a fat-tree) as max-hop increases.
  util::Rng rng(7);
  NetworkState net = make_random_state(graph::FatTree(4).graph(), LinkProfile{},
                                       NodeLoadProfile{}, rng);
  ResponseTimeOptions opt;
  opt.mode = EvaluatorMode::kEnumerate;
  std::size_t previous = 0;
  for (std::uint32_t hops : {2u, 4u, 6u, 8u}) {
    opt.max_hops = hops;
    const auto result = min_response_times(net, 0, 10.0, opt);
    EXPECT_GT(result.work, previous);
    previous = result.work;
  }
}

}  // namespace
}  // namespace dust::net
