#include "graph/topology.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dust::graph {
namespace {

// ---- fat-tree: the paper's exact switch/link counts (§V-B) ----

// gtest prints a parameter without operator<< as its raw bytes, and those
// bytes become the ctest test names. A 64-bit k leaves the struct without
// padding, so every byte is initialised and the names are the same each run.
struct FatTreeCounts {
  std::uint64_t k;
  std::size_t nodes;
  std::size_t edges;
};

class FatTreeSweep : public ::testing::TestWithParam<FatTreeCounts> {};

TEST_P(FatTreeSweep, PaperNodeAndEdgeCounts) {
  const FatTreeCounts expected = GetParam();
  const FatTree ft(static_cast<std::uint32_t>(expected.k));
  EXPECT_EQ(ft.graph().node_count(), expected.nodes);
  EXPECT_EQ(ft.graph().edge_count(), expected.edges);
}

TEST_P(FatTreeSweep, IsConnected) {
  const FatTree ft(static_cast<std::uint32_t>(GetParam().k));
  EXPECT_TRUE(ft.graph().connected());
}

TEST_P(FatTreeSweep, LayerPopulations) {
  const std::uint32_t k = static_cast<std::uint32_t>(GetParam().k);
  const FatTree ft(k);
  std::size_t core = 0, agg = 0, edge = 0;
  for (NodeId v = 0; v < ft.graph().node_count(); ++v) {
    switch (ft.layer(v)) {
      case SwitchLayer::kCore: ++core; break;
      case SwitchLayer::kAggregation: ++agg; break;
      case SwitchLayer::kEdge: ++edge; break;
    }
  }
  EXPECT_EQ(core, static_cast<std::size_t>(k / 2) * (k / 2));
  EXPECT_EQ(agg, static_cast<std::size_t>(k) * (k / 2));
  EXPECT_EQ(edge, static_cast<std::size_t>(k) * (k / 2));
}

TEST_P(FatTreeSweep, DegreeInvariants) {
  const std::uint32_t k = static_cast<std::uint32_t>(GetParam().k);
  const FatTree ft(k);
  for (NodeId v = 0; v < ft.graph().node_count(); ++v) {
    switch (ft.layer(v)) {
      case SwitchLayer::kCore:
        EXPECT_EQ(ft.graph().degree(v), k);  // one aggregation per pod
        break;
      case SwitchLayer::kAggregation:
        EXPECT_EQ(ft.graph().degree(v), k);  // k/2 cores + k/2 edges
        break;
      case SwitchLayer::kEdge:
        EXPECT_EQ(ft.graph().degree(v), k / 2);  // aggregations only
        break;
    }
  }
}

// 20/32 (k=4), 80/256 (k=8), 320/2048 (k=16) are quoted in the paper; k=64
// (5120/131072) is checked in the scalability bench instead of here to keep
// unit tests fast.
INSTANTIATE_TEST_SUITE_P(PaperSizes, FatTreeSweep,
                         ::testing::Values(FatTreeCounts{4, 20, 32},
                                           FatTreeCounts{8, 80, 256},
                                           FatTreeCounts{16, 320, 2048},
                                           FatTreeCounts{2, 5, 4},
                                           FatTreeCounts{6, 45, 108}));

TEST(FatTree, RejectsOddOrTinyK) {
  EXPECT_THROW(FatTree(3), std::invalid_argument);
  EXPECT_THROW(FatTree(0), std::invalid_argument);
  EXPECT_THROW(FatTree(1), std::invalid_argument);
}

TEST(FatTree, NodeAccessorsRoundTrip) {
  const FatTree ft(4);
  for (std::uint32_t c = 0; c < ft.core_count(); ++c)
    EXPECT_EQ(ft.layer(ft.core(c)), SwitchLayer::kCore);
  for (std::uint32_t p = 0; p < ft.pod_count(); ++p) {
    for (std::uint32_t i = 0; i < ft.aggregation_per_pod(); ++i) {
      const NodeId agg = ft.aggregation(p, i);
      EXPECT_EQ(ft.layer(agg), SwitchLayer::kAggregation);
      EXPECT_EQ(ft.pod(agg), p);
    }
    for (std::uint32_t i = 0; i < ft.edge_per_pod(); ++i) {
      const NodeId e = ft.edge_switch(p, i);
      EXPECT_EQ(ft.layer(e), SwitchLayer::kEdge);
      EXPECT_EQ(ft.pod(e), p);
    }
  }
}

TEST(FatTree, AccessorsRejectOutOfRange) {
  const FatTree ft(4);
  EXPECT_THROW(static_cast<void>(ft.core(4)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(ft.aggregation(4, 0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(ft.aggregation(0, 2)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(ft.edge_switch(0, 2)), std::out_of_range);
}

TEST(FatTree, PodOfCoreThrows) {
  const FatTree ft(4);
  EXPECT_THROW(static_cast<void>(ft.pod(ft.core(0))), std::invalid_argument);
}

TEST(FatTree, IntraPodBipartite) {
  const FatTree ft(4);
  // Every aggregation connects to every edge switch of its own pod.
  for (std::uint32_t p = 0; p < 4; ++p)
    for (std::uint32_t a = 0; a < 2; ++a)
      for (std::uint32_t e = 0; e < 2; ++e)
        EXPECT_TRUE(
            ft.graph().find_edge(ft.aggregation(p, a), ft.edge_switch(p, e)));
}

TEST(FatTree, EdgeSwitchesNeverDirectlyConnected) {
  const FatTree ft(4);
  for (std::uint32_t p1 = 0; p1 < 4; ++p1)
    for (std::uint32_t p2 = 0; p2 < 4; ++p2)
      EXPECT_FALSE(
          ft.graph().find_edge(ft.edge_switch(p1, 0), ft.edge_switch(p2, 1)));
}

TEST(FatTree, NamesAreUniqueAndStructured) {
  const FatTree ft(4);
  std::set<std::string> names;
  for (NodeId v = 0; v < ft.graph().node_count(); ++v)
    names.insert(ft.node_name(v));
  EXPECT_EQ(names.size(), ft.graph().node_count());
  EXPECT_EQ(ft.node_name(ft.core(0)), "core0");
  EXPECT_EQ(ft.node_name(ft.aggregation(2, 1)), "agg2.1");
  EXPECT_EQ(ft.node_name(ft.edge_switch(3, 0)), "edge3.0");
}

// ---- other generators ----

TEST(LeafSpine, FullBipartite) {
  const Graph g = make_leaf_spine(3, 5);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_TRUE(g.connected());
  for (NodeId s = 0; s < 3; ++s) EXPECT_EQ(g.degree(s), 5u);
  for (NodeId l = 3; l < 8; ++l) EXPECT_EQ(g.degree(l), 3u);
}

TEST(LeafSpine, RejectsEmptyTier) {
  EXPECT_THROW(make_leaf_spine(0, 3), std::invalid_argument);
  EXPECT_THROW(make_leaf_spine(3, 0), std::invalid_argument);
}

TEST(Ring, CycleStructure) {
  const Graph g = make_ring(6);
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_TRUE(g.connected());
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Ring, RejectsTiny) { EXPECT_THROW(make_ring(2), std::invalid_argument); }

TEST(Grid, MeshStructure) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  // Horizontal: 3*3, vertical: 2*4.
  EXPECT_EQ(g.edge_count(), 17u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior (row 1, col 1)
}

TEST(Grid, SingleRowIsPath) {
  const Graph g = make_grid(1, 5);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_TRUE(g.connected());
}

TEST(Star, HubAndLeaves) {
  const Graph g = make_star(7);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_EQ(g.degree(0), 7u);
  for (NodeId leaf = 1; leaf <= 7; ++leaf) EXPECT_EQ(g.degree(leaf), 1u);
}

class RandomConnectedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConnectedSweep, AlwaysConnectedWithSpanningTreePlusExtras) {
  util::Rng rng(GetParam());
  const Graph g = make_random_connected(40, 25, rng);
  EXPECT_EQ(g.node_count(), 40u);
  EXPECT_GE(g.edge_count(), 39u);          // spanning tree
  EXPECT_LE(g.edge_count(), 39u + 25u);    // plus at most the extras
  EXPECT_TRUE(g.connected());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConnectedSweep,
                         ::testing::Values(1u, 7u, 99u, 12345u));

TEST(RandomConnected, SingleNode) {
  util::Rng rng(1);
  const Graph g = make_random_connected(1, 10, rng);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(RandomConnected, ExtrasCappedByCompleteGraph) {
  util::Rng rng(2);
  const Graph g = make_random_connected(4, 100, rng);
  EXPECT_LE(g.edge_count(), 6u);  // K4
  EXPECT_TRUE(g.connected());
}

}  // namespace
}  // namespace dust::graph
