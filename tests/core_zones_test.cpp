#include "core/zones.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/topology.hpp"
#include "net/traffic.hpp"

namespace dust::core {
namespace {

TEST(PartitionZones, CoversEveryNodeExactlyOnce) {
  const graph::FatTree ft(8);
  const auto zones = partition_zones(ft.graph(), 20);
  std::set<graph::NodeId> seen;
  for (const Zone& zone : zones) {
    EXPECT_LE(zone.members.size(), 20u);
    EXPECT_FALSE(zone.members.empty());
    for (graph::NodeId v : zone.members) EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(seen.size(), ft.graph().node_count());
}

TEST(PartitionZones, ZonesAreConnected) {
  const graph::FatTree ft(8);
  const auto zones = partition_zones(ft.graph(), 20);
  for (const Zone& zone : zones) {
    // BFS within the induced subgraph must reach all members.
    std::set<graph::NodeId> members(zone.members.begin(), zone.members.end());
    std::vector<graph::NodeId> stack{zone.members[0]};
    std::set<graph::NodeId> reached{zone.members[0]};
    while (!stack.empty()) {
      const graph::NodeId node = stack.back();
      stack.pop_back();
      for (const graph::Adjacency& adj : ft.graph().neighbors(node)) {
        if (members.count(adj.neighbor) && !reached.count(adj.neighbor)) {
          reached.insert(adj.neighbor);
          stack.push_back(adj.neighbor);
        }
      }
    }
    EXPECT_EQ(reached.size(), zone.members.size());
  }
}

TEST(PartitionZones, SingleZoneWhenLimitIsLarge) {
  const graph::FatTree ft(4);
  const auto zones = partition_zones(ft.graph(), 1000);
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(zones[0].members.size(), 20u);
}

TEST(PartitionZones, SizeOneDegeneratesToSingletons) {
  const auto zones = partition_zones(graph::make_ring(5), 1);
  EXPECT_EQ(zones.size(), 5u);
}

TEST(PartitionZones, ZeroSizeRejected) {
  EXPECT_THROW(partition_zones(graph::make_ring(3), 0), std::invalid_argument);
}

TEST(PartitionZones, PaperRecommendationEightyNodes) {
  // §V-B: divide large networks into zones of <= 80 nodes. 16-k fat-tree
  // (320 nodes) must yield >= 4 zones, all within the cap.
  const graph::FatTree ft(16);
  const auto zones = partition_zones(ft.graph(), 80);
  EXPECT_GE(zones.size(), 4u);
  std::size_t total = 0;
  for (const Zone& zone : zones) {
    EXPECT_LE(zone.members.size(), 80u);
    total += zone.members.size();
  }
  EXPECT_EQ(total, 320u);
}

class ZonedOptimizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZonedOptimizeSweep, AssignmentsStayInZoneAndFeasible) {
  util::Rng rng(GetParam());
  net::NetworkState state = net::make_random_state(
      graph::FatTree(8).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});

  OptimizerOptions options;
  options.placement.max_hops = 4;
  const ZonedResult result = optimize_by_zones(nmdb, 20, options);
  EXPECT_GE(result.zones, 4u);

  const auto zones = partition_zones(nmdb.network().graph(), 20);
  std::vector<std::size_t> zone_of(nmdb.node_count());
  for (std::size_t z = 0; z < zones.size(); ++z)
    for (graph::NodeId v : zones[z].members) zone_of[v] = z;

  std::vector<double> absorbed(nmdb.node_count(), 0.0);
  for (const Assignment& a : result.all_assignments()) {
    EXPECT_EQ(zone_of[a.from], zone_of[a.to]) << "cross-zone offload";
    absorbed[a.to] += a.amount;
  }
  for (graph::NodeId o : nmdb.candidate_nodes())
    EXPECT_LE(absorbed[o], nmdb.thresholds(o).spare_capacity(
                               nmdb.network().node_utilization(o)) +
                               1e-9);
}

// Zoning restricts the solution space: its objective is never below the
// unrestricted optimum (when both fully place the load).
TEST_P(ZonedOptimizeSweep, ZonedObjectiveNeverBeatsGlobal) {
  util::Rng rng(GetParam() ^ 0x2222);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});
  OptimizerOptions options;
  const PlacementResult global = OptimizationEngine(options).run(nmdb);
  const ZonedResult zoned = optimize_by_zones(nmdb, 10, options);
  if (!global.optimal() || zoned.unplaced > 1e-9) GTEST_SKIP();
  EXPECT_GE(zoned.objective, global.objective - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZonedOptimizeSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ZonedResult, AllAssignmentsConcatenates) {
  ZonedResult r;
  r.per_zone.resize(2);
  r.per_zone[0].assignments = {{0, 1, 2.0, 0.1}};
  r.per_zone[1].assignments = {{5, 6, 3.0, 0.2}, {7, 8, 1.0, 0.3}};
  EXPECT_EQ(r.all_assignments().size(), 3u);
}

}  // namespace
}  // namespace dust::core
