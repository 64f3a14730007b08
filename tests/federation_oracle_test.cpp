// O8: sharded (federated) placement vs the single-manager optimum
// (DESIGN.md §16). Fat-tree pod cuts at k=4 and k=8, balanced cuts over
// random graphs, the bounded-HFR-gap property, and the equal-optimum pin
// when the global optimum never crosses a domain boundary.
#include <gtest/gtest.h>

#include "check/federation_check.hpp"
#include "federation/partition.hpp"
#include "graph/topology.hpp"
#include "util/rng.hpp"


namespace dust::check {
namespace {

/// Fat-trees have exponentially many equal-length paths; the exhaustive
/// enumerate evaluator is a non-starter there. The shared-frontier engine
/// is exact for Trmin and leaves every pair reachable (max_hops = 0), which
/// is the reachability precondition O8 declares.
core::PlacementOptions oracle_options() {
  core::PlacementOptions options;
  options.evaluator = net::EvaluatorMode::kSharedFrontier;
  return options;
}

core::Nmdb random_load_nmdb(const graph::Graph& graph, util::Rng& rng,
                            double busy_fraction) {
  net::NetworkState state(graph);
  for (graph::NodeId v = 0; v < graph.node_count(); ++v) {
    // Mostly comfortable candidates with distinct utilizations, a sprinkle
    // of busy nodes, a few neutral.
    const double roll = rng.uniform();
    double util;
    if (roll < busy_fraction)
      util = rng.uniform(82.0, 97.0);  // busy (Cmax = 80)
    else if (roll < busy_fraction + 0.15)
      util = rng.uniform(62.0, 78.0);  // neutral
    else
      util = rng.uniform(15.0, 58.0);  // candidate (COmax = 60)
    state.set_node_utilization(v, util);
    state.set_monitoring_data_mb(v, 5.0);
  }
  return core::Nmdb(std::move(state), core::Thresholds{});
}

TEST(FederationOracle, FatTreeK4TwoShards) {
  graph::FatTree topo(4);
  const auto partition = dust::federation::partition_fat_tree(topo, 2);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng(seed);
    const core::Nmdb nmdb = random_load_nmdb(topo.graph(), rng, 0.25);
    const auto violations =
        check_federated_placement(nmdb, partition, oracle_options());
    for (const Violation& v : violations)
      ADD_FAILURE() << "seed " << seed << ": " << v.invariant << ": "
                    << v.detail;
  }
}

TEST(FederationOracle, FatTreeK8FourShards) {
  graph::FatTree topo(8);
  const auto partition = dust::federation::partition_fat_tree(topo, 4);
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    util::Rng rng(seed);
    const core::Nmdb nmdb = random_load_nmdb(topo.graph(), rng, 0.2);
    const auto violations =
        check_federated_placement(nmdb, partition, oracle_options());
    for (const Violation& v : violations)
      ADD_FAILURE() << "seed " << seed << ": " << v.invariant << ": "
                    << v.detail;
  }
}

TEST(FederationOracle, RandomGraphsBalancedCut) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    util::Rng rng(seed);
    const graph::Graph g = graph::make_random_connected(48, 100, rng);
    const auto partition = dust::federation::partition_balanced(g, 3);
    const core::Nmdb nmdb = random_load_nmdb(g, rng, 0.25);
    const auto violations =
        check_federated_placement(nmdb, partition, oracle_options());
    for (const Violation& v : violations)
      ADD_FAILURE() << "seed " << seed << ": " << v.invariant << ": "
                    << v.detail;
  }
}

TEST(FederationOracle, HfrGapStaysBoundedWithAmpleSpare) {
  // Spare-rich fleets: one delegation round must close most of the gap —
  // federated HFR may trail the optimum only by the declared stranding.
  graph::FatTree topo(4);
  const auto partition = dust::federation::partition_fat_tree(topo, 2);
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    util::Rng rng(seed);
    const core::Nmdb nmdb = random_load_nmdb(topo.graph(), rng, 0.15);
    const auto cmp = compare_federated_placement(nmdb, partition,
                                                 oracle_options());
    EXPECT_GE(cmp.hfr_gap_percent(), -1e-6) << "seed " << seed;
    // Every percent of gap must be stranding the model declared.
    const double gap_load = cmp.fed_unplaced -
                            (cmp.total_excess - cmp.single_placed);
    EXPECT_LE(gap_load, cmp.stranded_below_floor +
                            cmp.stranded_by_granularity + 1e-6)
        << "seed " << seed;
  }
}

// All load and all spare live in shard 0; shard 1 is wall-to-wall neutral
// (not busy, not a candidate). The global optimum then cannot cross the cut.
core::Nmdb one_domain_nmdb(const graph::FatTree& topo,
                           const dust::federation::DomainPartition& partition) {
  net::NetworkState state(topo.graph());
  double candidate_util = 25.0;
  for (graph::NodeId v : partition.members[0])
    state.set_node_utilization(v, candidate_util += 1.5);  // candidates
  double neutral_util = 62.0;
  for (graph::NodeId v : partition.members[1])
    state.set_node_utilization(v, neutral_util += 0.75);  // neutral band
  state.set_node_utilization(topo.edge_switch(0, 0), 88.0);  // busy, shard 0
  return core::Nmdb(std::move(state), core::Thresholds{});
}

TEST(FederationOracle, BitIdenticalWhenEveryBusyNodeStaysInDomain) {
  // The global optimum cannot cross the cut, so O8 demands the sharded
  // solves reach it too: the same beta and the same load placed.
  graph::FatTree topo(4);
  const auto partition = dust::federation::partition_fat_tree(topo, 2);
  const core::Nmdb nmdb = one_domain_nmdb(topo, partition);

  const auto cmp = compare_federated_placement(nmdb, partition,
                                               oracle_options());
  ASSERT_TRUE(cmp.single_stayed_in_domain);
  EXPECT_EQ(cmp.delegations_granted, 0u);
  EXPECT_NEAR(cmp.fed_local_objective, cmp.single.objective, 1e-9);
  EXPECT_NEAR(cmp.fed_placed, cmp.single_placed, 1e-9);
  EXPECT_TRUE(check_federated_placement(nmdb, partition,
                                        oracle_options())
                  .empty());
  // Single-shard partitions are trivially identical too.
  const auto whole = dust::federation::partition_fat_tree(topo, 1);
  EXPECT_TRUE(
      check_federated_placement(nmdb, whole, oracle_options()).empty());
}

TEST(FederationOracle, IdenticalComparesOptimaNotFlows) {
  // At a degenerate optimum another split of the same load is just as
  // optimal, so O8-identical accepts different flows at the same beta and
  // fires on a worse beta or on load left unshipped.
  graph::FatTree topo(4);
  const auto partition = dust::federation::partition_fat_tree(topo, 2);
  const core::Nmdb nmdb = one_domain_nmdb(topo, partition);
  const FederatedComparison cmp =
      compare_federated_placement(nmdb, partition, oracle_options());
  ASSERT_TRUE(cmp.single_stayed_in_domain);
  ASSERT_GE(cmp.local_assignment_count, 1u);
  const auto identical_fires = [&](const FederatedComparison& c) {
    for (const Violation& v : check_federated_comparison(nmdb, partition, c))
      if (v.invariant == "O8-identical") return true;
    return false;
  };
  EXPECT_FALSE(identical_fires(cmp));

  // Same beta, different flows: half of the first assignment moves to
  // another in-domain candidate.
  FederatedComparison split = cmp;
  core::Assignment moved = split.fed_assignments.front();
  for (graph::NodeId c : nmdb.candidate_nodes())
    if (partition.shard_of(c) == 0 && c != split.fed_assignments.front().to)
      moved.to = c;
  ASSERT_NE(moved.to, split.fed_assignments.front().to);
  moved.amount /= 2.0;
  split.fed_assignments.front().amount -= moved.amount;
  split.fed_assignments.insert(split.fed_assignments.begin() + 1, moved);
  ++split.local_assignment_count;
  EXPECT_FALSE(identical_fires(split));

  FederatedComparison worse = cmp;
  worse.fed_local_objective += 1e-3;
  EXPECT_TRUE(identical_fires(worse));

  FederatedComparison short_shipped = cmp;
  short_shipped.fed_assignments.front().amount -= 1e-3;
  EXPECT_TRUE(identical_fires(short_shipped));
}

}  // namespace
}  // namespace dust::check
