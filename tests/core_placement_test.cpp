#include "core/placement.hpp"

#include <gtest/gtest.h>

#include "graph/topology.hpp"
#include "net/traffic.hpp"

namespace dust::core {
namespace {

// The paper's illustrative topology (Fig. 4): S1 busy (node 0), S2 and S6
// offload candidates (nodes 1 and 5), 7 nodes / 7 edges, with routes
// r1={e1-e2}, r2={e1-e3-e4}, r3={e1-e3-e4-e7?-...}, r4={e1-e7}.
struct Fig4 {
  Nmdb nmdb;
  static Fig4 make() {
    graph::Graph g(7);
    g.add_edge(0, 3);  // e1
    g.add_edge(3, 1);  // e2
    g.add_edge(3, 4);  // e3
    g.add_edge(4, 1);  // e4
    g.add_edge(1, 2);  // e5
    g.add_edge(2, 6);  // e6
    g.add_edge(3, 5);  // e7
    net::NetworkState state(std::move(g));
    for (graph::EdgeId e = 0; e < state.edge_count(); ++e)
      state.set_link(e, net::LinkState{1000.0, 1.0});
    state.set_node_utilization(0, 90.0);  // S1 busy: Cs = 10
    state.set_node_utilization(1, 40.0);  // S2 candidate: Cd = 20
    state.set_node_utilization(5, 55.0);  // S6 candidate: Cd = 5
    for (graph::NodeId v : {2u, 3u, 4u, 6u})
      state.set_node_utilization(v, 70.0);  // relays: neutral
    state.set_monitoring_data_mb(0, 100.0);
    return Fig4{Nmdb(std::move(state), Thresholds{})};
  }
};

TEST(Placement, Fig4SetsAndLoads) {
  Fig4 f = Fig4::make();
  const PlacementProblem p = build_placement_problem(f.nmdb, PlacementOptions{});
  EXPECT_EQ(p.busy, (std::vector<graph::NodeId>{0}));
  EXPECT_EQ(p.candidates, (std::vector<graph::NodeId>{1, 5}));
  EXPECT_EQ(p.cs, (std::vector<double>{10.0}));
  EXPECT_EQ(p.cd, (std::vector<double>{20.0, 5.0}));
  EXPECT_DOUBLE_EQ(p.total_excess(), 10.0);
  EXPECT_DOUBLE_EQ(p.total_spare(), 25.0);
}

TEST(Placement, Fig4TrminValues) {
  Fig4 f = Fig4::make();
  const PlacementProblem p = build_placement_problem(f.nmdb, PlacementOptions{});
  // 100 Mb over 1000 Mbps links: 0.1 s per hop. Best S1->S2 = e1-e2 (0.2 s),
  // best S1->S6 = e1-e7 (0.2 s).
  EXPECT_NEAR(p.trmin_at(0, 0), 0.2, 1e-12);
  EXPECT_NEAR(p.trmin_at(0, 1), 0.2, 1e-12);
  EXPECT_GT(p.paths_explored, 0u);
}

TEST(Placement, MaxHopOneLeavesCandidatesUnreachable) {
  Fig4 f = Fig4::make();
  PlacementOptions options;
  options.max_hops = 1;
  const PlacementProblem p = build_placement_problem(f.nmdb, options);
  EXPECT_EQ(p.trmin_at(0, 0), solver::kInfinity);
  EXPECT_EQ(p.trmin_at(0, 1), solver::kInfinity);
}

TEST(Placement, DpAndEnumerationProduceSameProblem) {
  Fig4 f = Fig4::make();
  PlacementOptions enum_opt;
  enum_opt.evaluator = net::EvaluatorMode::kEnumerate;
  PlacementOptions dp_opt;  // the shared-frontier layered DP
  const PlacementProblem a = build_placement_problem(f.nmdb, enum_opt);
  const PlacementProblem b = build_placement_problem(f.nmdb, dp_opt);
  ASSERT_EQ(a.trmin.size(), b.trmin.size());
  for (std::size_t i = 0; i < a.trmin.size(); ++i)
    EXPECT_NEAR(a.trmin[i], b.trmin[i], 1e-9);
}

TEST(Placement, ParallelTrminMatchesSerial) {
  util::Rng rng(3);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(4).graph(), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  Nmdb nmdb(std::move(state), Thresholds{});
  PlacementOptions serial;
  serial.max_hops = 4;
  PlacementOptions parallel = serial;
  parallel.solver_threads = 0;  // the whole pool
  const PlacementProblem a = build_placement_problem(nmdb, serial);
  const PlacementProblem b = build_placement_problem(nmdb, parallel);
  ASSERT_EQ(a.trmin.size(), b.trmin.size());
  for (std::size_t i = 0; i < a.trmin.size(); ++i)
    EXPECT_DOUBLE_EQ(a.trmin[i], b.trmin[i]);
}

TEST(Placement, EmptyBusySetYieldsEmptyProblem) {
  net::NetworkState state(graph::make_ring(4));
  for (graph::NodeId v = 0; v < 4; ++v) state.set_node_utilization(v, 50.0);
  Nmdb nmdb(std::move(state), Thresholds{});
  const PlacementProblem p = build_placement_problem(nmdb, PlacementOptions{});
  EXPECT_TRUE(p.busy.empty());
  EXPECT_EQ(p.candidates.size(), 4u);
  EXPECT_TRUE(p.trmin.empty());
}

TEST(PlacementResult, AccountingHelpers) {
  PlacementResult r;
  r.assignments = {{0, 1, 5.0, 0.1}, {0, 2, 3.0, 0.2}, {7, 1, 2.0, 0.3}};
  EXPECT_DOUBLE_EQ(r.offloaded_total(), 10.0);
  EXPECT_DOUBLE_EQ(r.offloaded_from(0), 8.0);
  EXPECT_DOUBLE_EQ(r.offloaded_from(7), 2.0);
  EXPECT_DOUBLE_EQ(r.absorbed_by(1), 7.0);
  EXPECT_DOUBLE_EQ(r.absorbed_by(2), 3.0);
}

TEST(PlacementViolation, DetectsOverCapacity) {
  PlacementProblem p;
  p.busy = {0};
  p.candidates = {1};
  p.cs = {5.0};
  p.cd = {3.0};
  p.trmin = {0.1};
  PlacementResult r;
  r.assignments = {{0, 1, 5.0, 0.1}};  // exceeds Cd by 2
  EXPECT_NEAR(placement_violation(p, r), 2.0, 1e-9);
}

TEST(PlacementViolation, ZeroForExactSolution) {
  PlacementProblem p;
  p.busy = {0};
  p.candidates = {1, 2};
  p.cs = {5.0};
  p.cd = {3.0, 4.0};
  p.trmin = {0.1, 0.2};
  PlacementResult r;
  r.assignments = {{0, 1, 3.0, 0.1}, {0, 2, 2.0, 0.2}};
  EXPECT_NEAR(placement_violation(p, r), 0.0, 1e-9);
}

TEST(PlacementViolation, DetectsShortfallMismatch) {
  PlacementProblem p;
  p.busy = {0};
  p.candidates = {1};
  p.cs = {5.0};
  p.cd = {10.0};
  p.trmin = {0.1};
  PlacementResult r;
  r.assignments = {{0, 1, 3.0, 0.1}};
  r.unplaced = 0.0;  // claims complete but shipped only 3 of 5
  EXPECT_NEAR(placement_violation(p, r), 2.0, 1e-9);
  r.unplaced = 2.0;  // honest partial solution is consistent
  EXPECT_NEAR(placement_violation(p, r), 0.0, 1e-9);
}

}  // namespace
}  // namespace dust::core
