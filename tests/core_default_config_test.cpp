// The library defaults, held to what they promise (DESIGN.md §8):
//   - the default evaluator (shared frontier, max_hops = 0) solves exactly
//     the model the paper's exhaustive route enumeration solves: status,
//     objective and every assignment bit for bit, on the Fig. 4 graph and
//     fat-tree k=4;
//   - a manager built from a default ManagerConfig finishes its first
//     placement cycle on fat-tree k=8 (80 switches) inside a wall budget.
//     Unbounded enumeration does not finish there at all; this executable's
//     ctest TIMEOUT turns such a hang into a failure instead of a stall;
//   - the default row fill is serial: it never touches the global pool, so
//     single-threaded callers do not start pool threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>

#include "core/manager.hpp"
#include "core/optimizer.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "sim/transport.hpp"
#include "util/thread_pool.hpp"

namespace dust::core {
namespace {

// The paper's illustrative topology (Fig. 4), 7 switches and 7 links, with
// seeded link utilizations and node loads; S1 (node 0) is always busy.
Nmdb fig4_nmdb(std::uint64_t seed) {
  graph::Graph g(7);
  g.add_edge(0, 3);
  g.add_edge(3, 1);
  g.add_edge(3, 4);
  g.add_edge(4, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 6);
  g.add_edge(3, 5);
  util::Rng rng(seed);
  net::NetworkState state = net::make_random_state(
      std::move(g), net::LinkProfile{}, net::NodeLoadProfile{}, rng);
  state.set_node_utilization(0, rng.uniform(85.0, 97.0));
  return Nmdb(std::move(state), Thresholds{});
}

Nmdb fat_tree_nmdb(std::uint32_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  net::NetworkState state = net::make_random_state(
      graph::FatTree(k).graph(), net::LinkProfile{}, net::NodeLoadProfile{},
      rng);
  return Nmdb(std::move(state), Thresholds{});
}

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

// Status, objective and assignments of the default engine against explicit
// unbounded enumeration; returns how many assignments the plans carry.
std::size_t expect_same_plan(const Nmdb& nmdb, bool allow_partial) {
  OptimizerOptions fast;
  fast.allow_partial = allow_partial;
  OptimizerOptions exhaustive = fast;
  exhaustive.placement.evaluator = net::EvaluatorMode::kEnumerate;
  exhaustive.placement.max_hops = 0;
  const PlacementResult a = OptimizationEngine(fast).run(nmdb);
  const PlacementResult b = OptimizationEngine(exhaustive).run(nmdb);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(bits(a.objective), bits(b.objective));
  EXPECT_EQ(bits(a.unplaced), bits(b.unplaced));
  EXPECT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0;
       i < std::min(a.assignments.size(), b.assignments.size()); ++i) {
    EXPECT_EQ(a.assignments[i].from, b.assignments[i].from) << "entry " << i;
    EXPECT_EQ(a.assignments[i].to, b.assignments[i].to) << "entry " << i;
    EXPECT_EQ(bits(a.assignments[i].amount), bits(b.assignments[i].amount))
        << "entry " << i;
    EXPECT_EQ(bits(a.assignments[i].trmin_seconds),
              bits(b.assignments[i].trmin_seconds))
        << "entry " << i;
  }
  return a.assignments.size();
}

TEST(DefaultEvaluator, IsTheSharedFrontierWithoutHopBound) {
  const PlacementOptions options;
  EXPECT_EQ(options.evaluator, net::EvaluatorMode::kSharedFrontier);
  EXPECT_EQ(options.max_hops, 0u);
  EXPECT_EQ(net::ResponseTimeOptions{}.mode,
            net::EvaluatorMode::kSharedFrontier);
}

TEST(DefaultEvaluator, MatchesEnumerationOnFig4) {
  std::size_t assignments = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    for (bool partial : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " partial "
                                      << partial);
      assignments += expect_same_plan(fig4_nmdb(seed), partial);
    }
  EXPECT_GT(assignments, 0u);  // the comparison is not vacuous
}

TEST(DefaultEvaluator, MatchesEnumerationOnFatTree4) {
  std::size_t assignments = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (bool partial : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " partial "
                                      << partial);
      assignments += expect_same_plan(fat_tree_nmdb(4, seed), partial);
    }
  EXPECT_GT(assignments, 0u);
}

// Wall budget for one cycle: the default path takes well under a
// millisecond on a current x86 core, so this leaves room for sanitizer
// builds and loaded hosts while staying far below what enumeration needs.
constexpr double kFirstCycleBudgetSeconds = 5.0;

TEST(DefaultManager, FirstCycleOnFatTree8FinishesWithinBudget) {
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  DustManager manager(sim, transport, fat_tree_nmdb(8, 1), ManagerConfig{});
  ASSERT_EQ(manager.nmdb().network().node_count(), 80u);
  const auto start = std::chrono::steady_clock::now();
  manager.run_placement_cycle();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(manager.placement_cycles(), 1u);
  EXPECT_LT(seconds, kFirstCycleBudgetSeconds);
}

TEST(DefaultPlacement, RowFillLeavesThePoolIdle) {
  const util::ThreadPool& pool = util::global_pool();
  const std::uint64_t chunks_before = pool.chunk_tasks();
  const Nmdb nmdb = fat_tree_nmdb(8, 1);
  const PlacementProblem problem =
      build_placement_problem(nmdb, PlacementOptions{});
  ASSERT_GT(problem.busy.size(), 1u);  // a parallel fill would have run
  EXPECT_EQ(pool.chunk_tasks(), chunks_before);
}

}  // namespace
}  // namespace dust::core
