// Serial vs parallel row-fill determinism (DESIGN.md §13): the chunked
// pool-backed Trmin row fill must produce *bit-identical* placements to the
// serial fill at every worker count. Rows are disjoint, each worker reuses
// its own scratch, and per-chunk work tallies are reduced serially in chunk
// order — so not just the model but the solved assignments, the explored-path
// counters, and the truncation flag must match exactly.
//
// This binary carries the "sanitize" label: under ThreadSanitizer it doubles
// as a race check on the work-claiming cursor and the scratch reuse.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/optimizer.hpp"
#include "core/placement.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "util/rng.hpp"

namespace dust::core {
namespace {

void expect_same_problem(const PlacementProblem& a, const PlacementProblem& b) {
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.cs, b.cs);
  EXPECT_EQ(a.cd, b.cd);
  ASSERT_EQ(a.trmin.size(), b.trmin.size());
  for (std::size_t i = 0; i < a.trmin.size(); ++i)
    EXPECT_EQ(a.trmin[i], b.trmin[i]) << "trmin cell " << i;  // exact, not near
  EXPECT_EQ(a.paths_explored, b.paths_explored);
  EXPECT_EQ(a.truncated, b.truncated);
}

void expect_same_result(const PlacementResult& a, const PlacementResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);  // bit-identical costs => same pivots
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].from, b.assignments[i].from);
    EXPECT_EQ(a.assignments[i].to, b.assignments[i].to);
    EXPECT_EQ(a.assignments[i].amount, b.assignments[i].amount);
    EXPECT_EQ(a.assignments[i].trmin_seconds, b.assignments[i].trmin_seconds);
  }
}

struct Scenario {
  const char* name;
  Nmdb nmdb;
};

std::vector<Scenario> scenarios(std::uint64_t seed) {
  std::vector<Scenario> out;
  {
    util::Rng rng(seed);
    out.push_back({"fat-tree-k4",
                   Nmdb(net::make_random_state(graph::FatTree(4).graph(),
                                               net::LinkProfile{},
                                               net::NodeLoadProfile{}, rng),
                        Thresholds{})});
  }
  {
    util::Rng rng(seed);
    out.push_back({"random-48",
                   Nmdb(net::make_random_state(
                            graph::make_random_connected(48, 30, rng),
                            net::LinkProfile{}, net::NodeLoadProfile{}, rng),
                        Thresholds{})});
  }
  return out;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<net::EvaluatorMode> {};

// The headline contract: worker counts 0 (the whole pool), 1 (serial), 2 and
// 8 all reproduce the serial build and the serial solve bit-for-bit, on
// both topology families.
TEST_P(ParallelDeterminism, SerialAndParallelBitIdentical) {
  for (Scenario& scenario : scenarios(71)) {
    PlacementOptions serial;
    serial.max_hops = 4;
    serial.evaluator = GetParam();
    const PlacementProblem reference =
        build_placement_problem(scenario.nmdb, serial);
    ASSERT_FALSE(reference.busy.empty()) << scenario.name;
    ASSERT_FALSE(reference.candidates.empty()) << scenario.name;

    OptimizerOptions solve_opt;
    solve_opt.placement = serial;
    solve_opt.allow_partial = true;
    const PlacementResult reference_solved =
        OptimizationEngine(solve_opt).run(scenario.nmdb);

    for (std::size_t threads : {0u, 1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << scenario.name << " threads=" << threads);
      PlacementOptions parallel = serial;
      parallel.solver_threads = threads;
      expect_same_problem(reference,
                          build_placement_problem(scenario.nmdb, parallel));

      OptimizerOptions parallel_solve = solve_opt;
      parallel_solve.placement = parallel;
      expect_same_result(reference_solved,
                         OptimizationEngine(parallel_solve).run(scenario.nmdb));
    }
  }
}

// Repeated parallel builds are stable against scheduling: whichever worker
// claims whichever chunk, the outputs never wobble run-to-run.
TEST_P(ParallelDeterminism, RepeatedParallelBuildsAgree) {
  for (Scenario& scenario : scenarios(29)) {
    PlacementOptions options;
    options.max_hops = 4;
    options.evaluator = GetParam();
    options.solver_threads = 8;
    const PlacementProblem first =
        build_placement_problem(scenario.nmdb, options);
    for (int round = 0; round < 3; ++round)
      expect_same_problem(first, build_placement_problem(scenario.nmdb, options));
  }
}

INSTANTIATE_TEST_SUITE_P(Evaluators, ParallelDeterminism,
                         ::testing::Values(net::EvaluatorMode::kEnumerate,
                                           net::EvaluatorMode::kSharedFrontier),
                         [](const auto& info) {
                           return info.param == net::EvaluatorMode::kEnumerate
                                      ? "Enumerate"
                                      : "SharedFrontier";
                         });

}  // namespace
}  // namespace dust::core
