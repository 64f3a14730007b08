// dust::check shrinker tests: the delta-debugger must (a) reduce scenarios
// along every axis it owns (topology ladder, event lists, duration) while
// preserving the failure, and (b) — the end-to-end demo the harness exists
// for — take a deliberately injected capacity-constraint bug on a full-size
// random scenario and hand back a ≤ 8-node repro that still fails.
#include "check/shrink.hpp"

#include <gtest/gtest.h>

#include "check/invariants.hpp"
#include "core/optimizer.hpp"

namespace dust::check {
namespace {

// The classic missed-constraint bug: the solver is shown a relaxed capacity
// on one destination (as if a bounds check were dropped), so the plan it
// returns can overfill the real Cd — exactly what invariant I1 exists to
// catch when the result is checked against the *true* problem.
bool capacity_bug_caught(const ScenarioSpec& spec) {
  const core::Nmdb nmdb = build_nmdb(spec);
  core::PlacementOptions placement;
  placement.max_hops = spec.max_hops;
  const core::PlacementProblem problem =
      core::build_placement_problem(nmdb, placement);
  if (problem.busy.empty() || problem.candidates.empty()) return false;

  core::PlacementProblem buggy = problem;
  std::size_t target = 0;  // relax the tightest destination
  for (std::size_t j = 1; j < buggy.cd.size(); ++j)
    if (buggy.cd[j] < buggy.cd[target]) target = j;
  buggy.cd[target] = 1e6;

  core::OptimizerOptions options;
  options.allow_partial = true;
  const core::OptimizationEngine engine(options);
  const core::PlacementResult result = engine.solve(buggy);
  for (const Violation& v : check_placement(problem, result))
    if (v.invariant == "I1-capacity") return true;
  return false;
}

TEST(Shrink, InjectedCapacityBugShrinksToSmallRepro) {
  bool shrunk_small = false;
  for (std::uint64_t seed = 1; seed <= 30 && !shrunk_small; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    if (!capacity_bug_caught(spec)) continue;
    ShrinkStats stats;
    const ScenarioSpec shrunk =
        shrink_scenario(spec, capacity_bug_caught, 400, &stats);
    EXPECT_TRUE(capacity_bug_caught(shrunk))
        << "seed " << seed << ": shrinker returned a non-failing scenario";
    EXPECT_LE(shrunk.node_count, spec.node_count);
    EXPECT_GT(stats.attempts, 0u);
    if (shrunk.node_count <= 8) {
      shrunk_small = true;
      SCOPED_TRACE(dump_scenario(shrunk));
      EXPECT_GE(stats.accepted, 1u);
    }
  }
  EXPECT_TRUE(shrunk_small)
      << "no seed in 1..30 shrank the injected capacity bug to ≤ 8 nodes";
}

TEST(Shrink, RemovesEventsTheFailureDoesNotNeed) {
  // A predicate that only needs one death event: everything else —
  // churn, faults, topology size, duration slack — must shrink away.
  const auto needs_a_death = [](const ScenarioSpec& s) {
    return !s.deaths.empty();
  };
  GeneratorOptions options;
  options.death_events = 2;
  const ScenarioSpec spec = generate_scenario(11, options);
  ASSERT_TRUE(needs_a_death(spec));
  ASSERT_FALSE(spec.churn.empty());

  ShrinkStats stats;
  const ScenarioSpec shrunk =
      shrink_scenario(spec, needs_a_death, 400, &stats);
  EXPECT_TRUE(needs_a_death(shrunk));
  EXPECT_EQ(shrunk.deaths.size(), 1u);   // ddmin kept exactly one
  EXPECT_TRUE(shrunk.churn.empty());     // irrelevant events dropped
  EXPECT_TRUE(shrunk.faults.empty());
  EXPECT_LE(shrunk.node_count, spec.node_count);
  EXPECT_LE(shrunk.duration_ms, spec.duration_ms);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(Shrink, FixpointWhenNothingCanBeRemoved) {
  const auto always_fails = [](const ScenarioSpec&) { return true; };
  GeneratorOptions options;
  options.churn_events = 0;
  options.death_events = 0;
  options.fault_events = 0;
  const ScenarioSpec spec = generate_scenario(3, options);
  const ScenarioSpec shrunk = shrink_scenario(spec, always_fails, 400);
  // Bottom of the ladder: a 4-node random graph with no events.
  EXPECT_EQ(shrunk.topology, TopologyKind::kRandomRegular);
  EXPECT_EQ(shrunk.node_count, 4u);
  EXPECT_TRUE(shrunk.churn.empty());
  EXPECT_TRUE(shrunk.deaths.empty());
  EXPECT_TRUE(shrunk.faults.empty());
}

TEST(Shrink, NeverAcceptsAPassingReduction) {
  // Predicate pinned to a topology size: any reduction below it passes,
  // so the shrinker must return a spec that still fails.
  const ScenarioSpec spec = generate_scenario(4);
  const std::uint32_t pin = spec.node_count;
  const auto fails = [pin](const ScenarioSpec& s) {
    return s.node_count >= pin;
  };
  ASSERT_TRUE(fails(spec));
  const ScenarioSpec shrunk = shrink_scenario(spec, fails, 400);
  EXPECT_TRUE(fails(shrunk));
}

}  // namespace
}  // namespace dust::check
