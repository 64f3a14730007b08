// dust::check smoke: 50 seeded random scenarios (mixed topologies, churn,
// node deaths, transport fault schedules) through the full Manager/Client
// protocol loop, with the invariant catalog checked after every placement
// cycle and the differential oracles on size-gated cycles. A failure prints
// the seed and the annotated .scn dump, so the exact case replays with
//   ScenarioSpec spec = generate_scenario(<seed>); run_scenario(spec);
#include "check/runner.hpp"

#include <gtest/gtest.h>

#include "check/shrink.hpp"
#include "obs/metrics.hpp"

namespace dust::check {
namespace {

class HarnessSmoke : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HarnessSmoke, InvariantsAndOraclesHoldUnderFaults) {
  const std::uint64_t seed = GetParam();
  const ScenarioSpec spec = generate_scenario(seed);
  const RunReport report = run_scenario(spec);
  EXPECT_TRUE(report.passed())
      << "seed " << seed << " (" << to_string(spec.topology) << ", n="
      << spec.node_count << ") violated:\n"
      << describe(report.violations) << "\nreplayable scenario:\n"
      << dump_scenario(spec);
  EXPECT_GT(report.cycles_observed, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HarnessSmoke,
                         ::testing::Range<std::uint64_t>(1, 51));

// The fuzz only proves something if the generated population actually
// exercises the interesting machinery: offloads, keepalive failures with
// replica substitution, message drops from the fault schedules, and warm
// starts remapped across churn, each cross-checked against a cold solve.
TEST(HarnessSmokeCoverage, PopulationExercisesProtocolAndFaults) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  obs::Counter& remaps = registry.counter("dust_solver_remapped_starts_total");
  obs::Counter& mismatches =
      registry.counter("dust_solver_warm_verify_mismatch_total");
  const std::uint64_t remaps_before = remaps.value();
  const std::uint64_t mismatches_before = mismatches.value();
  std::size_t offloads = 0, keepalive_failures = 0, oracle_cycles = 0;
  std::uint64_t reps = 0, dropped = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const RunReport report = run_scenario(generate_scenario(seed));
    offloads += report.offloads_created;
    keepalive_failures += report.keepalive_failures;
    oracle_cycles += report.oracle_cycles;
    reps += report.reps_received;
    dropped += report.messages_dropped;
  }
  EXPECT_GT(offloads, 0u);
  EXPECT_GT(keepalive_failures, 0u);
  EXPECT_GT(oracle_cycles, 0u);
  EXPECT_GT(reps, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(remaps.value() - remaps_before, 0u);
  EXPECT_EQ(mismatches.value() - mismatches_before, 0u);
}

}  // namespace
}  // namespace dust::check
