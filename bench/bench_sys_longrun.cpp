// System bench (beyond the paper's figures): closed-loop, long-horizon
// behaviour. Node loads drift as a bounded random walk over many rounds; in
// DUST mode the optimizer runs each round and the plan is applied to the
// network state (the what-if operator), while the baseline takes no action.
// Measures how much overload DUST removes over time — the operational
// promise behind Fig. 6, quantified longitudinally.
#include <iostream>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "util/stats.hpp"

namespace {

using namespace dust;

struct LongRunStats {
  std::size_t overloaded_node_rounds = 0;
  std::size_t node_rounds = 0;
  util::RunningStats peak_utilization;
  double offloaded_total = 0.0;

  [[nodiscard]] double overload_fraction() const {
    return node_rounds ? static_cast<double>(overloaded_node_rounds) /
                             static_cast<double>(node_rounds)
                       : 0.0;
  }
};

LongRunStats run(bool with_dust, std::size_t rounds, std::uint64_t seed) {
  util::Rng rng(seed);
  core::Nmdb nmdb = bench::fat_tree_scenario(4, rng);
  // Start everyone mid-band so drift, not initialization, creates overloads.
  for (graph::NodeId v = 0; v < nmdb.node_count(); ++v)
    nmdb.network().set_node_utilization(v, rng.uniform(40.0, 70.0));

  core::OptimizerOptions options;
  options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
  options.allow_partial = true;
  const core::OptimizationEngine engine(options);
  const core::Thresholds& thresholds = nmdb.default_thresholds();

  LongRunStats stats;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Load drift: mean-reverting (OU-style) so the system is stationary.
    // Most nodes hover around 55%; every 5th node is a hotspot reverting
    // to 88% — persistently busy unless its monitoring load is moved.
    for (graph::NodeId v = 0; v < nmdb.node_count(); ++v) {
      const double target = (v % 5 == 0) ? 88.0 : 55.0;
      const double current = nmdb.network().node_utilization(v);
      const double next =
          current + 0.15 * (target - current) + rng.normal(0.0, 2.5);
      nmdb.network().set_node_utilization(v, std::clamp(next, 10.0, 100.0));
    }
    if (with_dust) {
      const core::PlacementResult result = engine.run(nmdb);
      if (!result.assignments.empty()) {
        core::apply_assignments(nmdb, result.assignments);
        stats.offloaded_total += result.offloaded_total();
      }
    }
    double peak = 0.0;
    for (graph::NodeId v = 0; v < nmdb.node_count(); ++v) {
      const double utilization = nmdb.network().node_utilization(v);
      peak = std::max(peak, utilization);
      ++stats.node_rounds;
      // Strict: a fully-shed origin lands exactly at Cmax by design
      // (Cs = C - Cmax); only genuine excess counts as overload.
      if (utilization > thresholds.c_max + 1e-9)
        ++stats.overloaded_node_rounds;
    }
    stats.peak_utilization.add(peak);
  }
  return stats;
}

}  // namespace

int main() {
  using namespace dust;
  bench::print_header(
      "System — long-horizon closed loop: drifting loads, DUST vs no action",
      "(not a paper figure; longitudinal view of the Fig. 6 promise)");

  const std::size_t rounds = bench::iterations(2000, 400);
  const LongRunStats baseline = run(false, rounds, bench::base_seed());
  const LongRunStats dust = run(true, rounds, bench::base_seed());

  util::Table table("closed-loop comparison (" + std::to_string(rounds) +
                    " rounds, 20 nodes)");
  table.set_precision(3).header({"metric", "no action", "DUST"});
  table.row({std::string("overloaded node-rounds (%)"),
             baseline.overload_fraction() * 100.0,
             dust.overload_fraction() * 100.0});
  table.row({std::string("mean peak utilization (%)"),
             baseline.peak_utilization.mean(), dust.peak_utilization.mean()});
  table.row({std::string("capacity moved (%-points total)"),
             0.0, dust.offloaded_total});
  bench::emit(table);

  std::cout << "\nexpectation: DUST cuts overloaded node-rounds by an order "
               "of magnitude and caps peak utilization near Cmax\n";
  return 0;
}
