// Figure 9: success-rate comparison of the ILP optimization vs the one-hop
// heuristic (Algorithm 1) on the 4-k fat-tree over random iterations.
// Paper (100 iterations): heuristic fully offloaded everything in 18.37% of
// iterations, failed entirely in 6.13% (where optimization succeeded), and
// partially offloaded in the remaining 75.5%.
#include <iostream>

#include "bench_common.hpp"
#include "core/heuristic.hpp"
#include "core/optimizer.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace dust;
  bench::print_header(
      "Figure 9 — optimization vs heuristic success rate (4-k fat-tree)",
      "heuristic: ~18.4% full, ~75.5% partial, ~6.1% none (opt succeeds)");

  const std::size_t runs = bench::iterations(1000, 200);
  std::size_t full = 0, partial = 0, none = 0, skipped = 0;
  util::RunningStats hfr;

  // The paper does not state its load distribution; the default profile
  // (loads uniform in [10, 100]) leaves candidates with large spare
  // capacity, which inflates the heuristic full-offload share. A
  // contended profile — loads uniform in [35, 100], so candidates hold at
  // most 25 points of spare and busy nodes compete for them — reproduces
  // the paper's full/partial/none shape (see EXPERIMENTS.md).
  net::NodeLoadProfile contended;
  contended.x_min = 35.0;

  util::Rng root(bench::base_seed());
  for (std::size_t i = 0; i < runs; ++i) {
    util::Rng rng = root.fork(i);
    net::NetworkState state = net::make_random_state(
        graph::FatTree(4).graph(), net::LinkProfile{}, contended, rng);
    core::Nmdb nmdb(std::move(state), core::Thresholds{});
    // Condition on iterations where the full optimization succeeds, as the
    // paper does (io-rate iterations are Figure 7's subject).
    core::OptimizerOptions options;
    options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
    const core::PlacementResult opt = core::OptimizationEngine(options).run(nmdb);
    if (!opt.optimal() || nmdb.busy_nodes().empty()) {
      ++skipped;
      continue;
    }
    const core::HeuristicResult h = core::HeuristicEngine().run(nmdb);
    hfr.add(h.hfr_percent());
    if (h.complete())
      ++full;
    else if (h.total_cse >= h.total_cs - 1e-9)
      ++none;
    else
      ++partial;
  }

  const double counted = static_cast<double>(full + partial + none);
  util::Table table("Figure 9 — heuristic outcome distribution");
  table.set_precision(2).header({"outcome", "share_%", "paper_%"});
  table.row({std::string("fully offloaded by heuristic"),
             100.0 * full / counted, 18.37});
  table.row({std::string("partially offloaded"), 100.0 * partial / counted,
             75.5});
  table.row({std::string("nothing offloaded (opt succeeds)"),
             100.0 * none / counted, 6.13});
  bench::emit(table);

  util::Table extra("supporting measurements");
  extra.set_precision(2).header({"metric", "value"});
  extra.row({std::string("iterations counted"),
             static_cast<std::int64_t>(counted)});
  extra.row({std::string("iterations skipped (opt infeasible / no busy)"),
             static_cast<std::int64_t>(skipped)});
  extra.row({std::string("mean HFR (%)"), hfr.mean()});
  bench::emit(extra);

  std::cout << "\nexpectation: partial dominates (>50%), full and none are "
               "minorities — the paper's 18.4/75.5/6.1 split shape\n";
  return 0;
}
