// Ablation: paper-faithful exhaustive path enumeration vs the production
// shared-frontier evaluator (a sparse layered DP, the default) for Trmin
// (see DESIGN.md §5 item 1 and §13). Both compute identical Trmin; the
// frontier removes the exponential max-hop blow-up that dominates
// Figs 8/10 — quantified here.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/placement.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main() {
  using namespace dust;
  bench::print_header(
      "Ablation — Trmin evaluator: enumeration vs shared frontier",
      "identical optima; the frontier removes the exponential max-hop cost");

  const std::size_t runs = bench::iterations(20, 5);
  util::Table table("evaluator comparison");
  table.set_precision(6).header(
      {"k", "max_hop", "enum_s", "frontier_s", "speedup", "max_trmin_diff"});

  for (std::uint32_t k : {4u, 8u}) {
    for (std::uint32_t hops : {4u, 6u, 8u}) {
      util::RunningStats enum_s, frontier_s;
      double worst_diff = 0.0;
      util::Rng root(bench::base_seed() + k * 100 + hops);
      for (std::size_t i = 0; i < runs; ++i) {
        util::Rng rng = root.fork(i);
        core::Nmdb nmdb = bench::fat_tree_scenario(k, rng);
        core::PlacementOptions enum_opt;
        enum_opt.max_hops = hops;
        enum_opt.evaluator = net::EvaluatorMode::kEnumerate;
        core::PlacementOptions frontier_opt = enum_opt;
        frontier_opt.evaluator = net::EvaluatorMode::kSharedFrontier;

        util::Timer timer;
        const core::PlacementProblem a = build_placement_problem(nmdb, enum_opt);
        enum_s.add(timer.seconds());
        timer.restart();
        const core::PlacementProblem b =
            build_placement_problem(nmdb, frontier_opt);
        frontier_s.add(timer.seconds());
        for (std::size_t cell = 0; cell < a.trmin.size(); ++cell) {
          if (a.trmin[cell] == solver::kInfinity ||
              b.trmin[cell] == solver::kInfinity) {
            if (a.trmin[cell] != b.trmin[cell]) worst_diff = 1e9;
            continue;
          }
          worst_diff =
              std::max(worst_diff, std::abs(a.trmin[cell] - b.trmin[cell]));
        }
      }
      table.row({static_cast<std::int64_t>(k), static_cast<std::int64_t>(hops),
                 enum_s.mean(), frontier_s.mean(),
                 frontier_s.mean() > 0 ? enum_s.mean() / frontier_s.mean()
                                       : 0.0,
                 worst_diff});
    }
  }
  bench::emit(table);
  std::cout << "\nexpectation: max_trmin_diff ~ 0 (same optima); speedup "
               "grows with k and max_hop\n";
  return 0;
}
