// dust::check differential oracles (DESIGN.md §9): independent ways of
// computing the same answer, cross-checked on randomly generated instances.
//
//   O1 solver agreement   transportation simplex vs general simplex vs
//                         min-cost-flow: same feasibility verdict, same
//                         optimal objective
//   O2 exact ground truth brute-force vertex enumeration (solver/exhaustive)
//                         on small instances
//   O3 warm vs cold       a warm-started re-solve must reproduce the cold
//                         objective bit-for-near (warm starts change the
//                         pivot path, never the optimum)
//   O4 Trmin cache        ResponseTimeCache-served rows == fresh evaluation
//   O5 heuristic          HFR ≥ 0; a complete heuristic placement implies
//                         the exact model is feasible with objective ≤ the
//                         heuristic's (the heuristic solution is a feasible
//                         point of the exact model when max_hops ≥ radius)
//   O6 dirty basis        re-solving from the retained simplex basis after a
//                         fuzzed schedule of cost-cell perturbations must
//                         reproduce the cold verdict and objective at every
//                         step (and the exhaustive optimum when small)
#pragma once

#include <cstddef>
#include <cstdint>

#include "check/invariants.hpp"
#include "core/heuristic.hpp"
#include "core/nmdb.hpp"
#include "core/optimizer.hpp"

namespace dust::check {

struct OracleOptions {
  /// O1/O2 run only when busy*candidates ≤ this many cells (the general
  /// simplex and enumeration get expensive fast).
  std::size_t max_cells = 64;
  /// O2 runs only when the enumeration would visit at most this many
  /// subsets (see solver::exhaustive_base_count).
  std::size_t max_exhaustive_bases = 200000;
  double tolerance = 1e-6;
  bool check_solvers = true;     ///< O1 + O2
  bool check_warm_start = true;  ///< O3
  bool check_cache = true;       ///< O4
  bool check_heuristic = true;   ///< O5
  bool check_dirty_basis = true; ///< O6
  /// O6 fuzz schedule: this many cost-perturbation rounds, each touching a
  /// random subset of finite cells (mostly drift, occasional bursts — the
  /// link-churn shape the engine feeds the solver).
  std::size_t dirty_basis_steps = 8;
  std::uint64_t dirty_basis_seed = 0xD0575EEDull;
};

/// O1 + O2 on an already-built problem, platform factors included: every
/// solver sees the same rescaled transportation form (core::to_transportation).
[[nodiscard]] std::vector<Violation> cross_check_solvers(
    const core::PlacementProblem& problem, const OracleOptions& options = {});

/// All applicable oracles from an NMDB snapshot (builds its own problems:
/// fresh vs cached Trmin, warm vs cold solves, heuristic vs exact).
[[nodiscard]] std::vector<Violation> cross_check_nmdb(
    const core::Nmdb& nmdb, const core::PlacementOptions& placement,
    const OracleOptions& options = {});

}  // namespace dust::check
