// Two-phase dense tableau simplex for LinearProgram relaxations: O1's
// oracle (DESIGN.md §9), sharing no code with the transportation engine.
//
// Designed for the moderate problem sizes DUST generates (thousands of
// variables, hundreds of constraints). Uses Dantzig pricing with an automatic
// switch to Bland's rule after a degenerate streak, guaranteeing termination.
#pragma once

#include "check/lp.hpp"

namespace dust::check {

struct SimplexOptions {
  std::size_t max_iterations = 0;  ///< 0 = automatic (scales with model size)
  double tolerance = 1e-9;         ///< pivot / feasibility tolerance
  /// Consecutive degenerate pivots before switching to Bland's rule.
  std::size_t degenerate_streak_limit = 32;
};

/// Solve the LP.
Solution solve_simplex(const LinearProgram& lp, const SimplexOptions& options = {});

}  // namespace dust::check
