// Exhaustive transportation oracle: provably optimal reference for tiny
// instances, used by the dust::check differential tests to validate the
// production solvers (transportation simplex, general simplex, MCMF)
// against ground truth.
//
// The instance is balanced with a zero-cost dummy source row (exactly as
// solve_transportation does), after which every basic feasible solution
// corresponds to a spanning tree of the bipartite row/column graph. The
// oracle enumerates all C(M*N, M+N-1) cell subsets, keeps the spanning
// trees, solves each one's flows by leaf elimination, and takes the minimum
// cost over the feasible (nonnegative, no-forbidden-flow) vertices. The LP
// optimum is attained at a vertex, so the minimum is exact — no pivoting,
// no degeneracy handling, nothing shared with the solvers under test.
#pragma once

#include "solver/transportation.hpp"

namespace dust::solver {

/// Exact optimum by brute-force vertex enumeration. Intended for instances
/// with (sources + 1) * destinations cells small enough that the
/// enumeration stays under `max_bases` subsets; throws std::invalid_argument
/// when it would not (callers gate on instance size, see
/// exhaustive_base_count).
TransportationResult solve_transportation_exhaustive(
    const TransportationProblem& problem, std::size_t max_bases = 2000000);

/// Number of cell subsets the oracle would enumerate for this instance
/// (C(M*N, M+N-1) with the dummy row included), saturated at
/// std::numeric_limits<std::size_t>::max(). Use to gate oracle application.
[[nodiscard]] std::size_t exhaustive_base_count(
    const TransportationProblem& problem);

}  // namespace dust::solver
