// Seeded transportation-problem families shared by the digest test and the
// differential test. Each family generates its instances from a fixed seed,
// solves them in a fixed order (some solves take the previous result as a
// warm hint or retained basis) and hands every (problem, result) pair to a
// sink, so both tests see the same 1253 solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "solver/transportation.hpp"

namespace dust::solver::families {

using SolveSink = std::function<void(const TransportationProblem& problem,
                                     const TransportationResult& result)>;

double sum(const std::vector<double>& v);

/// Zero-capacity columns behind forbidden (big-M) cells with integer
/// quantities: the degenerate regime of the DegenerateCycling family.
TransportationProblem cycling_instance(std::uint64_t seed, bool integer_costs);

void cold_solves(const SolveSink& sink);
void warm_flow_hints(const SolveSink& sink);
void dirty_basis_resolves(const SolveSink& sink);
void integer_ties(const SolveSink& sink);
void forbidden_cells(const SolveSink& sink);
void dummy_row_and_infeasible(const SolveSink& sink);
void degenerate_cycling(const SolveSink& sink);
void edge_shapes(const SolveSink& sink);
void long_dirty_chains(const SolveSink& sink);
void replan_shaped(const SolveSink& sink);
/// DegenerateCycling's instances and chains on seeds picked so that 26 of
/// the 30 solves switch to Bland's rule, the anti-cycling path that block
/// search itself reaches in only 5 of DegenerateCycling's 30.
void bland_fallbacks(const SolveSink& sink);

struct Family {
  const char* name;
  void (*run)(const SolveSink& sink);
};

inline constexpr Family kAll[] = {
    {"ColdSolves", cold_solves},
    {"WarmFlowHints", warm_flow_hints},
    {"DirtyBasisResolves", dirty_basis_resolves},
    {"IntegerTies", integer_ties},
    {"ForbiddenCells", forbidden_cells},
    {"DummyRowAndInfeasible", dummy_row_and_infeasible},
    {"DegenerateCycling", degenerate_cycling},
    {"EdgeShapes", edge_shapes},
    {"LongDirtyChains", long_dirty_chains},
    {"ReplanShaped", replan_shaped},
    {"BlandFallbacks", bland_fallbacks},
};

}  // namespace dust::solver::families
