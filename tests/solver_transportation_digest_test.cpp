// Digest test for the transportation simplex.
//
// Every solve of the seeded families in solver_transportation_families.cpp
// is folded into one FNV-1a digest per family: status, pivot count,
// dirty-path flag, objective bits and the optimum's basic cells (index and
// flow bits). Any change to the start order, the pricing or the pivot
// changes them.
//
// The digests were re-recorded when two rules moved the pivot sequence on
// purpose. The least-cost start orders cells by (warm first, cost, cell
// index) with a stable radix sort; before, equal costs came out in whatever
// order std::sort's introsort left them, which no standard pins, so every
// instance with tied costs starts from a different basis. And pricing is
// block search, which enters the most negative cell of the first block of
// cells holding an improving one, where lower-bounded Dantzig entered the
// most negative cell of the whole grid; pivot counts change, and at a
// degenerate optimum so do the final basis and flows. Statuses and
// objectives did not move: solver_transportation_differential_test checks
// them against values recorded from the previous rules.
//
// They were re-recorded again when the start took the slack row last:
// (warm, real rows before the slack row, cost, cell). The zero-cost slack
// row no longer takes spare capacity ahead of every real row, so most
// starts begin from another basis and need far fewer pivots, and among
// tied optima a different vertex can be reached. Solves still pivoting at
// 2(m+n) are probed once for a supply the allowed cells cannot carry, so
// infeasible big-M instances stop there instead of spending the budget.
// The digest now folds the optimum's cells instead of a dense flow grid.
//
// Re-record these only together with a statement of why the pivot
// sequence moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"
#include "solver/transportation.hpp"
#include "solver_transportation_families.hpp"

namespace dust::solver {
namespace {

class Digest {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < size; ++k) {
      hash_ ^= bytes[k];
      hash_ *= 0x100000001b3ull;
    }
  }
  void add_u64(std::uint64_t value) { add_bytes(&value, sizeof value); }
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add_u64(bits);
  }
  void add(const TransportationResult& r) {
    add_u64(static_cast<std::uint64_t>(r.status));
    add_u64(r.iterations);
    add_u64(r.dirty_resolve ? 1 : 0);
    add_double(r.objective);
    add_u64(r.cells.size());
    for (const TransportationCell& c : r.cells) {
      add_u64(c.index);
      add_double(c.flow);
    }
    ++solves_;
  }
  [[nodiscard]] std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }
  [[nodiscard]] std::size_t solves() const noexcept { return solves_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::size_t solves_ = 0;
};

void expect_digest(const Digest& d, const char* expected) {
  EXPECT_EQ(d.hex(), expected) << "over " << d.solves() << " solves";
}

using families::SolveSink;

// Folds every solve of `family` into one digest.
Digest digest_of(void (*family)(const SolveSink&)) {
  Digest d;
  family([&d](const TransportationProblem&, const TransportationResult& r) {
    d.add(r);
  });
  return d;
}

TEST(TransportationDigest, ColdSolves) {
  expect_digest(digest_of(families::cold_solves), "8d7351e6cdd94f6c");
}

TEST(TransportationDigest, WarmFlowHints) {
  expect_digest(digest_of(families::warm_flow_hints), "a605d9fde09733f0");
}

TEST(TransportationDigest, DirtyBasisResolves) {
  expect_digest(digest_of(families::dirty_basis_resolves), "4a1c664f9836926b");
}

TEST(TransportationDigest, IntegerTies) {
  expect_digest(digest_of(families::integer_ties), "ce18dc988d278bae");
}

TEST(TransportationDigest, ForbiddenCells) {
  expect_digest(digest_of(families::forbidden_cells), "1943e4f6040bc9ae");
}

TEST(TransportationDigest, DummyRowAndInfeasible) {
  expect_digest(digest_of(families::dummy_row_and_infeasible),
                "fdc324ccf2406c00");
}

// Zero-capacity columns behind forbidden (big-M) cells with integer
// quantities: the regime where big-M cancellation noise can keep the
// pricing cycling, held off by the magnitude-scaled tolerance and the Bland
// fallback. Five solves switch to Bland's rule (the cold and first dirty
// solves of seed 1137 and all three of seed 2785). Two reach the 2(m+n)
// pivot probe (the cold and first dirty solves of seed 2756): their
// instance cannot ship the full supply over allowed cells, and the max-flow
// check there reports kInfeasible. The digest pins both through each
// solve's status and pivot count.
TEST(TransportationDigest, DegenerateCycling) {
  expect_digest(digest_of(families::degenerate_cycling), "7bc55180c72fc3de");
}

// The same chains on seeds where block search falls back to Bland's rule
// in 26 of 30 solves, so the lowest-index pricing, its tie-breaking on the
// leaving arc and the full-tree potential walks stay covered. Each solve
// that switches bumps dust_solver_bland_fallbacks_total once.
TEST(TransportationDigest, BlandFallbacks) {
  obs::Counter& fallbacks = obs::MetricRegistry::global().counter(
      "dust_solver_bland_fallbacks_total");
  const std::uint64_t before = fallbacks.value();
  const Digest d = digest_of(families::bland_fallbacks);
  EXPECT_EQ(fallbacks.value() - before, 26u);
  expect_digest(d, "981bcb33ddb2ae4c");
}

// A DegenerateCycling seed whose cold solve switches to Bland's rule bumps
// dust_solver_bland_fallbacks_total exactly once; a solve that stays on
// block search leaves it alone.
TEST(TransportationMetrics, BlandFallbackCounted) {
  obs::Counter& fallbacks = obs::MetricRegistry::global().counter(
      "dust_solver_bland_fallbacks_total");
  const std::uint64_t before = fallbacks.value();
  TransportationProblem p;
  p.supply = {300, 400, 500};
  p.capacity = {250, 350, 600};
  p.cost = {3, 1, 7, 2, 6, 5, 8, 3, 3};
  ASSERT_TRUE(solve_transportation(p).optimal());
  EXPECT_EQ(fallbacks.value(), before);
  const TransportationResult r =
      solve_transportation(families::cycling_instance(388 * 7919 + 2, false));
  EXPECT_EQ(r.status, Status::kInfeasible);
  EXPECT_EQ(fallbacks.value(), before + 1);
}

// Infeasible big-M instances that used to spend 161k-424k pivots before the
// iteration-limit exit found the shortfall: the probe at 2(m+n) pivots
// (balanced rows, slack row included) ends them there, or the simplex
// proves them sooner.
TEST(TransportationPivotBound, InfeasibleBigMInstancesStopEarly) {
  for (const std::uint64_t seed : {2756, 24, 713}) {
    const TransportationProblem p =
        families::cycling_instance(seed * 7919 + 2, false);
    const TransportationResult r = solve_transportation(p);
    EXPECT_EQ(r.status, Status::kInfeasible) << "seed " << seed;
    EXPECT_LE(r.iterations, 2 * (p.sources() + 1 + p.destinations()))
        << "seed " << seed;
  }
}

// Edge shapes: a single row or a single column, and narrow grids whose
// width leaves odd tails in a row pass. With n <= 3 many rows end up with
// every cell basic, so their pricing rows hold no candidate at all.
// Feasible solves still pivoting at 2(m+n) on grids with forbidden cells:
// the probe runs, finds that the supply can ship, and the solve starts over
// from the same start with its full budget. Retracing the same pivots, it
// ends with the cells, objective and pivot count of one uninterrupted
// solve; the digest was recorded when the solve still resumed in place
// after a min-cost-flow probe.
TEST(TransportationDigest, ProbedFeasibleSolvesRetrace) {
  Digest d;
  for (const std::uint64_t seed : {23, 96, 358, 374, 497}) {
    const TransportationProblem p = families::cycling_instance(seed, false);
    const TransportationResult r = solve_transportation(p);
    const bool slack_row = families::sum(p.capacity) > families::sum(p.supply) + 1e-9;
    ASSERT_TRUE(r.optimal()) << "seed " << seed;
    EXPECT_GT(r.iterations,
              2 * (p.sources() + (slack_row ? 1 : 0) + p.destinations()))
        << "seed " << seed;
    d.add(r);
  }
  expect_digest(d, "e30ac872ac2248b4");
}

TEST(TransportationDigest, EdgeShapes) {
  expect_digest(digest_of(families::edge_shapes), "fd0483cbe7101a4c");
}

// Long dirty-basis chains: every solve after the first resumes from the
// previous optimal tree with about 30% of the cells repriced, so most
// pivots run straight after seed_basis on a basis far from optimal.
TEST(TransportationDigest, LongDirtyChains) {
  expect_digest(digest_of(families::long_dirty_chains), "07b6a1cfc211f247");
}

// Replan-shaped: 71 busy rows by 178 candidates plus the dummy row, costs
// drawn from a handful of response-time levels (many exact ties), 5%
// forbidden, and each cycle redraws 5% of the loads and passes the previous
// optimum as the warm hint, like a k=16 replan.
TEST(TransportationDigest, ReplanShaped) {
  expect_digest(digest_of(families::replan_shaped), "e2953901d93e27cb");
}

}  // namespace
}  // namespace dust::solver
