// dust::check invariant-catalog tests: hand-built placement problems with
// deliberately broken results must trip exactly the invariant they violate
// (I1 capacity, I2 drain, I3 hop bound, I4 membership, I5 sign/objective),
// and a correct optimum must pass clean.
#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/topology.hpp"
#include "solver/status.hpp"

namespace dust::check {
namespace {

using core::Assignment;
using core::PlacementProblem;
using core::PlacementResult;

PlacementProblem two_by_two() {
  PlacementProblem p;
  p.busy = {0, 1};
  p.candidates = {2, 3};
  p.cs = {10.0, 5.0};
  p.cd = {12.0, 8.0};
  p.trmin = {1.0, 2.0,   // busy 0 → {2, 3}
             3.0, 4.0};  // busy 1 → {2, 3}
  return p;
}

PlacementResult clean_optimum() {
  PlacementResult r;
  r.status = solver::Status::kOptimal;
  r.assignments = {{0, 2, 10.0, 1.0}, {1, 3, 5.0, 4.0}};
  r.objective = 10.0 * 1.0 + 5.0 * 4.0;
  return r;
}

bool has(const std::vector<Violation>& violations, const std::string& name) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.invariant == name; });
}

TEST(Invariants, CleanOptimumPasses) {
  const std::vector<Violation> v =
      check_placement(two_by_two(), clean_optimum());
  EXPECT_TRUE(v.empty()) << describe(v);
}

TEST(Invariants, OverfilledCapacityTripsI1) {
  PlacementResult r;
  r.status = solver::Status::kOptimal;
  // Everything dumped on destination 3 (Cd = 8): 15 > 8.
  r.assignments = {{0, 3, 10.0, 2.0}, {1, 3, 5.0, 4.0}};
  r.objective = 10.0 * 2.0 + 5.0 * 4.0;
  const std::vector<Violation> v = check_placement(two_by_two(), r);
  EXPECT_TRUE(has(v, "I1-capacity")) << describe(v);
  EXPECT_FALSE(has(v, "I2-drain")) << describe(v);
}

TEST(Invariants, UnderDrainTripsI2) {
  PlacementResult r;
  r.status = solver::Status::kOptimal;
  r.assignments = {{0, 2, 6.0, 1.0}};  // busy 0 sheds 6 of 10; busy 1 nothing
  r.objective = 6.0;
  const std::vector<Violation> v = check_placement(two_by_two(), r);
  EXPECT_TRUE(has(v, "I2-drain")) << describe(v);
}

TEST(Invariants, PartialSolveAccountsForUnplacedRemainder) {
  PlacementResult r;
  r.status = solver::Status::kOptimal;
  r.assignments = {{0, 2, 6.0, 1.0}};
  r.objective = 6.0;
  r.unplaced = 9.0;  // ΣCs − shed = 15 − 6
  const std::vector<Violation> ok = check_placement(two_by_two(), r);
  EXPECT_TRUE(ok.empty()) << describe(ok);

  r.unplaced = 3.0;  // books don't balance: shed 6 != 15 − 3
  EXPECT_TRUE(has(check_placement(two_by_two(), r), "I2-drain"));
}

TEST(Invariants, OverShedTripsI2EvenWhenPartial) {
  PlacementResult r;
  r.status = solver::Status::kOptimal;
  // busy 1 (Cs = 5) ships 12 — more than it ever had to shed.
  r.assignments = {{1, 2, 12.0, 3.0}};
  r.objective = 36.0;
  r.unplaced = 3.0;
  EXPECT_TRUE(has(check_placement(two_by_two(), r), "I2-drain"));
}

TEST(Invariants, ForbiddenCellTripsI3) {
  PlacementProblem p = two_by_two();
  p.trmin[0] = solver::kInfinity;  // 0 → 2 has no route within max-hops
  PlacementResult r;
  r.status = solver::Status::kOptimal;
  r.assignments = {{0, 2, 10.0, 0.0}, {1, 3, 5.0, 4.0}};
  r.objective = 20.0;
  EXPECT_TRUE(has(check_placement(p, r), "I3-hop-bound"));
}

TEST(Invariants, OutOfSetAssignmentTripsI4) {
  PlacementResult r = clean_optimum();
  r.assignments.push_back({7, 2, 0.0, 1.0});  // node 7 is not busy
  EXPECT_TRUE(has(check_placement(two_by_two(), r), "I4-membership"));
  r = clean_optimum();
  r.assignments[0].to = 1;  // busy node as destination
  EXPECT_TRUE(has(check_placement(two_by_two(), r), "I4-membership"));
}

TEST(Invariants, NegativeFlowTripsI5) {
  PlacementResult r = clean_optimum();
  r.assignments.push_back({0, 3, -2.0, 2.0});
  EXPECT_TRUE(has(check_placement(two_by_two(), r), "I5-sign"));
}

TEST(Invariants, MisreportedObjectiveTripsI5) {
  PlacementResult r = clean_optimum();
  r.objective = 999.0;
  EXPECT_TRUE(has(check_placement(two_by_two(), r), "I5-sign"));
}

TEST(Invariants, HeterogeneousCapacityUsesPlatformCoefficients) {
  PlacementProblem p = two_by_two();
  p.busy_factor = {2.0, 1.0};       // busy 0's load is twice as heavy...
  p.candidate_factor = {1.0, 1.0};  // ...on either destination
  PlacementResult r = clean_optimum();
  // busy 0 ships 10 units → destination 2 absorbs 20 > Cd 12.
  EXPECT_TRUE(has(check_placement(p, r), "I1-capacity"));
}

TEST(Invariants, UnboundedVerdictIsItselfAViolation) {
  PlacementResult r;
  r.status = solver::Status::kUnbounded;
  EXPECT_TRUE(has(check_placement(two_by_two(), r), "I2-drain"));
}

TEST(Invariants, ExplicitInfeasibleIsNotAViolation) {
  PlacementResult r;
  r.status = solver::Status::kInfeasible;
  EXPECT_TRUE(check_placement(two_by_two(), r).empty());
}

TEST(Invariants, RolesCatchOffloadToOptedOutNode) {
  net::NetworkState state(graph::make_ring(4));
  core::Nmdb nmdb(std::move(state), core::Thresholds{});
  nmdb.set_offload_capable(2, false);
  PlacementResult r;
  r.status = solver::Status::kOptimal;
  r.assignments = {{0, 2, 5.0, 1.0}};
  const std::vector<Violation> v = check_roles(nmdb, r);
  ASSERT_TRUE(has(v, "I4-membership")) << describe(v);
  EXPECT_NE(v.front().detail.find("None-offloading"), std::string::npos);
  nmdb.set_offload_capable(2, true);
  EXPECT_TRUE(check_roles(nmdb, r).empty());
}

}  // namespace
}  // namespace dust::check
