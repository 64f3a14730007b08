#include "check/simplex.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace dust::solver {
namespace {

using namespace dust::check;

TEST(Simplex, TrivialTwoVariable) {
  // min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0 → (2, 2), obj -6.
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, -1.0);
  const auto y = lp.add_variable(0, kInfinity, -2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 4.0);
  lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 3.0);
  lp.add_constraint({{y, 1.0}}, Sense::kLessEqual, 2.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -6.0, 1e-9);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + y = 5, x >= 0, y >= 0 → obj 5.
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, 1.0);
  const auto y = lp.add_variable(0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 5.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
  EXPECT_NEAR(s.values[x] + s.values[y], 5.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraint) {
  // min 2x + 3y s.t. x + y >= 4, x >= 0, y >= 0 → x=4, y=0, obj 8.
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, 2.0);
  const auto y = lp.add_variable(0, kInfinity, 3.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 4.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_simplex(lp).status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, -1.0);
  lp.add_constraint({{x, -1.0}}, Sense::kLessEqual, 0.0);  // x >= 0, redundant
  EXPECT_EQ(solve_simplex(lp).status, Status::kUnbounded);
}

TEST(Simplex, RespectsUpperBounds) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 2.5, -1.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.values[x], 2.5, 1e-9);
  EXPECT_NEAR(s.objective, -2.5, 1e-9);
}

TEST(Simplex, RespectsNonzeroLowerBounds) {
  // min x with x in [3, 10] → 3.
  LinearProgram lp;
  const auto x = lp.add_variable(3.0, 10.0, 1.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.values[x], 3.0, 1e-9);
}

TEST(Simplex, FixedVariable) {
  LinearProgram lp;
  const auto x = lp.add_variable(4.0, 4.0, 1.0);
  const auto y = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 6.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
}

TEST(Simplex, FreeVariable) {
  // min x s.t. x >= -7 encoded as a constraint on a free variable.
  LinearProgram lp;
  const auto x = lp.add_variable(-kInfinity, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, -7.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.values[x], -7.0, 1e-9);
}

TEST(Simplex, UpperBoundOnlyVariable) {
  // max x (min -x) with x <= 5 and x >= 2 via constraint.
  LinearProgram lp;
  const auto x = lp.add_variable(-kInfinity, 5.0, -1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.values[x], 5.0, 1e-9);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -2 with min x + y → x=0, y=2.
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, 1.0);
  const auto y = lp.add_variable(0, kInfinity, 1.0);
  lp.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kLessEqual, -2.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints intersecting at the optimum.
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, -1.0);
  const auto y = lp.add_variable(0, kInfinity, -1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_constraint({{y, 1.0}}, Sense::kLessEqual, 1.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-9);
}

TEST(Simplex, ClassicBlendingProblem) {
  // min 0.12a + 0.15b s.t. 60a + 60b >= 300, 12a + 6b >= 36, 10a + 30b >= 90.
  // Known optimum: a = 3, b = 2, objective 0.66.
  LinearProgram lp;
  const auto a = lp.add_variable(0, kInfinity, 0.12);
  const auto b = lp.add_variable(0, kInfinity, 0.15);
  lp.add_constraint({{a, 60.0}, {b, 60.0}}, Sense::kGreaterEqual, 300.0);
  lp.add_constraint({{a, 12.0}, {b, 6.0}}, Sense::kGreaterEqual, 36.0);
  lp.add_constraint({{a, 10.0}, {b, 30.0}}, Sense::kGreaterEqual, 90.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 0.66, 1e-9);
  EXPECT_NEAR(s.values[a], 3.0, 1e-9);
  EXPECT_NEAR(s.values[b], 2.0, 1e-9);
}

TEST(Simplex, DuplicateTermsAggregate) {
  // x listed twice in a constraint: coefficients must sum (2x <= 4 → x <= 2).
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, -1.0);
  lp.add_constraint({{x, 1.0}, {x, 1.0}}, Sense::kLessEqual, 4.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
}

TEST(Simplex, SolutionSatisfiesModel) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    LinearProgram lp;
    const std::size_t n = 4;
    for (std::size_t i = 0; i < n; ++i)
      lp.add_variable(0, kInfinity, rng.uniform(-2, 2));
    for (int c = 0; c < 5; ++c) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t i = 0; i < n; ++i)
        terms.emplace_back(i, rng.uniform(0.1, 2.0));  // positive ⇒ bounded
      lp.add_constraint(std::move(terms), Sense::kLessEqual,
                        rng.uniform(1.0, 10.0));
    }
    const Solution s = solve_simplex(lp);
    ASSERT_EQ(s.status, Status::kOptimal) << "trial " << trial;
    EXPECT_LT(lp.max_violation(s.values), 1e-7);
    EXPECT_NEAR(lp.objective_value(s.values), s.objective, 1e-7);
  }
}

TEST(LinearProgram, ConstraintValidation) {
  LinearProgram lp;
  lp.add_variable(0, 1, 1.0);
  EXPECT_THROW(lp.add_constraint({{5, 1.0}}, Sense::kEqual, 0.0),
               std::out_of_range);
  EXPECT_THROW(lp.add_variable(2.0, 1.0, 0.0), std::invalid_argument);
}

TEST(LinearProgram, MaxViolationMeasures) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, 5, 1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 3.0);
  EXPECT_DOUBLE_EQ(lp.max_violation({2.0}), 0.0);
  EXPECT_DOUBLE_EQ(lp.max_violation({4.0}), 1.0);   // constraint violated
  EXPECT_DOUBLE_EQ(lp.max_violation({-1.0}), 1.0);  // bound violated
}

TEST(Status, ToStringCoversAll) {
  EXPECT_STREQ(to_string(Status::kOptimal), "optimal");
  EXPECT_STREQ(to_string(Status::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(Status::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(Status::kIterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace dust::solver
