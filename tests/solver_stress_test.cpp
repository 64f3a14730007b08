// Stress and adversarial cases for the solver suite: classic cycling
// examples, larger random cross-validation, and scaling pathologies.
#include <gtest/gtest.h>

#include "check/simplex.hpp"
#include "solver/transportation.hpp"
#include "solver_dense_flow.hpp"
#include "util/rng.hpp"

namespace dust::solver {
namespace {

using namespace dust::check;

TEST(SimplexStress, BealesCyclingExample) {
  // Beale (1955): cycles forever under naive Dantzig pivoting without
  // anti-cycling. Optimum -0.05 at x = (1/25, 0, 1, 0).
  LinearProgram lp;
  const auto x1 = lp.add_variable(0, kInfinity, -0.75);
  const auto x2 = lp.add_variable(0, kInfinity, 150.0);
  const auto x3 = lp.add_variable(0, kInfinity, -0.02);
  const auto x4 = lp.add_variable(0, kInfinity, 6.0);
  lp.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                    Sense::kLessEqual, 0.0);
  lp.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                    Sense::kLessEqual, 0.0);
  lp.add_constraint({{x3, 1.0}}, Sense::kLessEqual, 1.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
  EXPECT_NEAR(s.values[x3], 1.0, 1e-9);
}

TEST(SimplexStress, KuhnCyclingExample) {
  // Another classic cycler (Kuhn). min -2a -3b + c + 12d with the standard
  // cycling rows; anti-cycling must terminate at the optimum.
  LinearProgram lp;
  const auto a = lp.add_variable(0, kInfinity, -2.0);
  const auto b = lp.add_variable(0, kInfinity, -3.0);
  const auto c = lp.add_variable(0, kInfinity, 1.0);
  const auto d = lp.add_variable(0, kInfinity, 12.0);
  lp.add_constraint({{a, -2.0}, {b, -9.0}, {c, 1.0}, {d, 9.0}},
                    Sense::kLessEqual, 0.0);
  lp.add_constraint({{a, 1.0 / 3.0}, {b, 1.0}, {c, -1.0 / 3.0}, {d, -2.0}},
                    Sense::kLessEqual, 0.0);
  lp.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}, {d, 1.0}},
                    Sense::kLessEqual, 1.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_LT(s.objective, 0.0);
  EXPECT_LT(lp.max_violation(s.values), 1e-7);
}

TEST(SimplexStress, ManyRedundantConstraints) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, -1.0);
  for (int i = 0; i < 200; ++i)
    lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 10.0 + (i % 7));
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.values[x], 10.0, 1e-9);
}

TEST(SimplexStress, WideRangeOfCoefficientMagnitudes) {
  LinearProgram lp;
  const auto x = lp.add_variable(0, kInfinity, -1e-6);
  const auto y = lp.add_variable(0, kInfinity, -1e6);
  lp.add_constraint({{x, 1e-4}, {y, 1e4}}, Sense::kLessEqual, 1.0);
  const Solution s = solve_simplex(lp);
  ASSERT_EQ(s.status, Status::kOptimal);
  // All budget goes to y: y = 1e-4, objective -100.
  EXPECT_NEAR(s.objective, -100.0, 1e-6);
}

class BigTransportationSweep : public ::testing::TestWithParam<std::uint64_t> {
};

// Larger instances: the specialized solver must stay exact (simplex agrees)
// and feasible at 30x60 with mixed forbidden cells.
TEST_P(BigTransportationSweep, LargeInstancesStayExact) {
  util::Rng rng(GetParam());
  const std::size_t m = 30, n = 60;
  TransportationProblem p;
  double total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    p.supply.push_back(rng.uniform(0.5, 8.0));
    total += p.supply.back();
  }
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(total / n + rng.uniform(0.1, 2.0));
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.bernoulli(0.1) ? kInfinity : rng.uniform(0.05, 4.0));
  const TransportationResult r = solve_transportation(p);
  if (r.status != Status::kOptimal) {
    // Forbidden cells can genuinely block feasibility; simplex must agree.
    EXPECT_EQ(solve_simplex(to_linear_program(p)).status, Status::kInfeasible);
    return;
  }
  const Solution s = solve_simplex(to_linear_program(p));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, s.objective, 1e-4 * (1.0 + s.objective));
  // Row/column feasibility.
  const std::vector<double> flow = dense_flow(r, m * n);
  for (std::size_t i = 0; i < m; ++i) {
    double shipped = 0;
    for (std::size_t j = 0; j < n; ++j) shipped += flow[i * n + j];
    EXPECT_NEAR(shipped, p.supply[i], 1e-6);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double absorbed = 0;
    for (std::size_t i = 0; i < m; ++i) absorbed += flow[i * n + j];
    EXPECT_LE(absorbed, p.capacity[j] + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigTransportationSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace dust::solver
