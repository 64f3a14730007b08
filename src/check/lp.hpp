// Linear program model and solution types for the general simplex
// (simplex.hpp), O1's independent oracle (DESIGN.md §9).
//
// The DUST placement model (Eq. 3) is a transportation problem once
// platform factors are rescaled (core::to_transportation), and the engine
// solves it, exact or partial, on the transportation solver alone
// (solver/transportation.hpp). The general simplex solves the same model in
// its LP form (to_linear_program), or in the paper's x-space, so tests and
// the dust::check oracles can hold the engine to an answer computed without
// any of its code.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "solver/status.hpp"
#include "solver/transportation.hpp"

namespace dust::check {

enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// One linear constraint: sum(coeff * var) sense rhs.
struct Constraint {
  std::vector<std::pair<std::size_t, double>> terms;
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

struct Variable {
  double lower = 0.0;
  double upper = solver::kInfinity;
  double objective = 0.0;
};

/// Minimization LP. Variables are referenced by dense index.
class LinearProgram {
 public:
  std::size_t add_variable(double lower, double upper, double objective);

  /// Terms may repeat a variable; coefficients are summed.
  void add_constraint(Constraint constraint);
  void add_constraint(std::vector<std::pair<std::size_t, double>> terms,
                      Sense sense, double rhs);

  [[nodiscard]] std::size_t variable_count() const noexcept {
    return variables_.size();
  }
  [[nodiscard]] std::size_t constraint_count() const noexcept {
    return constraints_.size();
  }
  [[nodiscard]] const Variable& variable(std::size_t index) const {
    return variables_.at(index);
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Max constraint/bound violation of an assignment (0 = feasible).
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

struct Solution {
  solver::Status status = solver::Status::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::size_t iterations = 0;  // simplex pivots

  [[nodiscard]] bool optimal() const noexcept {
    return status == solver::Status::kOptimal;
  }
};

/// Express a transportation problem as a LinearProgram (variables row-major
/// x_ij, forbidden cells fixed at zero) for cross-checking the engine.
LinearProgram to_linear_program(const solver::TransportationProblem& problem);

}  // namespace dust::check
