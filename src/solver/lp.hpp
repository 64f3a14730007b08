// Linear program model and solution types.
//
// This is the in-tree replacement for the Gurobi toolkit the paper used. The
// DUST placement model (Eq. 3) is a transportation problem once platform
// factors are rescaled (core::to_transportation), solved by the dedicated
// transportation solver (transportation.hpp); the general simplex
// (simplex.hpp) solves its LP form as a cross-check and the models that are
// not pure networks (heterogeneous partial offload, multi-resource).
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace dust::solver {

enum class Sense { kLessEqual, kGreaterEqual, kEqual };

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

[[nodiscard]] const char* to_string(Status status) noexcept;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One linear constraint: sum(coeff * var) sense rhs.
struct Constraint {
  std::vector<std::pair<std::size_t, double>> terms;
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
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
  Status status = Status::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::size_t iterations = 0;  // simplex pivots

  [[nodiscard]] bool optimal() const noexcept { return status == Status::kOptimal; }
};

}  // namespace dust::solver
