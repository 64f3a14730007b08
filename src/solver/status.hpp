// Solve status and the infinity that marks a forbidden cell or an unbounded
// variable: shared by the transportation engine, the min-cost flow, the
// exhaustive oracle and the general simplex in dust::check (check/lp.hpp).
#pragma once

#include <limits>

namespace dust::solver {

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

[[nodiscard]] constexpr const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace dust::solver
