#include "check/lp.hpp"

#include <cmath>
#include <stdexcept>

namespace dust::check {

using solver::kInfinity;

std::size_t LinearProgram::add_variable(double lower, double upper,
                                        double objective) {
  if (!(lower <= upper))
    throw std::invalid_argument("LinearProgram: lower > upper for variable");
  variables_.push_back(Variable{lower, upper, objective});
  return variables_.size() - 1;
}

void LinearProgram::add_constraint(Constraint constraint) {
  for (const auto& [var, coeff] : constraint.terms) {
    (void)coeff;
    if (var >= variables_.size())
      throw std::out_of_range("LinearProgram: constraint references unknown variable");
  }
  constraints_.push_back(std::move(constraint));
}

void LinearProgram::add_constraint(
    std::vector<std::pair<std::size_t, double>> terms, Sense sense, double rhs) {
  add_constraint(Constraint{std::move(terms), sense, rhs});
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i)
    total += variables_[i].objective * x.at(i);
  return total;
}

double LinearProgram::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    worst = std::max(worst, variables_[i].lower - x.at(i));
    if (variables_[i].upper != kInfinity)
      worst = std::max(worst, x.at(i) - variables_[i].upper);
  }
  for (const Constraint& con : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : con.terms) lhs += coeff * x.at(var);
    switch (con.sense) {
      case Sense::kLessEqual: worst = std::max(worst, lhs - con.rhs); break;
      case Sense::kGreaterEqual: worst = std::max(worst, con.rhs - lhs); break;
      case Sense::kEqual: worst = std::max(worst, std::abs(lhs - con.rhs)); break;
    }
  }
  return worst;
}

LinearProgram to_linear_program(const solver::TransportationProblem& problem) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  LinearProgram lp;
  for (double cost : problem.cost)  // forbidden cells are fixed at zero
    lp.add_variable(0.0, cost == kInfinity ? 0.0 : kInfinity,
                    cost == kInfinity ? 0.0 : cost);
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < n; ++j) terms.emplace_back(i * n + j, 1.0);
    lp.add_constraint(std::move(terms), Sense::kEqual, problem.supply[i]);
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t i = 0; i < m; ++i) terms.emplace_back(i * n + j, 1.0);
    lp.add_constraint(std::move(terms), Sense::kLessEqual, problem.capacity[j]);
  }
  return lp;
}

}  // namespace dust::check
