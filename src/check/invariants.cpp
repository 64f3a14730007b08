#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "solver/status.hpp"

namespace dust::check {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::size_t index_of(const std::vector<graph::NodeId>& nodes,
                     graph::NodeId node) {
  const auto it = std::find(nodes.begin(), nodes.end(), node);
  return it == nodes.end() ? nodes.size()
                           : static_cast<std::size_t>(it - nodes.begin());
}

}  // namespace

std::vector<Violation> check_placement(const core::PlacementProblem& problem,
                                       const core::PlacementResult& result,
                                       const InvariantOptions& options) {
  std::vector<Violation> out;
  const double eps = options.tolerance;

  if (result.status == solver::Status::kUnbounded) {
    out.push_back({"I2-drain", "placement reported unbounded — the model is "
                               "a bounded transportation problem"});
    return out;
  }
  if (result.status != solver::Status::kOptimal) return out;  // explicit

  const std::size_t m = problem.busy.size();
  const std::size_t n = problem.candidates.size();
  std::vector<double> shed(m, 0.0);
  std::vector<double> absorbed(n, 0.0);
  double objective = 0.0;

  for (const core::Assignment& a : result.assignments) {
    const std::size_t bi = index_of(problem.busy, a.from);
    const std::size_t cj = index_of(problem.candidates, a.to);
    if (bi == m || cj == n) {
      out.push_back({"I4-membership",
                     "assignment " + std::to_string(a.from) + "→" +
                         std::to_string(a.to) +
                         " references a node outside busy/candidate sets"});
      continue;
    }
    if (a.amount < -eps)
      out.push_back({"I5-sign", "negative flow " + fmt(a.amount) + " on " +
                                    std::to_string(a.from) + "→" +
                                    std::to_string(a.to)});
    const double cost = problem.trmin_at(bi, cj);
    if (cost == solver::kInfinity)
      out.push_back({"I3-hop-bound",
                     "assignment " + std::to_string(a.from) + "→" +
                         std::to_string(a.to) +
                         " uses a forbidden cell (no route within max-hops)"});
    else
      objective += a.amount * cost;
    shed[bi] += a.amount;
    absorbed[cj] += a.amount * problem.capacity_coefficient(bi, cj);
  }

  for (std::size_t cj = 0; cj < n; ++cj) {
    if (absorbed[cj] > problem.cd[cj] + eps * std::max(1.0, problem.cd[cj]))
      out.push_back({"I1-capacity",
                     "destination " + std::to_string(problem.candidates[cj]) +
                         " absorbs " + fmt(absorbed[cj]) + " > Cd " +
                         fmt(problem.cd[cj])});
  }

  // Drain: with no partial remainder every busy node must shed exactly Cs_i;
  // a partial solve only promises Σ shed = ΣCs − unplaced.
  if (result.unplaced <= eps) {
    for (std::size_t bi = 0; bi < m; ++bi) {
      if (std::abs(shed[bi] - problem.cs[bi]) >
          eps * std::max(1.0, problem.cs[bi]))
        out.push_back({"I2-drain",
                       "busy node " + std::to_string(problem.busy[bi]) +
                           " sheds " + fmt(shed[bi]) + " != Cs " +
                           fmt(problem.cs[bi])});
    }
  } else {
    double total_shed = 0.0;
    for (double s : shed) total_shed += s;
    const double expected = problem.total_excess() - result.unplaced;
    if (std::abs(total_shed - expected) > eps * std::max(1.0, expected))
      out.push_back({"I2-drain", "partial solve shed " + fmt(total_shed) +
                                     " != ΣCs − unplaced = " + fmt(expected)});
    for (std::size_t bi = 0; bi < m; ++bi)
      if (shed[bi] > problem.cs[bi] + eps * std::max(1.0, problem.cs[bi]))
        out.push_back({"I2-drain",
                       "busy node " + std::to_string(problem.busy[bi]) +
                           " over-sheds " + fmt(shed[bi]) + " > Cs " +
                           fmt(problem.cs[bi])});
  }

  if (std::abs(objective - result.objective) >
      1e-6 * std::max(1.0, std::abs(result.objective)))
    out.push_back({"I5-sign", "reported objective " + fmt(result.objective) +
                                  " != Σ x·Trmin = " + fmt(objective)});
  return out;
}

std::vector<Violation> check_roles(const core::Nmdb& nmdb,
                                   const core::PlacementResult& result) {
  std::vector<Violation> out;
  for (const core::Assignment& a : result.assignments) {
    if (a.to >= nmdb.node_count() || a.from >= nmdb.node_count()) {
      out.push_back({"I4-membership", "assignment references node outside "
                                      "the topology"});
      continue;
    }
    if (!nmdb.offload_capable(a.to))
      out.push_back({"I4-membership",
                     "offload to None-offloading node " +
                         std::to_string(a.to) + " (opted out)"});
  }
  return out;
}

std::vector<Violation> check_cycle(const core::CycleObservation& observation,
                                   const InvariantOptions& options) {
  std::vector<Violation> out;
  if (observation.problem == nullptr || observation.result == nullptr)
    return {{Violation{"observer", "cycle observation missing problem/result"}}};
  std::vector<Violation> placement =
      check_placement(*observation.problem, *observation.result, options);
  out.insert(out.end(), placement.begin(), placement.end());
  if (observation.nmdb != nullptr) {
    std::vector<Violation> roles =
        check_roles(*observation.nmdb, *observation.result);
    out.insert(out.end(), roles.begin(), roles.end());
  }
  if (options.force_failure)
    out.push_back(Violation{
        "I0-forced", "synthetic violation requested by InvariantOptions"});
  return out;
}

std::string describe(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations)
    os << "[" << v.invariant << "] " << v.detail << "\n";
  return os.str();
}

}  // namespace dust::check
