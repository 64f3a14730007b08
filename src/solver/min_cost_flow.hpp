// Generic min-cost max-flow (successive shortest paths with potentials).
//
// Second exact backend for the placement problem's transportation form
// (after the transportation simplex), used for cross-validation, the solver
// ablation bench, the kMinCostFlow backend's partial offload on homogeneous
// problems (an engine independent of the default backend's) and
// graph::edge_disjoint_paths. Costs must be non-negative; capacities and
// flows are real.
#pragma once

#include <cstddef>
#include <vector>

#include "solver/status.hpp"

namespace dust::solver {

class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t node_count);

  /// Directed arc with capacity >= 0 and cost >= 0. Returns arc id for flow
  /// queries after solve().
  std::size_t add_arc(std::size_t from, std::size_t to, double capacity,
                      double cost);

  struct FlowResult {
    double max_flow = 0.0;
    double total_cost = 0.0;
    std::size_t augmentations = 0;
  };

  /// Push up to `flow_limit` (kInfinity = max flow) from source to sink along
  /// successive cheapest paths. Call once per instance.
  FlowResult solve(std::size_t source, std::size_t sink,
                   double flow_limit = kInfinity);

  /// Flow on the arc returned by add_arc (valid after solve()).
  [[nodiscard]] double arc_flow(std::size_t arc_id) const;

 private:
  struct Arc {
    std::size_t to;
    std::size_t reverse;  // index of the paired reverse arc in arcs_[to]
    double capacity;
    double cost;
  };

  std::vector<std::vector<Arc>> arcs_;
  std::vector<std::pair<std::size_t, std::size_t>> arc_refs_;  // (node, index)
  std::vector<double> original_capacity_;
};

}  // namespace dust::solver
