// Response-time evaluation (paper Eq. 1-2).
//
//   Tr_{i,j}(r_k) = sum_{e in r_k} D_i / Lu_e            (Eq. 1)
//   Trmin_{i,j}   = min_{r_k in p} Tr_{i,j}(r_k)         (Eq. 2)
//
// where p is the set of simple paths between i and j with at most `max_hops`
// edges. Two evaluators:
//   kEnumerate — exhaustive DFS over all hop-bounded simple paths. This is
//     the paper-faithful mode whose cost grows explosively with max-hop and
//     produces the runtime shapes of Figs 8/10/11b; only the figure benches
//     select it, each with its own hop bound.
//   kSharedFrontier — the default: one sparse layered-DP sweep per source
//     (DESIGN.md §13), O(rounds * |E|), with labels bit-identical to
//     graph::hop_bounded_min_cost and equal to the enumerator's minima for
//     non-negative edge costs. It also records the used-edge support
//     bitmap, so ResponseTimeCache keeps its direction-aware invalidation.
//     The sweep stops at the last strict improvement, so an unbounded query
//     (max_hops = 0) costs only as many rounds as the longest winning path
//     has hops: this is what makes fat-tree k=32 and 10^5-node graphs
//     tractable per cycle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/paths.hpp"
#include "net/network_state.hpp"

namespace dust::net {

enum class EvaluatorMode { kEnumerate, kSharedFrontier };

struct ResponseTimeOptions {
  std::uint32_t max_hops = 0;  ///< 0 = unbounded (node_count - 1)
  EvaluatorMode mode = EvaluatorMode::kSharedFrontier;
  /// Safety cap on paths explored per source in kEnumerate mode
  /// (0 = no cap). When hit, results are still valid upper bounds on Trmin.
  std::size_t max_paths_per_source = 0;
};

struct ResponseTimeResult {
  /// Trmin in seconds to every node (infinity where unreachable within the
  /// hop bound). Entry [source] is 0.
  std::vector<double> trmin_seconds;
  /// Paths explored (kEnumerate) or frontier rounds (kSharedFrontier).
  std::size_t work = 0;
  bool truncated = false;  ///< kEnumerate hit max_paths_per_source
  /// Bitmap over EdgeId (bit e = word e/64, bit e%64) of the edges on the
  /// winning path to each destination, recorded by both evaluators. The
  /// row's values depend on exactly these edges plus, for *improvements*,
  /// any edge whose cost drops — which is what lets ResponseTimeCache keep
  /// a row alive when a link it never used got worse.
  std::vector<std::uint64_t> used_edges;
};

/// Trmin from `source` (shipping volume data_mb) to all nodes.
ResponseTimeResult min_response_times(const NetworkState& net,
                                      graph::NodeId source, double data_mb,
                                      const ResponseTimeOptions& options);

/// As min_response_times, with the per-edge 1/Lu costs precomputed by the
/// caller (must match net's current links for exact results) and the result
/// written into `out` — its vector capacity is reused, so a caller that
/// keeps the ResponseTimeResult across cycles evaluates rows without
/// allocating. Hot path of the incremental placement pipeline (DESIGN.md §8).
void min_response_times_into(const NetworkState& net, graph::NodeId source,
                             double data_mb, const ResponseTimeOptions& options,
                             std::span<const double> inverse_costs,
                             ResponseTimeResult& out);

/// Response time of one concrete path for volume data_mb (Eq. 1).
double path_response_time(const NetworkState& net, const graph::Path& path,
                          double data_mb);

}  // namespace dust::net
