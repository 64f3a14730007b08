// Path algorithms: BFS hop counts, Dijkstra, hop-bounded min-cost DP,
// exhaustive simple-path enumeration (paper Eq. 2), and Yen k-shortest paths.
//
// DUST's response-time model (Eq. 1-2) takes the minimum of an additive
// per-edge cost over all simple paths of bounded hop count. Two evaluators:
//   * for_each_simple_path / enumerate_simple_paths — the paper-faithful
//     exhaustive enumeration (exponential in max_hops; this is what makes the
//     paper's optimization runtime curves in Figs 8/10 grow with max-hop);
//   * hop_bounded_min_cost — layered Bellman-Ford DP, O(max_hops * |E|),
//     which computes the same minimum when costs are non-negative (a walk
//     that revisits a node is never cheaper than its shortcut sub-path).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dust::graph {

inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

struct Path {
  std::vector<NodeId> nodes;  // nodes.size() == edges.size() + 1
  std::vector<EdgeId> edges;

  [[nodiscard]] std::size_t hops() const noexcept { return edges.size(); }
  [[nodiscard]] NodeId source() const { return nodes.front(); }
  [[nodiscard]] NodeId destination() const { return nodes.back(); }
  [[nodiscard]] double cost(std::span<const double> edge_cost) const;

  bool operator==(const Path&) const = default;
};

/// Hop distance from `src` to every node (kUnreachable where disconnected).
std::vector<std::uint32_t> bfs_hops(const Graph& graph, NodeId src);

/// As bfs_hops, writing into `out` (resized to node_count) and reusing a
/// per-thread queue — allocation-free in steady state.
void bfs_hops_into(const Graph& graph, NodeId src,
                   std::vector<std::uint32_t>& out);

struct ShortestPathTree {
  std::vector<double> distance;    // kInfiniteCost where unreachable
  std::vector<EdgeId> parent_edge; // kInvalidEdge at src / unreachable

  /// Reconstruct the path src -> dst (empty nodes if unreachable).
  [[nodiscard]] Path extract(const Graph& graph, NodeId src, NodeId dst) const;
};

/// Dijkstra with non-negative per-edge costs.
ShortestPathTree dijkstra(const Graph& graph, NodeId src,
                          std::span<const double> edge_cost);

/// Dijkstra distances only (== dijkstra(...).distance, bit-identical),
/// written into `out` with a per-thread heap — allocation-free in steady
/// state. Safe to call concurrently from multiple threads.
void dijkstra_distances_into(const Graph& graph, NodeId src,
                             std::span<const double> edge_cost,
                             std::vector<double>& out);

/// Minimum additive cost src -> each node over walks of at most `max_hops`
/// edges (layered Bellman-Ford). Equals the simple-path minimum for
/// non-negative costs. max_hops == 0 means "no bound" (uses node_count - 1).
std::vector<double> hop_bounded_min_cost(const Graph& graph, NodeId src,
                                         std::span<const double> edge_cost,
                                         std::uint32_t max_hops);

/// As hop_bounded_min_cost, writing into `out` (resized to node_count) and
/// reusing per-thread relaxation scratch — allocation-free in steady state.
/// Safe to call concurrently from multiple threads.
void hop_bounded_min_cost_into(const Graph& graph, NodeId src,
                               std::span<const double> edge_cost,
                               std::uint32_t max_hops,
                               std::vector<double>& out);

/// Shared-frontier label sweep (DESIGN.md §13): one layered-DP pass from
/// `src` that produces, for *every* node simultaneously,
///   * the hop-bounded min cost (== hop_bounded_min_cost for the same
///     inputs, bit-identical), and
///   * the edge support of one winning path per destination, OR-ed into a
///     single bitmap over EdgeId (word e/64, bit e%64) — the same contract
///     ResponseTimeResult::used_edges documents for the exhaustive
///     enumerator, at O(rounds * |E|) instead of exponential cost.
///
/// The sweep keeps a sparse frontier (only nodes whose label strictly
/// improved are re-expanded; with strictly positive costs a longer walk to
/// an equal-or-worse label is dominated) and a per-layer predecessor table
/// for the backwalk, so the work is bounded by the converged round count,
/// not by max_hops. Scratch is per-thread and reused across calls —
/// allocation-free in steady state, safe to call concurrently.
///
/// `used_edges` is resized to ceil(edge_count/64); `rounds_out` (optional)
/// receives the number of relaxation rounds executed.
void shared_frontier_labels_into(const Graph& graph, NodeId src,
                                 std::span<const double> edge_cost,
                                 std::uint32_t max_hops,
                                 std::vector<double>& best,
                                 std::vector<std::uint64_t>& used_edges,
                                 std::size_t* rounds_out = nullptr);

/// Reconstruct a concrete minimum-cost path src -> dst over paths of at most
/// `max_hops` edges (0 = unbounded). Empty path if unreachable within the
/// bound. The returned path achieves hop_bounded_min_cost(...)[dst].
Path hop_bounded_path(const Graph& graph, NodeId src, NodeId dst,
                      std::span<const double> edge_cost,
                      std::uint32_t max_hops);

/// Up to `k` pairwise edge-disjoint s-t paths of minimum total cost
/// (computed via unit-capacity min-cost flow). Fewer than `k` are returned
/// when the graph does not admit that many disjoint routes. Used to give an
/// offload relationship an independent backup route.
std::vector<Path> edge_disjoint_paths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const double> edge_cost,
                                      std::size_t k);

/// Visit every simple path from `src` whose destination satisfies
/// `is_target(dst)` and whose hop count is <= max_hops (0 = unbounded).
/// The callback receives the current path; return false from it to stop
/// the whole enumeration early. Exhaustive DFS — exponential; this is the
/// paper-faithful Eq. 2 evaluator.
void for_each_simple_path(const Graph& graph, NodeId src,
                          const std::function<bool(NodeId)>& is_target,
                          std::uint32_t max_hops,
                          const std::function<bool(const Path&)>& visit);

/// Materialize all simple paths src -> dst with hop count <= max_hops
/// (0 = unbounded), stopping after max_paths (0 = no cap).
std::vector<Path> enumerate_simple_paths(const Graph& graph, NodeId src,
                                         NodeId dst, std::uint32_t max_hops,
                                         std::size_t max_paths = 0);

/// Count simple paths src -> dst with hop count <= max_hops (0 = unbounded).
std::size_t count_simple_paths(const Graph& graph, NodeId src, NodeId dst,
                               std::uint32_t max_hops);

/// Yen's algorithm: up to k loopless shortest paths by increasing cost.
std::vector<Path> k_shortest_paths(const Graph& graph, NodeId src, NodeId dst,
                                   std::span<const double> edge_cost,
                                   std::size_t k);

}  // namespace dust::graph
