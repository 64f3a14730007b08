#include "graph/paths.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>

#include "solver/min_cost_flow.hpp"

namespace dust::graph {

double Path::cost(std::span<const double> edge_cost) const {
  double total = 0.0;
  for (EdgeId e : edges) total += edge_cost[e];
  return total;
}

std::vector<std::uint32_t> bfs_hops(const Graph& graph, NodeId src) {
  std::vector<std::uint32_t> dist;
  bfs_hops_into(graph, src, dist);
  return dist;
}

void bfs_hops_into(const Graph& graph, NodeId src,
                   std::vector<std::uint32_t>& out) {
  if (src >= graph.node_count()) throw std::out_of_range("bfs_hops: src");
  out.assign(graph.node_count(), kUnreachable);
  // FIFO as a flat array: every node is enqueued at most once.
  static thread_local std::vector<NodeId> frontier;
  frontier.clear();
  out[src] = 0;
  frontier.push_back(src);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId node = frontier[head];
    for (const Adjacency& adj : graph.neighbors(node)) {
      if (out[adj.neighbor] == kUnreachable) {
        out[adj.neighbor] = out[node] + 1;
        frontier.push_back(adj.neighbor);
      }
    }
  }
}

Path ShortestPathTree::extract(const Graph& graph, NodeId src, NodeId dst) const {
  Path path;
  if (distance.at(dst) == kInfiniteCost) return path;
  NodeId node = dst;
  while (node != src) {
    const EdgeId via = parent_edge.at(node);
    path.edges.push_back(via);
    path.nodes.push_back(node);
    node = graph.edge(via).other(node);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

namespace {

// Dijkstra core shared by dijkstra() and dijkstra_distances_into();
// `parent_edge` is filled when non-null. The heap storage persists per
// thread, so the distances-only variant allocates nothing in steady state.
void dijkstra_impl(const Graph& graph, NodeId src,
                   std::span<const double> edge_cost,
                   std::vector<double>& distance,
                   std::vector<EdgeId>* parent_edge) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument("dijkstra: edge_cost size mismatch");
  distance.assign(graph.node_count(), kInfiniteCost);
  if (parent_edge) parent_edge->assign(graph.node_count(), kInvalidEdge);
  using Entry = std::pair<double, NodeId>;
  static thread_local std::vector<Entry> heap;
  heap.clear();
  distance.at(src) = 0.0;
  heap.emplace_back(0.0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [dist, node] = heap.back();
    heap.pop_back();
    if (dist > distance[node]) continue;  // stale entry
    for (const Adjacency& adj : graph.neighbors(node)) {
      const double cost = edge_cost[adj.edge];
      if (cost < 0) throw std::invalid_argument("dijkstra: negative edge cost");
      const double candidate = dist + cost;
      if (candidate < distance[adj.neighbor]) {
        distance[adj.neighbor] = candidate;
        if (parent_edge) (*parent_edge)[adj.neighbor] = adj.edge;
        heap.emplace_back(candidate, adj.neighbor);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

}  // namespace

ShortestPathTree dijkstra(const Graph& graph, NodeId src,
                          std::span<const double> edge_cost) {
  ShortestPathTree tree;
  dijkstra_impl(graph, src, edge_cost, tree.distance, &tree.parent_edge);
  return tree;
}

void dijkstra_distances_into(const Graph& graph, NodeId src,
                             std::span<const double> edge_cost,
                             std::vector<double>& out) {
  dijkstra_impl(graph, src, edge_cost, out, nullptr);
}

std::vector<double> hop_bounded_min_cost(const Graph& graph, NodeId src,
                                         std::span<const double> edge_cost,
                                         std::uint32_t max_hops) {
  std::vector<double> best;
  hop_bounded_min_cost_into(graph, src, edge_cost, max_hops, best);
  return best;
}

void hop_bounded_min_cost_into(const Graph& graph, NodeId src,
                               std::span<const double> edge_cost,
                               std::uint32_t max_hops,
                               std::vector<double>& out) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument("hop_bounded_min_cost: edge_cost size mismatch");
  if (src >= graph.node_count())
    throw std::out_of_range("hop_bounded_min_cost: src");
  const std::uint32_t bound =
      max_hops == 0 ? static_cast<std::uint32_t>(graph.node_count()) - 1 : max_hops;
  std::vector<double>& best = out;
  best.assign(graph.node_count(), kInfiniteCost);
  // Relaxation frontiers persist per thread; every row recompute in a
  // placement cycle reuses the same capacity instead of allocating O(n).
  static thread_local std::vector<double> frontier;
  static thread_local std::vector<double> next;
  frontier.assign(graph.node_count(), kInfiniteCost);
  best[src] = frontier[src] = 0.0;
  next.resize(graph.node_count());
  for (std::uint32_t hop = 0; hop < bound; ++hop) {
    std::fill(next.begin(), next.end(), kInfiniteCost);
    bool improved = false;
    for (NodeId node = 0; node < graph.node_count(); ++node) {
      if (frontier[node] == kInfiniteCost) continue;
      for (const Adjacency& adj : graph.neighbors(node)) {
        const double candidate = frontier[node] + edge_cost[adj.edge];
        if (candidate < next[adj.neighbor]) next[adj.neighbor] = candidate;
      }
    }
    for (NodeId node = 0; node < graph.node_count(); ++node) {
      if (next[node] < best[node]) {
        best[node] = next[node];
        improved = true;
      }
    }
    frontier.swap(next);
    if (!improved) break;  // converged before the hop bound
  }
}

void shared_frontier_labels_into(const Graph& graph, NodeId src,
                                 std::span<const double> edge_cost,
                                 std::uint32_t max_hops,
                                 std::vector<double>& best,
                                 std::vector<std::uint64_t>& used_edges,
                                 std::size_t* rounds_out) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument(
        "shared_frontier_labels: edge_cost size mismatch");
  if (src >= graph.node_count())
    throw std::out_of_range("shared_frontier_labels: src");
  const std::size_t n = graph.node_count();
  const std::uint32_t bound =
      max_hops == 0 ? static_cast<std::uint32_t>(n) - 1 : max_hops;
  best.assign(n, kInfiniteCost);
  best[src] = 0.0;
  used_edges.assign((graph.edge_count() + 63) / 64, 0);

  // Layer h of the flattened tables holds the cost/predecessor of reaching a
  // node in exactly h hops; layers are grown on demand so the high-water
  // memory is rounds-actually-run * n, not max_hops * n (the sweep converges
  // at the weighted diameter, far below n - 1 for unbounded queries). All
  // scratch is per-thread and reused across calls.
  static thread_local std::vector<double> layer_cost;
  static thread_local std::vector<EdgeId> layer_via;
  static thread_local std::vector<std::uint32_t> best_layer;
  static thread_local std::vector<NodeId> frontier;
  static thread_local std::vector<NodeId> fresh;
  static thread_local std::vector<char> touched;
  best_layer.assign(n, 0);
  touched.assign(n, 0);
  if (layer_cost.size() < n) {
    layer_cost.resize(n);
    layer_via.resize(n);
  }
  layer_cost[src] = 0.0;  // layer 0
  frontier.clear();
  frontier.push_back(src);
  std::size_t rounds = 0;
  for (std::uint32_t h = 1; h <= bound && !frontier.empty(); ++h) {
    ++rounds;
    const std::size_t prev = (h - 1) * n;
    const std::size_t cur = h * n;
    if (layer_cost.size() < cur + n) {
      layer_cost.resize(cur + n);
      layer_via.resize(cur + n);
    }
    fresh.clear();
    for (NodeId node : frontier) {
      const double base = layer_cost[prev + node];
      for (const Adjacency& adj : graph.neighbors(node)) {
        const double candidate = base + edge_cost[adj.edge];
        if (!touched[adj.neighbor]) {
          touched[adj.neighbor] = 1;
          fresh.push_back(adj.neighbor);
          layer_cost[cur + adj.neighbor] = candidate;
          layer_via[cur + adj.neighbor] = adj.edge;
        } else if (candidate < layer_cost[cur + adj.neighbor]) {
          layer_cost[cur + adj.neighbor] = candidate;
          layer_via[cur + adj.neighbor] = adj.edge;
        }
      }
    }
    // Only strict improvers are re-expanded: a walk that reaches a node at
    // cost >= an earlier layer's label is dominated edge-for-edge by
    // extending that earlier, cheaper-and-shorter label instead. This is
    // what keeps the frontier sparse (and the labels bit-identical to the
    // dense hop_bounded_min_cost relaxation, which carries the dominated
    // entries along without ever letting them win).
    frontier.clear();
    for (NodeId node : fresh) {
      touched[node] = 0;
      if (layer_cost[cur + node] < best[node]) {
        best[node] = layer_cost[cur + node];
        best_layer[node] = h;
        frontier.push_back(node);
      }
    }
  }
  // Backwalk: every reached destination's winning label sits at
  // (best_layer[v], v); its predecessor chain passes only through nodes
  // that were strict improvers at their layer, so each hop of the walk has
  // a recorded via edge. OR the path edges into the shared bitmap.
  for (NodeId v = 0; v < n; ++v) {
    if (v == src || best[v] == kInfiniteCost) continue;
    NodeId node = v;
    for (std::uint32_t h = best_layer[v]; h > 0; --h) {
      const EdgeId e = layer_via[h * n + node];
      used_edges[e / 64] |= std::uint64_t{1} << (e % 64);
      node = graph.edge(e).other(node);
    }
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
}

Path hop_bounded_path(const Graph& graph, NodeId src, NodeId dst,
                      std::span<const double> edge_cost,
                      std::uint32_t max_hops) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument("hop_bounded_path: edge_cost size mismatch");
  if (src >= graph.node_count() || dst >= graph.node_count())
    throw std::out_of_range("hop_bounded_path: node out of range");
  Path path;
  if (src == dst) {
    path.nodes.push_back(src);
    return path;
  }
  const std::uint32_t bound =
      max_hops == 0 ? static_cast<std::uint32_t>(graph.node_count()) - 1 : max_hops;
  // Layered DP with per-layer predecessors: layer h holds the best cost of
  // reaching each node in exactly h hops. The (bound+1) x n layer tables are
  // flattened into per-thread scratch reused across calls.
  const std::size_t n = graph.node_count();
  static thread_local std::vector<double> cost;
  static thread_local std::vector<EdgeId> via;
  cost.assign((bound + 1) * n, kInfiniteCost);
  via.assign((bound + 1) * n, kInvalidEdge);
  cost[src] = 0.0;  // layer 0
  double best = kInfiniteCost;
  std::uint32_t best_layer = 0;
  for (std::uint32_t h = 1; h <= bound; ++h) {
    const std::size_t prev = (h - 1) * n;
    const std::size_t cur = h * n;
    for (NodeId node = 0; node < n; ++node) {
      if (cost[prev + node] == kInfiniteCost) continue;
      for (const Adjacency& adj : graph.neighbors(node)) {
        const double candidate = cost[prev + node] + edge_cost[adj.edge];
        if (candidate < cost[cur + adj.neighbor]) {
          cost[cur + adj.neighbor] = candidate;
          via[cur + adj.neighbor] = adj.edge;
        }
      }
    }
    if (cost[cur + dst] < best) {
      best = cost[cur + dst];
      best_layer = h;
    }
  }
  if (best == kInfiniteCost) return path;  // unreachable within the bound
  // Walk predecessors back from (best_layer, dst).
  NodeId node = dst;
  for (std::uint32_t h = best_layer; h > 0; --h) {
    const EdgeId edge = via[h * n + node];
    path.edges.push_back(edge);
    path.nodes.push_back(node);
    node = graph.edge(edge).other(node);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

std::vector<Path> edge_disjoint_paths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const double> edge_cost,
                                      std::size_t k) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument("edge_disjoint_paths: edge_cost size mismatch");
  std::vector<Path> paths;
  if (k == 0 || src == dst) return paths;
  // Unit-capacity min-cost flow; an undirected edge becomes one arc per
  // direction. With non-negative costs an optimal integral flow never uses
  // both directions of the same edge, so arc-disjointness in the flow is
  // edge-disjointness in the graph. Arc ids are dense and sequential: arc
  // 2e is edge e in a->b orientation, arc 2e+1 the reverse — no associative
  // bookkeeping needed in the path-peeling loop below.
  solver::MinCostFlow mcf(graph.node_count());
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    if (edge_cost[e] < 0)
      throw std::invalid_argument("edge_disjoint_paths: negative cost");
    mcf.add_arc(edge.a, edge.b, 1.0, edge_cost[e]);
    mcf.add_arc(edge.b, edge.a, 1.0, edge_cost[e]);
  }
  const auto result = mcf.solve(src, dst, static_cast<double>(k));
  const auto flows = static_cast<std::size_t>(result.max_flow + 0.5);
  if (flows == 0) return paths;
  // Collect used directed arcs (net usage) and peel off paths.
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> outgoing(
      graph.node_count());
  for (std::size_t arc = 0; arc < 2 * graph.edge_count(); ++arc) {
    if (mcf.arc_flow(arc) < 0.5) continue;
    const EdgeId e = static_cast<EdgeId>(arc / 2);
    const bool forward = (arc % 2) == 0;
    const Edge& edge = graph.edge(e);
    const NodeId from = forward ? edge.a : edge.b;
    const NodeId to = forward ? edge.b : edge.a;
    outgoing[from].emplace_back(to, e);
  }
  for (std::size_t i = 0; i < flows; ++i) {
    Path path;
    path.nodes.push_back(src);
    NodeId node = src;
    while (node != dst) {
      auto& arcs = outgoing[node];
      if (arcs.empty()) {
        path.nodes.clear();  // degenerate (cancelled flow); give up this one
        path.edges.clear();
        break;
      }
      const auto [next, edge] = arcs.back();
      arcs.pop_back();
      path.nodes.push_back(next);
      path.edges.push_back(edge);
      node = next;
    }
    if (!path.nodes.empty()) paths.push_back(std::move(path));
  }
  return paths;
}

namespace {

/// Shared DFS state for exhaustive simple-path enumeration.
struct EnumerationState {
  const Graph* graph = nullptr;
  std::uint32_t max_hops = 0;
  const std::function<bool(NodeId)>* is_target = nullptr;
  const std::function<bool(const Path&)>* visit = nullptr;
  std::vector<char> on_path;
  Path path;
  bool stopped = false;

  void dfs(NodeId node) {
    if ((*is_target)(node) && !path.edges.empty()) {
      if (!(*visit)(path)) {
        stopped = true;
        return;
      }
    }
    if (path.edges.size() >= max_hops) return;
    for (const Adjacency& adj : graph->neighbors(node)) {
      if (on_path[adj.neighbor]) continue;
      on_path[adj.neighbor] = 1;
      path.nodes.push_back(adj.neighbor);
      path.edges.push_back(adj.edge);
      dfs(adj.neighbor);
      path.edges.pop_back();
      path.nodes.pop_back();
      on_path[adj.neighbor] = 0;
      if (stopped) return;
    }
  }
};

}  // namespace

void for_each_simple_path(const Graph& graph, NodeId src,
                          const std::function<bool(NodeId)>& is_target,
                          std::uint32_t max_hops,
                          const std::function<bool(const Path&)>& visit) {
  if (src >= graph.node_count())
    throw std::out_of_range("for_each_simple_path: src");
  EnumerationState state;
  state.graph = &graph;
  state.max_hops = max_hops == 0
                       ? static_cast<std::uint32_t>(graph.node_count()) - 1
                       : max_hops;
  state.is_target = &is_target;
  state.visit = &visit;
  state.on_path.assign(graph.node_count(), 0);
  state.on_path[src] = 1;
  state.path.nodes.push_back(src);
  state.dfs(src);
}

std::vector<Path> enumerate_simple_paths(const Graph& graph, NodeId src,
                                         NodeId dst, std::uint32_t max_hops,
                                         std::size_t max_paths) {
  std::vector<Path> result;
  for_each_simple_path(
      graph, src, [dst](NodeId node) { return node == dst; }, max_hops,
      [&result, max_paths](const Path& path) {
        result.push_back(path);
        return max_paths == 0 || result.size() < max_paths;
      });
  return result;
}

std::size_t count_simple_paths(const Graph& graph, NodeId src, NodeId dst,
                               std::uint32_t max_hops) {
  std::size_t count = 0;
  for_each_simple_path(
      graph, src, [dst](NodeId node) { return node == dst; }, max_hops,
      [&count](const Path&) {
        ++count;
        return true;
      });
  return count;
}

std::vector<Path> k_shortest_paths(const Graph& graph, NodeId src, NodeId dst,
                                   std::span<const double> edge_cost,
                                   std::size_t k) {
  std::vector<Path> accepted;
  if (k == 0) return accepted;
  std::vector<double> cost(edge_cost.begin(), edge_cost.end());
  {
    const ShortestPathTree tree = dijkstra(graph, src, cost);
    Path first = tree.extract(graph, src, dst);
    if (first.nodes.empty()) return accepted;
    accepted.push_back(std::move(first));
  }
  // Candidate pool with each path's cost computed once at insertion (the
  // min_element comparator below then compares cached doubles instead of
  // re-walking both paths' edges per comparison); set-based dedup on the
  // node sequence.
  std::vector<Path> candidates;
  std::vector<double> candidate_cost;
  std::set<std::vector<NodeId>> seen;
  seen.insert(accepted[0].nodes);

  while (accepted.size() < k) {
    const Path& previous = accepted.back();
    // Spur from every node of the previous path.
    for (std::size_t spur_index = 0; spur_index < previous.nodes.size() - 1;
         ++spur_index) {
      const NodeId spur_node = previous.nodes[spur_index];
      // Root = previous path up to the spur node.
      std::vector<NodeId> root_nodes(previous.nodes.begin(),
                                     previous.nodes.begin() + spur_index + 1);
      // Ban edges that would recreate an already-accepted path with this root,
      // and ban root nodes (except the spur) to keep paths loopless.
      std::vector<double> banned = cost;
      for (const Path& path : accepted) {
        if (path.nodes.size() > spur_index + 1 &&
            std::equal(root_nodes.begin(), root_nodes.end(), path.nodes.begin()))
          banned[path.edges[spur_index]] = kInfiniteCost;
      }
      std::vector<char> removed(graph.node_count(), 0);
      for (std::size_t i = 0; i < spur_index; ++i)
        removed[previous.nodes[i]] = 1;
      for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const Edge& edge = graph.edge(e);
        if (removed[edge.a] || removed[edge.b]) banned[e] = kInfiniteCost;
      }
      const ShortestPathTree tree = dijkstra(graph, spur_node, banned);
      Path spur = tree.extract(graph, spur_node, dst);
      if (spur.nodes.empty() || tree.distance[dst] == kInfiniteCost) continue;
      // Total = root + spur.
      Path total;
      total.nodes = root_nodes;
      total.edges.assign(previous.edges.begin(),
                         previous.edges.begin() + spur_index);
      total.nodes.insert(total.nodes.end(), spur.nodes.begin() + 1,
                         spur.nodes.end());
      total.edges.insert(total.edges.end(), spur.edges.begin(), spur.edges.end());
      if (seen.insert(total.nodes).second) {
        candidate_cost.push_back(total.cost(cost));
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    const auto best_cost =
        std::min_element(candidate_cost.begin(), candidate_cost.end());
    const auto index =
        static_cast<std::size_t>(best_cost - candidate_cost.begin());
    accepted.push_back(std::move(candidates[index]));
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(index));
    candidate_cost.erase(best_cost);
  }
  return accepted;
}

}  // namespace dust::graph
