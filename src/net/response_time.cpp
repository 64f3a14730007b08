#include "net/response_time.hpp"

#include "graph/paths.hpp"

namespace dust::net {

double path_response_time(const NetworkState& net, const graph::Path& path,
                          double data_mb) {
  double seconds = 0.0;
  for (graph::EdgeId e : path.edges)
    seconds += data_mb / net.link(e).utilized_bandwidth();
  return seconds;
}

ResponseTimeResult min_response_times(const NetworkState& net,
                                      graph::NodeId source, double data_mb,
                                      const ResponseTimeOptions& options) {
  ResponseTimeResult result;
  static thread_local std::vector<double> inv;
  net.inverse_bandwidth_costs_into(inv);
  min_response_times_into(net, source, data_mb, options, inv, result);
  return result;
}

void min_response_times_into(const NetworkState& net, graph::NodeId source,
                             double data_mb, const ResponseTimeOptions& options,
                             std::span<const double> inverse_costs,
                             ResponseTimeResult& out) {
  out.work = 0;
  out.truncated = false;
  out.used_edges.clear();

  if (options.mode == EvaluatorMode::kSharedFrontier) {
    // One sparse layered sweep computes the whole row *and* the winning-path
    // edge support — same labels as graph::hop_bounded_min_cost, same
    // used_edges contract as kEnumerate (see
    // graph::shared_frontier_labels_into).
    std::size_t rounds = 0;
    graph::shared_frontier_labels_into(net.graph(), source, inverse_costs,
                                       options.max_hops, out.trmin_seconds,
                                       out.used_edges, &rounds);
    for (graph::NodeId v = 0; v < net.node_count(); ++v)
      if (v != source && out.trmin_seconds[v] != graph::kInfiniteCost)
        out.trmin_seconds[v] *= data_mb;
    out.work = rounds;
    return;
  }

  // Paper-faithful exhaustive enumeration: every node is a target, so a
  // single DFS from `source` covers all pairs (i, j). Alongside the minima,
  // record each destination's winning path so used_edges ends up as the
  // exact edge support of the row.
  out.trmin_seconds.assign(net.node_count(), graph::kInfiniteCost);
  out.trmin_seconds[source] = 0.0;
  static thread_local std::vector<std::vector<graph::EdgeId>> winning;
  winning.assign(net.node_count(), {});
  std::size_t visited = 0;
  graph::for_each_simple_path(
      net.graph(), source, [](graph::NodeId) { return true; },
      options.max_hops,
      [&](const graph::Path& path) {
        ++visited;
        double cost = 0.0;
        for (graph::EdgeId e : path.edges) cost += inverse_costs[e];
        const graph::NodeId dst = path.destination();
        if (cost < out.trmin_seconds[dst]) {
          out.trmin_seconds[dst] = cost;
          winning[dst] = path.edges;
        }
        if (options.max_paths_per_source &&
            visited >= options.max_paths_per_source) {
          out.truncated = true;
          return false;
        }
        return true;
      });
  out.work = visited;
  out.used_edges.assign((net.edge_count() + 63) / 64, 0);
  for (const std::vector<graph::EdgeId>& edges : winning)
    for (graph::EdgeId e : edges)
      out.used_edges[e / 64] |= std::uint64_t{1} << (e % 64);
  for (graph::NodeId v = 0; v < net.node_count(); ++v)
    if (v != source && out.trmin_seconds[v] != graph::kInfiniteCost)
      out.trmin_seconds[v] *= data_mb;
}

}  // namespace dust::net
