#include "net/response_cache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/paths.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace dust::net {

ResponseTimeCache::ResponseTimeCache() {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  hit_counter_ = &registry.counter("dust_net_trmin_cache_hits_total");
  miss_counter_ = &registry.counter("dust_net_trmin_cache_misses_total");
  invalidation_counter_ =
      &registry.counter("dust_net_trmin_cache_invalidated_rows_total");
  bypass_counter_ = &registry.counter("dust_net_trmin_cache_bypasses_total");
  begin_cycle_ms_ = &registry.histogram("dust_net_begin_cycle_ms");
}

void ResponseTimeCache::set_lu_quantum(double step) {
  if (step < 0.0 || !std::isfinite(step))
    throw std::invalid_argument("ResponseTimeCache: Lu quantum must be >= 0");
  if (step == lu_quantum_) return;
  lu_quantum_ = step;
  // Cached rows and the cost snapshot were built against the old
  // representatives; force a wholesale rebuild on the next begin_cycle.
  clear();
}

void ResponseTimeCache::set_reprice_epsilon(double epsilon) {
  if (epsilon < 0.0 || epsilon >= 1.0 || !std::isfinite(epsilon))
    throw std::invalid_argument(
        "ResponseTimeCache: reprice epsilon must be in [0, 1)");
  if (epsilon == reprice_epsilon_) return;
  // Tightening: surviving rows may be staler than the new band promises.
  if (epsilon < reprice_epsilon_) clear();
  reprice_epsilon_ = epsilon;
}

double ResponseTimeCache::quantize(double inverse_cost) const noexcept {
  if (lu_quantum_ <= 0.0 || !(inverse_cost > 0.0) ||
      !std::isfinite(inverse_cost))
    return inverse_cost;  // exact mode; keep 0 / inf / NaN sentinels as-is
  const double log_step = std::log1p(lu_quantum_);
  const double bucket = std::floor(std::log(inverse_cost) / log_step);
  return std::exp((bucket + 0.5) * log_step);
}

bool ResponseTimeCache::synced_with(const NetworkState& net) const noexcept {
  return synced_once_ && entries_.size() == net.node_count() &&
         inverse_costs_.size() == net.edge_count() &&
         synced_version_ == net.link_version() && net.dirty_links().empty();
}

void ResponseTimeCache::begin_cycle(NetworkState& net) {
  const util::Timer timer;
  sync(net);
  begin_cycle_ms_->observe(timer.millis());
}

void ResponseTimeCache::sync(NetworkState& net) {
  const std::size_t n = net.node_count();
  if (!synced_once_ || entries_.size() != n ||
      inverse_costs_.size() != net.edge_count()) {
    // First use or topology change: rebuild wholesale.
    entries_.assign(n, Entry{});
    net.inverse_bandwidth_costs_into(inverse_costs_);
    for (double& cost : inverse_costs_) cost = quantize(cost);
    net.snapshot_links();
    synced_version_ = net.link_version();
    synced_once_ = true;
    return;
  }
  if (net.dirty_links().empty()) {
    synced_version_ = net.link_version();
    return;
  }

  // Refresh the cost snapshot for the links that moved. Clean links keep
  // their pinned value — NetworkState's baseline rule guarantees the live
  // Lu stays within the epsilon band of it. Under quantization a dirty link
  // whose bucket representative is unchanged only jittered inside its band:
  // it re-baselines (snapshot below) without invalidating anything. Moves
  // are kept with their direction, because the invalidation tests below
  // treat cost increases and decreases differently.
  struct MovedLink {
    graph::EdgeId e;
    double new_cost;
    bool worsened;  ///< cost increased (link got more utilized)
  };
  static thread_local std::vector<MovedLink> moved;
  moved.clear();
  bool any_worsened = false;
  for (graph::EdgeId e : net.dirty_links()) {
    const double fresh = quantize(1.0 / net.link(e).utilized_bandwidth());
    if (fresh == inverse_costs_[e]) continue;
    moved.push_back({e, fresh, fresh > inverse_costs_[e]});
    any_worsened = any_worsened || moved.back().worsened;
    inverse_costs_[e] = fresh;
  }

  const graph::Graph& g = net.graph();

  // Per-direction row tests (the reason a hot core link no longer nukes
  // every row on the topology):
  //
  //   worsened link  — paths through it only got more expensive, so a row
  //                    whose winning paths (used_edges) avoid it keeps its
  //                    exact values. O(1) bitmap probe per link.
  //   improved link  — it may have created a better path the row never
  //                    evaluated. A row survives a destination v when no
  //                    route through the link can fit the hop budget
  //                    (hops(s,a) + 1 + hops(b,v) > max_hops, by BFS) or
  //                    when the cost lower bound through it — hop-bounded
  //                    segment minima d(s,a) + cost + d(b,v) on the
  //                    refreshed costs — cannot beat the cached unit Trmin.
  //
  // The worsened-link probe runs first, in one pass over the rows; the rows
  // it keeps wait in `pending` for the improved-link test, which runs
  // link-major and stops once nothing is pending. With no cached row this
  // is the whole fast path: no BFS, no SSSP.
  const auto uses_worsened_link = [&](const Entry& entry) {
    for (const MovedLink& m : moved)
      if (m.worsened && (entry.unit.used_edges[m.e / 64] &
                         (std::uint64_t{1} << (m.e % 64))))
        return true;
    return false;
  };

  // The improved-link bound is taken at the loosest hop bound of every row
  // valid on entry, dropped or not: a tighter bound would change which rows
  // survive. If no cost moved, every row stands.
  std::uint32_t max_hops_cap = 0;
  bool unbounded_rows = false;
  static thread_local std::vector<graph::NodeId> pending;
  pending.clear();
  std::uint64_t dropped = 0;
  for (graph::NodeId s = 0; s < n && !moved.empty(); ++s) {
    Entry& entry = entries_[s];
    if (!entry.valid) continue;
    if (entry.max_hops == 0)
      unbounded_rows = true;
    else
      max_hops_cap = std::max(max_hops_cap, entry.max_hops);
    if (any_worsened && uses_worsened_link(entry)) {
      entry.valid = false;
      ++dropped;
    } else {
      pending.push_back(s);
    }
  }

  // Deadband: only a beat by more than the relative epsilon forces a
  // reprice. scale == 1.0 when the band is off, keeping the test exact.
  const double scale = 1.0 - reprice_epsilon_;
  static thread_local std::vector<double> from_a, from_b;  // segment minima
  static thread_local std::vector<std::uint32_t> hops_a, hops_b;  // BFS hops
  const auto beaten = [&](graph::NodeId s, double cost) {
    const std::vector<double>& trmin = entries_[s].unit.trmin_seconds;
    const std::uint32_t h = entries_[s].max_hops;
    const double to_a = from_a[s];
    const double to_b = from_b[s];
    const std::uint32_t sh_a = hops_a[s];
    const std::uint32_t sh_b = hops_b[s];
    for (graph::NodeId v = 0; v < n; ++v) {
      // A new path via the link needs hops(s, x) + 1 + hops(y, v) edges
      // at minimum; beyond the row's hop budget it cannot exist at all.
      const bool a_side_fits =
          h == 0 || (sh_a != graph::kUnreachable &&
                     hops_b[v] != graph::kUnreachable &&
                     sh_a + 1 + hops_b[v] <= h);
      const bool b_side_fits =
          h == 0 || (sh_b != graph::kUnreachable &&
                     hops_a[v] != graph::kUnreachable &&
                     sh_b + 1 + hops_a[v] <= h);
      if (a_side_fits && to_a + cost + from_b[v] < trmin[v] * scale)
        return true;
      if (b_side_fits && to_b + cost + from_a[v] < trmin[v] * scale)
        return true;
    }
    return false;
  };
  for (const MovedLink& m : moved) {
    if (pending.empty()) break;
    if (m.worsened) continue;
    const graph::Edge& edge = g.edge(m.e);
    // Each side of a via-link path has at most max_hops - 1 edges, so the
    // hop-bounded segment minimum is a valid (and much tighter than
    // unbounded Dijkstra) lower bound. Rows with no hop bound need the
    // unbounded minimum.
    if (unbounded_rows) {
      graph::dijkstra_distances_into(g, edge.a, inverse_costs_, from_a);
      graph::dijkstra_distances_into(g, edge.b, inverse_costs_, from_b);
    } else {
      graph::hop_bounded_min_cost_into(g, edge.a, inverse_costs_,
                                       max_hops_cap - 1, from_a);
      graph::hop_bounded_min_cost_into(g, edge.b, inverse_costs_,
                                       max_hops_cap - 1, from_b);
    }
    graph::bfs_hops_into(g, edge.a, hops_a);
    graph::bfs_hops_into(g, edge.b, hops_b);
    std::erase_if(pending, [&](graph::NodeId s) {
      if (!beaten(s, m.new_cost)) return false;
      entries_[s].valid = false;
      ++dropped;
      return true;
    });
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  invalidation_counter_->inc(dropped);

  net.snapshot_links();
  synced_version_ = net.link_version();
}

void ResponseTimeCache::serve(const Entry& entry, double data_mb,
                              ResponseTimeResult& out) const {
  const std::vector<double>& unit = entry.unit.trmin_seconds;
  out.trmin_seconds.resize(unit.size());
  for (std::size_t v = 0; v < unit.size(); ++v)
    out.trmin_seconds[v] =
        unit[v] == graph::kInfiniteCost ? graph::kInfiniteCost
                                        : unit[v] * data_mb;
  out.truncated = entry.unit.truncated;
}

void ResponseTimeCache::row_into(const NetworkState& net, graph::NodeId source,
                                 double data_mb,
                                 const ResponseTimeOptions& options,
                                 ResponseTimeResult& out) {
  if (!synced_with(net)) {
    // Out of sync (begin_cycle not run since the links moved): evaluate
    // directly without touching the cache — correct, just not incremental.
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    bypass_counter_->inc();
    static thread_local std::vector<double> inv;
    net.inverse_bandwidth_costs_into(inv);
    min_response_times_into(net, source, data_mb, options, inv, out);
    return;
  }
  Entry& entry = entries_.at(source);
  const bool hit = entry.valid && entry.max_hops == options.max_hops &&
                   entry.mode == options.mode &&
                   entry.max_paths == options.max_paths_per_source;
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_counter_->inc();
    out.work = 0;  // nothing evaluated; the row came from cache
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter_->inc();
    min_response_times_into(net, source, 1.0, options, inverse_costs_,
                            entry.unit);
    entry.max_hops = options.max_hops;
    entry.mode = options.mode;
    entry.max_paths = options.max_paths_per_source;
    entry.valid = true;
    out.work = entry.unit.work;
  }
  serve(entry, data_mb, out);
}

ResponseTimeResult ResponseTimeCache::row(const NetworkState& net,
                                          graph::NodeId source, double data_mb,
                                          const ResponseTimeOptions& options) {
  ResponseTimeResult out;
  row_into(net, source, data_mb, options, out);
  return out;
}

void ResponseTimeCache::clear() {
  for (Entry& entry : entries_) entry.valid = false;
  synced_once_ = false;
}

ResponseTimeCacheStats ResponseTimeCache::stats() const {
  ResponseTimeCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ResponseTimeCache::cached_rows() const {
  std::size_t count = 0;
  for (const Entry& entry : entries_)
    if (entry.valid) ++count;
  return count;
}

}  // namespace dust::net
