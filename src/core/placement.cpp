#include "core/placement.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace dust::core {

double PlacementProblem::total_excess() const {
  double total = 0.0;
  for (double v : cs) total += v;
  return total;
}

bool PlacementProblem::heterogeneous() const noexcept {
  for (double f : busy_factor)
    if (f != 1.0) return true;
  for (double f : candidate_factor)
    if (f != 1.0) return true;
  return false;
}

double PlacementProblem::total_spare() const {
  double total = 0.0;
  for (double v : cd) total += v;
  return total;
}

PlacementProblem build_placement_problem(const Nmdb& nmdb,
                                         const PlacementOptions& options) {
  PlacementProblem problem;
  nmdb.busy_nodes_into(problem.busy);
  nmdb.candidate_nodes_into(problem.candidates);
  if (options.trust_weighting)
    std::erase_if(problem.candidates, [&](graph::NodeId o) {
      return nmdb.trust(o) < options.trust_exclude_below;
    });
  const net::NetworkState& net = nmdb.network();

  problem.cs.reserve(problem.busy.size());
  for (graph::NodeId b : problem.busy)
    problem.cs.push_back(
        nmdb.thresholds(b).excess_load(net.node_utilization(b)));
  problem.cd.reserve(problem.candidates.size());
  for (graph::NodeId o : problem.candidates)
    problem.cd.push_back(
        nmdb.thresholds(o).spare_capacity(net.node_utilization(o)));
  problem.busy_factor.reserve(problem.busy.size());
  for (graph::NodeId b : problem.busy)
    problem.busy_factor.push_back(nmdb.platform_factor(b));
  problem.candidate_factor.reserve(problem.candidates.size());
  for (graph::NodeId o : problem.candidates)
    problem.candidate_factor.push_back(nmdb.platform_factor(o));

  problem.trmin.assign(problem.busy.size() * problem.candidates.size(),
                       solver::kInfinity);
  if (problem.busy.empty() || problem.candidates.empty()) return problem;

  net::ResponseTimeOptions rt;
  rt.max_hops = options.max_hops;
  rt.mode = options.evaluator;
  rt.max_paths_per_source = options.max_paths_per_source;

  // Shared read-only 1/Lu row for the fresh-evaluation path; the cache path
  // keeps its own pinned snapshot.
  std::vector<double> inverse_costs;
  if (options.response_cache == nullptr)
    net.inverse_bandwidth_costs_into(inverse_costs);
  auto fill_row = [&](std::size_t bi, std::size_t& work, bool& truncated) {
    const graph::NodeId source = problem.busy[bi];
    // Reused per-thread row buffer — the build allocates nothing per row
    // once each worker's buffers are grown.
    static thread_local net::ResponseTimeResult result;
    if (options.response_cache != nullptr) {
      options.response_cache->row_into(
          net, source, net.monitoring_data_mb(source), rt, result);
    } else {
      net::min_response_times_into(net, source, net.monitoring_data_mb(source),
                                   rt, inverse_costs, result);
    }
    for (std::size_t cj = 0; cj < problem.candidates.size(); ++cj) {
      const double t = result.trmin_seconds[problem.candidates[cj]];
      problem.trmin[bi * problem.candidates.size() + cj] =
          t == graph::kInfiniteCost ? solver::kInfinity : t;
    }
    work += result.work;
    if (result.truncated) truncated = true;
  };
  const std::size_t rows = problem.busy.size();
  if (options.solver_threads != 1 && rows > 1) {
    // Chunked fan-out (DESIGN.md §13): each worker claims row chunks and
    // fills them with its own thread_local scratch — no allocation per
    // chunk, NUMA-friendly first-touch. Per-chunk work tallies land in
    // slots indexed by chunk and are reduced serially below in chunk order,
    // so the built problem (matrix AND counters) is bit-identical to the
    // serial fill at every worker count.
    util::ThreadPool& pool = util::global_pool();
    std::size_t workers = pool.size();
    if (options.solver_threads != 0)
      workers = std::min(workers, options.solver_threads);
    workers = std::max<std::size_t>(workers, 1);
    // ~4 chunks per worker: coarse enough that the claim cursor is cold,
    // fine enough that one expensive row cannot straggle a whole sweep.
    const std::size_t chunk =
        std::max<std::size_t>(1, (rows + workers * 4 - 1) / (workers * 4));
    const std::size_t chunks = (rows + chunk - 1) / chunk;
    std::vector<std::size_t> chunk_work(chunks, 0);
    std::vector<char> chunk_truncated(chunks, 0);
    pool.parallel_for_chunks(
        rows, chunk, workers, [&](std::size_t begin, std::size_t end) {
          std::size_t work = 0;
          bool truncated = false;
          for (std::size_t bi = begin; bi < end; ++bi)
            fill_row(bi, work, truncated);
          chunk_work[begin / chunk] = work;
          chunk_truncated[begin / chunk] = truncated ? 1 : 0;
        });
    for (std::size_t c = 0; c < chunks; ++c) {
      problem.paths_explored += chunk_work[c];
      if (chunk_truncated[c]) problem.truncated = true;
    }
  } else {
    std::size_t work = 0;
    bool truncated = false;
    for (std::size_t bi = 0; bi < rows; ++bi) fill_row(bi, work, truncated);
    problem.paths_explored = work;
    problem.truncated = truncated;
  }
  if (options.trust_weighting) {
    // Column weights applied after the fill so cached rows stay unweighted.
    // trust == 1.0 gives w == 1.0 and t * 1.0 == t bit-for-bit.
    for (std::size_t cj = 0; cj < problem.candidates.size(); ++cj) {
      const double w = 1.0 + options.trust_cost_penalty *
                                 (1.0 - nmdb.trust(problem.candidates[cj]));
      if (w == 1.0) continue;
      for (std::size_t bi = 0; bi < rows; ++bi) {
        double& t = problem.trmin[bi * problem.candidates.size() + cj];
        if (t != solver::kInfinity) t *= w;
      }
    }
  }
  return problem;
}

double PlacementResult::offloaded_total() const {
  double total = 0.0;
  for (const Assignment& a : assignments) total += a.amount;
  return total;
}

double PlacementResult::offloaded_from(graph::NodeId node) const {
  double total = 0.0;
  for (const Assignment& a : assignments)
    if (a.from == node) total += a.amount;
  return total;
}

double PlacementResult::absorbed_by(graph::NodeId node) const {
  double total = 0.0;
  for (const Assignment& a : assignments)
    if (a.to == node) total += a.amount;
  return total;
}

void apply_assignments(Nmdb& nmdb, std::span<const Assignment> plan) {
  net::NetworkState& state = nmdb.network();
  for (const Assignment& a : plan) {
    const double origin =
        state.node_utilization(a.from) - a.amount;
    const double arriving = a.amount * nmdb.platform_factor(a.from) /
                            nmdb.platform_factor(a.to);
    const double destination = state.node_utilization(a.to) + arriving;
    state.set_node_utilization(a.from, std::clamp(origin, 0.0, 100.0));
    state.set_node_utilization(a.to, std::clamp(destination, 0.0, 100.0));
  }
}

double placement_violation(const PlacementProblem& problem,
                           const PlacementResult& result) {
  double worst = 0.0;
  // Flat node -> model-index maps; one pass over the assignments replaces
  // the old O(|assignments| * |V_b|) nested scan.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  graph::NodeId max_node = 0;
  for (graph::NodeId b : problem.busy) max_node = std::max(max_node, b);
  for (graph::NodeId o : problem.candidates) max_node = std::max(max_node, o);
  std::vector<std::size_t> busy_row(static_cast<std::size_t>(max_node) + 1,
                                    kNone);
  std::vector<std::size_t> candidate_col(
      static_cast<std::size_t>(max_node) + 1, kNone);
  for (std::size_t bi = 0; bi < problem.busy.size(); ++bi)
    busy_row[problem.busy[bi]] = bi;
  for (std::size_t cj = 0; cj < problem.candidates.size(); ++cj)
    candidate_col[problem.candidates[cj]] = cj;

  std::vector<double> shipped(problem.busy.size(), 0.0);
  std::vector<double> absorbed(problem.candidates.size(), 0.0);
  for (const Assignment& a : result.assignments) {
    const std::size_t bi = a.from <= max_node ? busy_row[a.from] : kNone;
    const std::size_t cj = a.to <= max_node ? candidate_col[a.to] : kNone;
    if (bi != kNone) shipped[bi] += a.amount;
    // 3a weighting needs the origin row's platform factor; assignments whose
    // origin is not a model row contribute nothing (same as before).
    if (cj != kNone && bi != kNone)
      absorbed[cj] += a.amount * problem.capacity_coefficient(bi, cj);
  }
  // 3b: every busy node sheds exactly Cs_i (>= for partial solves is checked
  // against unplaced separately — here we compare to Cs_i - unplaced share).
  for (std::size_t bi = 0; bi < problem.busy.size(); ++bi)
    if (shipped[bi] > problem.cs[bi])
      worst = std::max(worst, shipped[bi] - problem.cs[bi]);
  const double total_shortfall =
      problem.total_excess() - result.offloaded_total();
  worst = std::max(worst, std::abs(total_shortfall - result.unplaced));
  // 3a: destinations never exceed Cd_j (factor-weighted when heterogeneous).
  for (std::size_t cj = 0; cj < problem.candidates.size(); ++cj)
    if (absorbed[cj] > problem.cd[cj])
      worst = std::max(worst, absorbed[cj] - problem.cd[cj]);
  // No flow on forbidden (unreachable) pairs.
  for (const Assignment& a : result.assignments) {
    if (a.amount < 0) worst = std::max(worst, -a.amount);
    if (a.trmin_seconds == solver::kInfinity && a.amount > 0)
      worst = std::max(worst, a.amount);
  }
  return worst;
}

}  // namespace dust::core
