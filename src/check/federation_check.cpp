#include "check/federation_check.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

namespace dust::check {

namespace {

double node_excess(const core::Nmdb& nmdb, graph::NodeId v) {
  return nmdb.thresholds(v).excess_load(nmdb.network().node_utilization(v));
}

double node_spare(const core::Nmdb& nmdb, graph::NodeId v) {
  return nmdb.thresholds(v).spare_capacity(nmdb.network().node_utilization(v));
}

}  // namespace

FederatedComparison compare_federated_placement(
    const core::Nmdb& nmdb, const federation::DomainPartition& partition,
    const core::PlacementOptions& placement,
    const FederationCheckOptions& options) {
  FederatedComparison cmp;
  core::OptimizerOptions engine_options;
  engine_options.placement = placement;
  engine_options.allow_partial = true;
  const core::OptimizationEngine engine(engine_options);

  for (graph::NodeId b : nmdb.busy_nodes()) cmp.total_excess += node_excess(nmdb, b);

  // The global optimum: one manager, full visibility.
  cmp.single = engine.run(nmdb);
  cmp.single_placed = cmp.single.offloaded_total();
  cmp.single_stayed_in_domain = std::all_of(
      cmp.single.assignments.begin(), cmp.single.assignments.end(),
      [&](const core::Assignment& a) {
        return partition.shard_of(a.from) == partition.shard_of(a.to);
      });

  // Per-shard solves over masked NMDBs, exactly as FederatedManager masks.
  const std::size_t shards = partition.shard_count();
  std::map<graph::NodeId, double> spare_left;   // per-candidate, post-local
  std::vector<double> digest(shards, 0.0);      // per-shard aggregate spare
  struct Residual {
    graph::NodeId busy;
    std::uint32_t shard;
    double amount;
  };
  std::vector<Residual> residuals;
  for (std::uint32_t s = 0; s < shards; ++s) {
    core::Nmdb masked = nmdb;
    for (graph::NodeId v = 0; v < partition.home.size(); ++v)
      if (partition.home[v] != s) masked.set_offload_capable(v, false);
    const core::PlacementResult local = engine.run(masked);
    cmp.fed_local_objective += local.objective;
    cmp.fed_placed += local.offloaded_total();
    for (const core::Assignment& a : local.assignments)
      cmp.fed_assignments.push_back(a);
    for (graph::NodeId b : masked.busy_nodes()) {
      const double residual = node_excess(masked, b) - local.offloaded_from(b);
      if (residual > options.tolerance)
        residuals.push_back({b, s, residual});
    }
    for (graph::NodeId c : masked.candidate_nodes()) {
      const double spare =
          std::max(0.0, node_spare(masked, c) - local.absorbed_by(c));
      spare_left[c] = spare;
      digest[s] += spare;
    }
  }
  cmp.local_assignment_count = cmp.fed_assignments.size();

  // One delegation round, modelled as FederatedManager runs it: the origin
  // asks the neighbor with the largest aggregate digest, the grant lands on
  // that domain's single best candidate or is rejected outright.
  for (const Residual& r : residuals) {
    if (r.amount < options.min_delegation_amount) {
      cmp.stranded_below_floor += r.amount;
      continue;
    }
    std::uint32_t best_shard = r.shard;
    for (std::uint32_t t = 0; t < shards; ++t) {
      if (t == r.shard || digest[t] < options.min_delegation_amount) continue;
      if (best_shard == r.shard || digest[t] > digest[best_shard])
        best_shard = t;
    }
    if (best_shard == r.shard) {  // every neighbor digest under the floor
      cmp.stranded_below_floor += r.amount;
      continue;
    }
    const double amount = std::min(r.amount, digest[best_shard]);
    if (amount < r.amount)  // aggregate digest truncated the request
      cmp.stranded_by_granularity += r.amount - amount;
    graph::NodeId best = graph::kInvalidNode;
    double best_spare = 0.0;
    for (graph::NodeId c : partition.members[best_shard]) {
      auto it = spare_left.find(c);
      if (it == spare_left.end()) continue;
      if (best == graph::kInvalidNode || it->second > best_spare) {
        best = c;
        best_spare = it->second;
      }
    }
    const double needed =
        best == graph::kInvalidNode
            ? 0.0
            : amount * nmdb.platform_factor(r.busy) / nmdb.platform_factor(best);
    if (best == graph::kInvalidNode || best_spare + options.tolerance < needed) {
      // Spare exists in aggregate but no single destination holds it.
      cmp.stranded_by_granularity += amount;
      ++cmp.delegations_rejected;
      continue;
    }
    spare_left[best] -= needed;
    digest[best_shard] -= amount;
    cmp.fed_assignments.push_back(core::Assignment{r.busy, best, amount, 0.0});
    cmp.fed_placed += amount;
    ++cmp.delegations_granted;
  }
  cmp.fed_unplaced = std::max(0.0, cmp.total_excess - cmp.fed_placed);
  return cmp;
}

std::vector<Violation> check_federated_placement(
    const core::Nmdb& nmdb, const federation::DomainPartition& partition,
    const core::PlacementOptions& placement,
    const FederationCheckOptions& options) {
  return check_federated_comparison(
      nmdb, partition,
      compare_federated_placement(nmdb, partition, placement, options),
      options);
}

std::vector<Violation> check_federated_comparison(
    const core::Nmdb& nmdb, const federation::DomainPartition& partition,
    const FederatedComparison& cmp, const FederationCheckOptions& options) {
  std::vector<Violation> violations;
  const double tol = options.tolerance;

  for (std::size_t i = 0; i < cmp.local_assignment_count; ++i) {
    const core::Assignment& a = cmp.fed_assignments[i];
    if (partition.shard_of(a.from) != partition.shard_of(a.to)) {
      std::ostringstream os;
      os << "local solve of shard " << partition.shard_of(a.from)
         << " planned " << a.from << " -> " << a.to
         << " across the domain boundary";
      violations.push_back({"O8-local-containment", os.str()});
    }
  }

  if (cmp.fed_placed > cmp.single_placed + tol) {
    std::ostringstream os;
    os << "federated plan placed " << cmp.fed_placed
       << " > single-manager optimum " << cmp.single_placed;
    violations.push_back({"O8-no-overcommit", os.str()});
  }

  // Ground-truth capacity audit over every federated flow (local +
  // delegated): nothing may absorb beyond its spare.
  std::map<graph::NodeId, double> absorbed;
  for (const core::Assignment& a : cmp.fed_assignments)
    absorbed[a.to] += a.amount * nmdb.platform_factor(a.from) /
                      nmdb.platform_factor(a.to);
  for (const auto& [node, amount] : absorbed) {
    const double spare = node_spare(nmdb, node);
    if (amount > spare + tol) {
      std::ostringstream os;
      os << "destination " << node << " absorbs " << amount
         << " over its spare " << spare;
      violations.push_back({"O8-spare-respected", os.str()});
    }
  }

  const double single_unplaced =
      std::max(0.0, cmp.total_excess - cmp.single_placed);
  const double explained = single_unplaced + cmp.stranded_below_floor +
                           cmp.stranded_by_granularity;
  if (cmp.fed_unplaced > explained + tol) {
    std::ostringstream os;
    os << "federated unplaced " << cmp.fed_unplaced
       << " exceeds the declared stranding bound " << explained
       << " (single " << single_unplaced << " + floor "
       << cmp.stranded_below_floor << " + granularity "
       << cmp.stranded_by_granularity << ")";
    violations.push_back({"O8-gap-accounted", os.str()});
  }

  // At a degenerate optimum the flows are not unique: equal-cost routes can
  // split a load differently at the same beta. Every optimum has the same
  // objective and ships the same total; when the single-manager optimum
  // ships every busy node in full, every optimum does.
  if (cmp.single_stayed_in_domain) {
    std::map<graph::NodeId, double> shipped;
    double fed_local_placed = 0.0;
    for (std::size_t i = 0; i < cmp.local_assignment_count; ++i) {
      shipped[cmp.fed_assignments[i].from] += cmp.fed_assignments[i].amount;
      fed_local_placed += cmp.fed_assignments[i].amount;
    }
    bool same =
        std::abs(cmp.fed_local_objective - cmp.single.objective) <= tol &&
        std::abs(fed_local_placed - cmp.single_placed) <= tol;
    if (cmp.single_placed + tol >= cmp.total_excess)
      for (graph::NodeId b : nmdb.busy_nodes())
        same = same && std::abs(shipped[b] - node_excess(nmdb, b)) <= tol;
    if (!same) {
      std::ostringstream os;
      os << "single-manager optimum stayed in-domain (placed "
         << cmp.single_placed << ", beta " << cmp.single.objective
         << ") but sharded solves placed " << fed_local_placed << ", beta "
         << cmp.fed_local_objective;
      violations.push_back({"O8-identical", os.str()});
    }
  }
  return violations;
}

}  // namespace dust::check
