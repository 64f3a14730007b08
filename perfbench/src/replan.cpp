// `replan`: the manager's placement cycle driven directly —
// ResponseTimeCache::begin_cycle (net), build_placement_problem (core) and
// OptimizationEngine::solve (solver) — on fat-tree k=16 with exactly 71 busy
// nodes and 178 offload candidates. 5% of node loads are redrawn every
// cycle, so the busy and candidate sets change and every solve is cold;
// links are static, so Trmin rows come from the cache. The solver does
// nearly all the work.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/optimizer.hpp"
#include "graph/topology.hpp"
#include "net/response_cache.hpp"
#include "net/traffic.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dust;

constexpr std::uint32_t kFatTreeK = 16;
/// Role counts proportional to the bands of [x_min, 100] (20/90 busy, 50/90
/// candidates), fixed so every seed and cycle builds a model of one size.
constexpr std::size_t kBusy = 71;
constexpr std::size_t kCandidates = 178;
/// Cross-check every Nth cycle's objective against successive shortest
/// paths on the same problem.
constexpr std::size_t kCrossCheckEvery = 10;

core::OptimizerOptions engine_options(net::ResponseTimeCache* cache) {
  core::OptimizerOptions options;
  options.placement.max_hops = 4;
  options.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
  options.placement.response_cache = cache;
  options.allow_partial = true;
  options.warm_start = true;
  return options;
}

core::OptimizerOptions reference_options() {
  core::OptimizerOptions options;
  options.backend = core::SolverBackend::kMinCostFlow;
  options.allow_partial = true;
  return options;
}

class ReplanWorkload final : public Workload {
 public:
  explicit ReplanWorkload(std::uint64_t seed)
      : rng_(seed),
        nmdb_(net::make_random_state(graph::FatTree(kFatTreeK).graph(),
                                     net::LinkProfile{}, net::NodeLoadProfile{},
                                     rng_),
              core::Thresholds{}),
        engine_(engine_options(&cache_)),
        reference_(reference_options()) {
    assign_roles();
    // The cold first cycle fills the cache; the timed phase starts warm.
    Tracer off;
    cycle(off);
    busy_ = problem_.busy.size();
    candidates_ = problem_.candidates.size();
    iterations_ = 0;
    cells_ = 0;
    cache_base_ = cache_.stats();
    cold_base_ = engine_.cold_solves();
    dirty_base_ = engine_.dirty_resolves();
  }

  std::vector<std::pair<std::string, std::string>> shape() const override {
    const net::NetworkState& net = nmdb_.network();
    return {{"topology", "fat-tree k=" + std::to_string(kFatTreeK)},
            {"nodes", std::to_string(net.node_count())},
            {"links", std::to_string(net.edge_count())},
            {"busy x candidates (set-up)",
             std::to_string(busy_) + " x " + std::to_string(candidates_)},
            {"max hops", "4"}};
  }

  const char* work_unit() const override { return "cycles"; }

  void check_setup(Ledger& ledger) override {
    std::string why;
    if (!verify(&why) || !cross_check(&why)) ledger.fail_run("set-up: " + why);
  }

  double op(Tracer& tracer) override {
    {
      Scope scope(tracer, "net.update");
      redraw_loads();
    }
    cycle(tracer);
    return 1.0;
  }

  void check(Ledger& ledger, std::size_t op_index) override {
    std::string why;
    ledger.check(op_index, verify(&why), why);
    if (++checked_ % kCrossCheckEvery == 0)
      ledger.check(op_index, cross_check(&why), why);
  }

  void layer_counts(std::map<std::string, double>& out,
                    std::size_t ops) const override {
    const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
    const net::ResponseTimeCacheStats cache = cache_.stats();
    const double hits = static_cast<double>(cache.hits - cache_base_.hits);
    const double misses =
        static_cast<double>(cache.misses - cache_base_.misses);
    out["solver.iterations"] = static_cast<double>(iterations_) / n;
    out["solver.cold_solves"] =
        static_cast<double>(engine_.cold_solves() - cold_base_) / n;
    out["solver.dirty_resolves"] =
        static_cast<double>(engine_.dirty_resolves() - dirty_base_) / n;
    out["net.cache_hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out["net.cache_misses"] = misses / n;
    out["net.invalidations"] =
        static_cast<double>(cache.invalidations - cache_base_.invalidations) /
        n;
    out["core.trmin_cells"] = static_cast<double>(cells_) / n;
  }

 private:
  void cycle(Tracer& tracer) {
    {
      Scope scope(tracer, "net.begin_cycle");
      cache_.begin_cycle(nmdb_.network());
    }
    {
      Scope scope(tracer, "core.build");
      problem_ =
          core::build_placement_problem(nmdb_, engine_.options().placement);
    }
    {
      Scope scope(tracer, "solver.solve");
      result_ = engine_.solve(problem_);
    }
    iterations_ += result_.solver_iterations;
    cells_ += problem_.busy.size() * problem_.candidates.size();
  }

  /// A load uniform within `role`'s band of [x_min, 100].
  double draw_load(core::NodeRole role) {
    const core::Thresholds t;
    switch (role) {
      case core::NodeRole::kBusy:
        return rng_.uniform(t.c_max, 100.0);
      case core::NodeRole::kOffloadCandidate:
        return rng_.uniform(t.x_min, t.co_max);
      default:
        return rng_.uniform(t.co_max + 1e-6, t.c_max - 1e-6);
    }
  }

  /// Shuffled nodes: the first kBusy busy, the next kCandidates offload
  /// candidates, the rest neutral.
  void assign_roles() {
    net::NetworkState& net = nmdb_.network();
    std::vector<graph::NodeId> order(net.node_count());
    std::iota(order.begin(), order.end(), graph::NodeId{0});
    std::shuffle(order.begin(), order.end(), rng_);
    for (std::size_t i = 0; i < order.size(); ++i)
      net.set_node_utilization(
          order[i], draw_load(i < kBusy ? core::NodeRole::kBusy
                              : i < kBusy + kCandidates
                                  ? core::NodeRole::kOffloadCandidate
                                  : core::NodeRole::kNeutral));
  }

  /// Redraw 5% of node loads: the picked nodes swap roles among themselves
  /// and draw new loads within their new role's band. Busy and candidate
  /// sets change every cycle while their sizes, and so the model's shape,
  /// stay fixed; with role counts proportional to band widths the loads stay
  /// uniform in [x_min, 100].
  void redraw_loads() {
    net::NetworkState& net = nmdb_.network();
    const core::Thresholds t;
    std::vector<graph::NodeId> picked(net.node_count());
    std::iota(picked.begin(), picked.end(), graph::NodeId{0});
    std::shuffle(picked.begin(), picked.end(), rng_);
    picked.resize(net.node_count() / 20);
    std::vector<core::NodeRole> roles;
    for (const graph::NodeId v : picked)
      roles.push_back(t.classify(net.node_utilization(v)));
    std::shuffle(roles.begin(), roles.end(), rng_);
    for (std::size_t i = 0; i < picked.size(); ++i)
      net.set_node_utilization(picked[i], draw_load(roles[i]));
  }

  /// Optimal (a partial solve reports its remainder in `unplaced`, which
  /// placement_violation reconciles) and within constraints 3a/3b.
  bool verify(std::string* why) const {
    if (!result_.optimal()) {
      *why = std::string("status ") + solver::to_string(result_.status);
      return false;
    }
    const double violation = core::placement_violation(problem_, result_);
    if (violation > 1e-6) {
      *why = "placement violation " + std::to_string(violation);
      return false;
    }
    return true;
  }

  /// Same problem, second backend: objectives and unplaced load must agree.
  bool cross_check(std::string* why) const {
    const core::PlacementResult reference = reference_.solve(problem_);
    const double objective_tolerance =
        1e-6 * std::max(std::abs(result_.objective),
                        std::abs(reference.objective)) +
        1e-12;
    const double unplaced_tolerance =
        1e-6 * std::max(1.0, problem_.total_excess());
    if (!reference.optimal() ||
        std::abs(reference.objective - result_.objective) >
            objective_tolerance ||
        std::abs(reference.unplaced - result_.unplaced) > unplaced_tolerance) {
      *why = "objective " + std::to_string(result_.objective) +
             " (unplaced " + std::to_string(result_.unplaced) +
             ") disagrees with min-cost flow " +
             std::to_string(reference.objective) + " (unplaced " +
             std::to_string(reference.unplaced) + ")";
      return false;
    }
    return true;
  }

  util::Rng rng_;
  core::Nmdb nmdb_;
  /// Declared before engine_, whose options point at it.
  net::ResponseTimeCache cache_;
  core::OptimizationEngine engine_;
  core::OptimizationEngine reference_;
  core::PlacementProblem problem_;
  core::PlacementResult result_;
  std::size_t busy_ = 0;
  std::size_t candidates_ = 0;
  std::size_t checked_ = 0;
  std::size_t iterations_ = 0;
  std::size_t cells_ = 0;
  net::ResponseTimeCacheStats cache_base_;
  std::size_t cold_base_ = 0;
  std::size_t dirty_base_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_replan(std::uint64_t seed) {
  return std::make_unique<ReplanWorkload>(seed);
}

}  // namespace perfbench
