// `fleet`: the whole control protocol in virtual time — one DustManager and
// one DustClient per switch of fat-tree k=32 (1280 clients) over
// sim::Transport. Clients STAT every second, hosting destinations keepalive
// every 10 s, the manager places incrementally every 60 s.
//
// Every period the busy set rotates at constant size: kRotate busy nodes
// recover and kRotate others cross Cmax, at evenly spaced (seed-jittered)
// times, and 10% of links jitter by <= 3%. An odd kRotate keeps the relief
// median on one slot. A node is relieved when the acknowledged offloads
// from it cover its whole excess over Cmax; it then reports just under
// Cmax, as a node whose agents left would. Relief time is sim seconds from
// crossing to that point. A node not relieved within two periods fails the
// op in which it crossed; set-up's busy nodes fail the run.
//
// `fleet_quiet` is the same fleet with no busy node: STATs, keepalive checks,
// link jitter and empty placement cycles, so it measures the per-message
// path alone and has no relief to check.
//
// One op is three seconds of sim time (three STAT rounds, ~3.8k messages),
// so the placement cycle lands in one op of twenty and p90 sits on STAT
// ops; shorter ops left p90 at the mercy of millisecond hiccups.
// The checks that must run while the simulator calls back (every cycle's
// result, the relief polls) are timed apart and left out of the op time.
#include <algorithm>
#include <memory>
#include <string>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dust;

constexpr std::uint32_t kFatTreeK = 32;
constexpr sim::TimeMs kStatMs = 1000;
/// Sim time per op: three STAT rounds.
constexpr sim::TimeMs kOpMs = 3 * kStatMs;
constexpr sim::TimeMs kKeepaliveMs = 10000;
constexpr sim::TimeMs kPeriodMs = 60000;
constexpr sim::TimeMs kReliefDeadlineMs = 2 * kPeriodMs;
constexpr std::size_t kBusyNodes = 32;  ///< `fleet`; `fleet_quiet` has none
constexpr std::size_t kRotate = 7;
constexpr double kDataMb = 10.0;
constexpr std::uint32_t kAgents = 10;
/// Relief polls after each placement cycle, one sim-ms apart.
constexpr int kReliefPolls = 20;
constexpr std::size_t kSetupOp = static_cast<std::size_t>(-1);

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::size_t busy_nodes)
      : busy_nodes_(busy_nodes),
        rng_(seed),
        transport_(sim_, util::Rng(seed).fork(1)),
        manager_(sim_, transport_, make_nmdb(), manager_config()) {
    const std::size_t n = load_.size();
    clients_.reserve(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      core::ClientConfig config;
      config.keepalive_interval_ms = kKeepaliveMs;
      clients_.push_back(std::make_unique<core::DustClient>(
          sim_, transport_, v, config, util::Rng(seed).fork(100 + v)));
      clients_.back()->set_reported_state(load_[v], kDataMb, kAgents);
    }
    manager_.set_cycle_observer(
        [this](const core::CycleObservation& observation) {
          on_cycle(observation);
        });
    for (auto& client : clients_) client->start();
    manager_.start();
    period_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, kPeriodMs + kStatMs / 2, kPeriodMs,
        [this](sim::TimeMs now) { on_period(now); });

    // Steady state: every client acknowledged and the first placement cycle
    // run. Set-up's busy nodes keep their two periods into the timed phase.
    sim_.run_until(kPeriodMs + kStatMs);

    base_ = read_counters();
    period_base_ = sim_.now();
  }

  std::vector<std::pair<std::string, std::string>> shape() const override {
    const net::NetworkState& net = manager_.nmdb().network();
    const double periods =
        static_cast<double>(sim_.now() - period_base_) / kPeriodMs;
    const double per_period =
        periods > 0 ? static_cast<double>(transport_.delivered() -
                                          base_.delivered) /
                          periods
                    : 0.0;
    return {{"topology", "fat-tree k=" + std::to_string(kFatTreeK)},
            {"nodes", std::to_string(net.node_count())},
            {"links", std::to_string(net.edge_count())},
            {"endpoints", std::to_string(clients_.size() + 1)},
            {"busy nodes",
             std::to_string(busy_nodes_) + ", " +
                 std::to_string(busy_nodes_ > 0 ? kRotate : 0) +
                 " rotated per period"},
            {"messages per period", std::to_string(std::llround(per_period))},
            {"relief samples", std::to_string(relief_s_.size())}};
  }

  const char* work_unit() const override { return "messages"; }

  void check_setup(Ledger& ledger) override {
    for (const auto& client : clients_)
      if (!client->acknowledged())
        failures_.push_back({kSetupOp, "client not acknowledged"});
    report(ledger);
  }

  double op(Tracer& tracer) override {
    current_op_ = ops_++;
    tracer_ = &tracer;
    const std::uint64_t delivered = transport_.delivered();
    {
      Scope scope(tracer, "sim.run");
      events_ += sim_.run_until(sim_.now() + kOpMs);
    }
    tracer_ = nullptr;
    return static_cast<double>(transport_.delivered() - delivered);
  }

  std::int64_t untimed_ns() const override { return untimed_ns_; }

  void check(Ledger& ledger, std::size_t /*op_index*/) override {
    // Acknowledgements that came after a cycle's polls are caught here, at
    // the resolution of one op.
    poll_relief();
    report(ledger);
  }

  void finish(Ledger& ledger) override {
    end_ = read_counters();
    timed_end_ = true;
    // Untimed drain: every node that crossed during the timed phase gets its
    // two periods; the busy set stops rotating.
    current_op_ = kSetupOp;
    rotating_ = false;
    for (sim::TimeMs t = 0; t <= kReliefDeadlineMs; t += kStatMs) {
      sim_.run_until(sim_.now() + kStatMs);
      poll_relief();
    }
    for (const Pending& p : pending_) fail(p, "not relieved after drain");
    pending_.clear();
    report(ledger);
  }

  void layer_counts(std::map<std::string, double>& out,
                    std::size_t ops) const override {
    const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
    const Counters end = timed_end_ ? end_ : read_counters();
    const auto per_op = [n](auto now, auto base) {
      return static_cast<double>(now - base) / n;
    };
    out["sim.msgs_sent"] = per_op(end.sent, base_.sent);
    out["sim.msgs_delivered"] = per_op(end.delivered, base_.delivered);
    out["sim.msgs_dropped"] = per_op(end.dropped, base_.dropped);
    out["sim.events"] = static_cast<double>(events_) / n;
    out["core.offloads_created"] = per_op(end.created, base_.created);
    out["core.releases"] = per_op(end.releases, base_.releases);
    out["core.redirects"] = per_op(end.redirects, base_.redirects);
    out["core.keepalive_failures"] =
        per_op(end.keepalive_failures, base_.keepalive_failures);
    out["core.relief_s_p50"] = percentile(relief_s_, 0.5).value_or(0.0);
    out["core.relief_s_p90"] = percentile(relief_s_, 0.9).value_or(0.0);
    out["solver.cold_solves"] = per_op(end.cold_solves, base_.cold_solves);
    out["solver.dirty_resolves"] =
        per_op(end.dirty_resolves, base_.dirty_resolves);
    const double hits = static_cast<double>(end.cache.hits - base_.cache.hits);
    const double misses =
        static_cast<double>(end.cache.misses - base_.cache.misses);
    out["net.cache_hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out["net.cache_misses"] = misses / n;
    out["net.invalidations"] =
        per_op(end.cache.invalidations, base_.cache.invalidations);
  }

 private:
  struct Pending {
    graph::NodeId node;
    sim::TimeMs crossed_at;
    std::size_t op;
  };

  /// Protocol and layer counters, read at the ends of the timed phase.
  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t created = 0;
    std::size_t releases = 0;
    std::size_t redirects = 0;
    std::size_t keepalive_failures = 0;
    std::size_t cold_solves = 0;
    std::size_t dirty_resolves = 0;
    net::ResponseTimeCacheStats cache;
  };

  /// The benchmark's own work inside Simulator::run_until: a "bench.check"
  /// span in traced ops, and its wall time left out of the op time.
  class Untimed {
   public:
    explicit Untimed(FleetWorkload& fleet)
        : scope_(*fleet.tracer_or_off(), "bench.check"),
          sink_(fleet.untimed_ns_),
          start_(now_ns()) {}
    ~Untimed() { sink_ += now_ns() - start_; }
    Untimed(const Untimed&) = delete;
    Untimed& operator=(const Untimed&) = delete;

   private:
    Scope scope_;
    std::int64_t& sink_;
    std::int64_t start_;
  };

  Counters read_counters() const {
    Counters c;
    c.sent = transport_.sent();
    c.delivered = transport_.delivered();
    c.dropped = transport_.dropped();
    c.created = obs::MetricRegistry::global()
                    .counter("dust_core_offloads_created_total")
                    .value();
    c.releases = manager_.releases();
    c.redirects = manager_.redirects();
    c.keepalive_failures = manager_.keepalive_failures();
    c.cold_solves = manager_.engine().cold_solves();
    c.dirty_resolves = manager_.engine().dirty_resolves();
    c.cache = manager_.trmin_cache_stats();
    return c;
  }

  static core::ManagerConfig manager_config() {
    core::ManagerConfig config;
    config.update_interval_ms = kStatMs;
    config.placement_period_ms = kPeriodMs;
    config.keepalive_timeout_ms = 3 * kKeepaliveMs;
    config.keepalive_check_period_ms = kKeepaliveMs;
    config.incremental_placement = true;
    config.optimizer.allow_partial = true;
    config.optimizer.placement.max_hops = 4;
    config.optimizer.placement.evaluator = net::EvaluatorMode::kSharedFrontier;
    return config;
  }

  /// Random links; node loads below Cmax except kBusyNodes above it.
  core::Nmdb make_nmdb() {
    net::NetworkState state = net::make_random_state(
        graph::FatTree(kFatTreeK).graph(), net::LinkProfile{},
        net::NodeLoadProfile{}, rng_);
    const std::size_t n = state.node_count();
    load_.resize(n);
    busy_.assign(n, false);
    for (graph::NodeId v = 0; v < n; ++v) load_[v] = rng_.uniform(10.0, 75.0);
    for (std::size_t i = 0; i < busy_nodes_; ++i)
      mark_busy(pick(false), 0, kSetupOp);
    for (graph::NodeId v = 0; v < n; ++v) {
      state.set_node_utilization(v, load_[v]);
      state.set_monitoring_data_mb(v, kDataMb);
    }
    return core::Nmdb(std::move(state), core::Thresholds{});
  }

  /// A random node that is (or is not) in the busy set.
  graph::NodeId pick(bool busy) {
    for (;;) {
      const auto v = static_cast<graph::NodeId>(rng_.below(load_.size()));
      if (busy_[v] == busy) return v;
    }
  }

  void mark_busy(graph::NodeId v, sim::TimeMs now, std::size_t op) {
    busy_[v] = true;
    load_[v] = rng_.uniform(81.0, 100.0);
    pending_.push_back({v, now, op});
  }

  /// A random node crosses Cmax now.
  void cross() {
    if (!rotating_) return;
    const graph::NodeId v = pick(false);
    mark_busy(v, sim_.now(), current_op_);
    clients_[v]->set_reported_state(load_[v], kDataMb, kAgents);
  }

  void on_period(sim::TimeMs now) {
    {
      Scope scope(*tracer_or_off(), "net.update");
      jitter_links();
    }
    {
      Untimed untimed(*this);
      std::erase_if(pending_, [this, now](const Pending& p) {
        if (now - p.crossed_at <= kReliefDeadlineMs) return false;
        fail(p, "not relieved in two periods");
        return true;
      });
    }
    if (busy_nodes_ == 0) return;
    // Rotations land at evenly spaced times through the period, clear of
    // the cycle at its end, each jittered by the seed.
    constexpr auto kSlots = static_cast<sim::TimeMs>(kRotate);
    const sim::TimeMs span = kPeriodMs - 4 * kStatMs;
    for (std::size_t i = 0; i < kRotate; ++i) {
      const sim::TimeMs slot =
          now + kStatMs / 2 + span * static_cast<sim::TimeMs>(i) / kSlots;
      const auto jitter = [this] {
        return static_cast<sim::TimeMs>(rng_.below(kStatMs / 2));
      };
      sim_.schedule_at(slot + jitter(), [this] { recover(); });
      sim_.schedule_at(slot + span / (2 * kSlots) + jitter(),
                       [this] { cross(); });
    }
  }

  /// One relieved busy node recovers well below Cmax, so the manager
  /// releases its offloads.
  void recover() {
    if (!rotating_) return;
    graph::NodeId v = 0;
    do {
      v = pick(true);
    } while (std::any_of(pending_.begin(), pending_.end(),
                         [v](const Pending& p) { return p.node == v; }));
    busy_[v] = false;
    load_[v] = rng_.uniform(20.0, 50.0);
    clients_[v]->set_reported_state(load_[v], kDataMb, kAgents);
  }

  void jitter_links() {
    net::NetworkState& net = manager_.nmdb().network();
    const std::size_t count = net.edge_count() / 10;
    for (std::size_t i = 0; i < count; ++i) {
      const auto e = static_cast<graph::EdgeId>(rng_.below(net.edge_count()));
      net::LinkState state = net.link(e);
      state.utilization =
          std::clamp(state.utilization * rng_.uniform(0.97, 1.03), 0.01, 1.0);
      net.set_link(e, state);
    }
  }

  void on_cycle(const core::CycleObservation& observation) {
    const core::PlacementResult& result = *observation.result;
    if (tracer_ != nullptr) {
      // The cycle ran inside Simulator::run_until; its build and solve
      // times end here.
      const std::int64_t end = now_ns();
      tracer_->record(
          "core.cycle",
          end - static_cast<std::int64_t>(
                    (result.build_seconds + result.solve_seconds) * 1e9),
          end);
    }
    Untimed untimed(*this);
    if (!result.optimal())
      failures_.push_back({current_op_, std::string("cycle status ") +
                                            solver::to_string(result.status)});
    const double violation =
        core::placement_violation(*observation.problem, result);
    if (violation > 1e-6)
      failures_.push_back(
          {current_op_, "placement violation " + std::to_string(violation)});
    sim_.schedule(1, [this] { poll_relief_after_cycle(1); });
  }

  void poll_relief_after_cycle(int attempt) {
    poll_relief();
    if (!pending_.empty() && attempt < kReliefPolls)
      sim_.schedule(1, [this, attempt] { poll_relief_after_cycle(attempt + 1); });
  }

  /// Relieve every pending node whose acknowledged offloads cover its
  /// excess over Cmax.
  void poll_relief() {
    if (pending_.empty()) return;
    Untimed untimed(*this);
    const core::Thresholds thresholds;
    acked_.assign(load_.size(), 0.0);
    for (const core::ActiveOffload& offload : manager_.active_offloads())
      if (offload.acknowledged && offload.busy < acked_.size())
        acked_[offload.busy] += offload.amount;
    const sim::TimeMs now = sim_.now();
    std::erase_if(pending_, [&](const Pending& p) {
      if (acked_[p.node] <
          thresholds.excess_load(load_[p.node]) * (1.0 - 1e-9))
        return false;
      if (now - p.crossed_at > kReliefDeadlineMs)
        fail(p, "relieved only after " +
                    std::to_string((now - p.crossed_at) / 1000) + " s");
      else if (p.op != kSetupOp)
        relief_s_.push_back(static_cast<double>(now - p.crossed_at) / 1e3);
      load_[p.node] = thresholds.c_max - 1.0;  // its agents left
      clients_[p.node]->set_reported_state(load_[p.node], kDataMb, kAgents);
      return true;
    });
  }

  /// Pending node `p` missed its deadline: the op in which it crossed fails
  /// (the run, for set-up's busy nodes).
  void fail(const Pending& p, const std::string& what) {
    failures_.push_back({p.op, "node " + std::to_string(p.node) + " at " +
                                   std::to_string(load_[p.node]) + "% " +
                                   what});
  }

  void report(Ledger& ledger) {
    for (const auto& [op, what] : failures_) {
      if (op == kSetupOp)
        ledger.fail_run("set-up: " + what);
      else
        ledger.check(op, false, what);
    }
    failures_.clear();
  }

  Tracer* tracer_or_off() { return tracer_ != nullptr ? tracer_ : &off_; }

  const std::size_t busy_nodes_;
  util::Rng rng_;
  std::vector<double> load_;  ///< each node's reported utilization
  std::vector<bool> busy_;    ///< crossed Cmax and not yet recovered
  std::vector<Pending> pending_;
  std::vector<double> acked_;  ///< scratch: acknowledged offload per node
  std::vector<double> relief_s_;
  std::vector<std::pair<std::size_t, std::string>> failures_;
  sim::Simulator sim_;
  sim::Transport transport_;
  core::DustManager manager_;
  std::vector<std::unique_ptr<core::DustClient>> clients_;
  std::unique_ptr<sim::PeriodicTask> period_task_;
  Tracer* tracer_ = nullptr;
  Tracer off_;
  std::size_t current_op_ = kSetupOp;
  std::size_t ops_ = 0;
  std::size_t events_ = 0;
  std::int64_t untimed_ns_ = 0;
  bool rotating_ = true;
  bool timed_end_ = false;
  Counters base_;
  Counters end_;
  sim::TimeMs period_base_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed, kBusyNodes);
}

std::unique_ptr<Workload> make_fleet_quiet(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed, 0);
}

}  // namespace perfbench
