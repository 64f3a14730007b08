// Health watchdogs: the one rule engine over MetricRegistry snapshots
// (DESIGN.md §10, §15). The caller pumps evaluate() on whatever cadence it
// likes (a sim::PeriodicTask, a scrape loop, once at end of run); each
// evaluation reads one RegistrySnapshot, diffs it against the previous
// evaluation (so rules see *windows*, not lifetime aggregates), applies the
// rules, and raises structured alerts — into the returned vector, into the
// flight recorder (kAlert), and onto `dust_obs_alerts_total` /
// `dust_obs_alert_<rule>_total` counters in the watchdog's registry.
//
// Two entry points differ only in where the snapshot comes from:
// evaluate(sim_now_ms) scrapes the watchdog's own registry (one process);
// evaluate(aggregator, now_ms) reads Aggregator::fleet_snapshot() (counters
// and gauges summed over nodes, histograms merged) and also runs the one
// rule that needs per-node state, node-silent. A Watchdog keeps one set of
// window cursors, so an instance should stick to one entry point.
//
// Rules (all windows are deltas between consecutive evaluate() calls):
//   node-silent                   (fleet view only) a node's last applied
//                                 snapshot is older than `scrape_gap_ms`:
//                                 scrapes are not coming back
//   undeclared-loss               dust_dataplane_undeclared_gap_batches_total
//                                 grew in the window: telemetry was lost
//                                 without a degradation announcement
//   placement-latency-regression  window mean of dust_core_placement_solve_ms
//                                 exceeds `latency_regression_factor` × a
//                                 rolling EWMA baseline of earlier windows
//   hfr-spike                     dust_core_hfr_percent gauge above
//                                 `hfr_spike_percent` (heuristic failure rate)
//   trust-collapse                dust_core_distrusted_nodes gauge above
//                                 `distrusted_nodes_limit` (DESIGN.md §14)
//   nmdb-staleness                window p{staleness_quantile} of
//                                 dust_core_nmdb_staleness_ms above
//                                 `staleness_limit_ms` — the optimizer is
//                                 planning on an outdated network view (a
//                                 tail threshold: one badly stale view
//                                 matters even when the mean looks fine)
//   replica-substitution          keepalive failures in the window without a
//                                 matching REP: a dead destination's workload
//                                 was not re-homed
//   federation-failover           dust_fed_takeovers_total grew in the
//                                 window: a standby bumped the epoch and took
//                                 over a shard (DESIGN.md §16) — operators
//                                 should check what killed the primary
//   federation-stale-epoch        dust_fed_stale_frames_total grew past
//                                 `stale_epoch_frames_limit` in the window: a
//                                 superseded primary (or a partitioned peer)
//                                 is still emitting frames at an old epoch
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dust::obs {

class Aggregator;

struct WatchdogConfig {
  /// Alert when a window's mean solve latency exceeds baseline × factor.
  double latency_regression_factor = 3.0;
  /// Windows with fewer solve samples than this neither alert nor move the
  /// baseline (a single slow cycle is noise, not a regression).
  std::uint64_t min_latency_samples = 3;
  /// EWMA weight of the newest window when updating the latency baseline.
  double latency_baseline_alpha = 0.3;
  /// Heuristic failure rate (percent) above which hfr-spike fires.
  double hfr_spike_percent = 50.0;
  /// Window NMDB staleness (ms) above which nmdb-staleness fires.
  double staleness_limit_ms = 180000.0;
  /// Which windowed quantile of dust_core_nmdb_staleness_ms the staleness
  /// rule thresholds. Tail quantiles come interpolated from the log buckets
  /// (obs::HistogramSnapshot::quantile) so a single very stale planning
  /// cycle trips the rule even when the window mean is healthy.
  double staleness_quantile = 0.9;
  /// trust-collapse fires when dust_core_distrusted_nodes (nodes below the
  /// manager's trust exclusion threshold) exceeds this.
  double distrusted_nodes_limit = 0.0;
  /// Stale-epoch frames tolerated per window before federation-stale-epoch
  /// fires. A couple are normal during a takeover (in-flight frames from the
  /// deposed primary); sustained growth means it never stopped talking.
  std::uint64_t stale_epoch_frames_limit = 3;
  /// node-silent: alert when a node's last applied snapshot is older than
  /// this (ms of aggregator clock). <= 0 disables the rule.
  std::int64_t scrape_gap_ms = 2000;
};

struct Alert {
  std::string rule;     ///< "placement-latency-regression", ...
  std::string node;     ///< offending node (node-silent), else empty
  std::string message;  ///< human-readable cause
  double value = 0.0;   ///< the observation that tripped the rule
  std::int64_t sim_ms = -1;
};

class Watchdog {
 public:
  explicit Watchdog(MetricRegistry& registry = MetricRegistry::global(),
                    WatchdogConfig config = {});

  /// Scrape the watchdog's registry, diff against the previous evaluation,
  /// run every rule. The first call only primes the windows (no alerts).
  /// `sim_now_ms` stamps the raised alerts and flight-recorder events
  /// (-1 = unknown).
  std::vector<Alert> evaluate(std::int64_t sim_now_ms = -1);

  /// The same rules over the aggregator's merged fleet snapshot, plus
  /// node-silent over its per-node staleness. `now_ms` is the aggregator's
  /// clock.
  std::vector<Alert> evaluate(const Aggregator& aggregator,
                              std::int64_t now_ms);

  [[nodiscard]] std::uint64_t alerts_raised() const noexcept {
    return alerts_raised_;
  }
  /// Rolling solve-latency baseline (ms); < 0 until enough windows passed.
  [[nodiscard]] double latency_baseline_ms() const noexcept {
    return latency_baseline_ms_;
  }

 private:
  struct HistCursor {
    std::uint64_t count = 0;
    double sum = 0.0;
    /// Per-bucket totals at the previous evaluation, so windows can compute
    /// quantiles (not just means) from the bucket deltas.
    std::uint64_t buckets[Histogram::kBuckets] = {};
  };

  static std::optional<HistogramSnapshot> histogram_window(
      const RegistrySnapshot& snapshot, const char* name, HistCursor& cursor);
  void run_rules(const RegistrySnapshot& snapshot, std::int64_t now_ms,
                 std::vector<Alert>& out);
  void raise(std::vector<Alert>& out, std::string rule, std::string node,
             std::string message, double value, std::int64_t sim_ms);

  MetricRegistry* registry_;
  WatchdogConfig config_;
  bool primed_ = false;
  HistCursor solve_cursor_;
  HistCursor staleness_cursor_;
  std::uint64_t undeclared_seen_ = 0;
  std::uint64_t keepalive_failures_seen_ = 0;
  std::uint64_t reps_seen_ = 0;
  std::uint64_t fed_takeovers_seen_ = 0;
  std::uint64_t fed_stale_frames_seen_ = 0;
  double latency_baseline_ms_ = -1.0;
  std::uint64_t alerts_raised_ = 0;
  Counter* alerts_total_ = nullptr;
};

}  // namespace dust::obs
