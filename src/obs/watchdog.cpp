#include "obs/watchdog.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "obs/aggregator.hpp"
#include "obs/flight_recorder.hpp"

namespace dust::obs {

namespace {

// Window delta of a monotonic counter since the previous evaluation (an
// absent counter reads as 0). A value below the cursor means a registry was
// reset: resync and report no window rather than a wrapped delta.
std::optional<std::uint64_t> counter_window(const RegistrySnapshot& snapshot,
                                            const char* name,
                                            std::uint64_t& cursor) {
  const CounterSnapshot* counter = snapshot.find_counter(name);
  const std::uint64_t now = counter != nullptr ? counter->value : 0;
  const std::uint64_t last = std::exchange(cursor, now);
  if (now < last) return std::nullopt;
  return now - last;
}

}  // namespace

Watchdog::Watchdog(MetricRegistry& registry, WatchdogConfig config)
    : registry_(&registry),
      config_(config),
      alerts_total_(&registry.counter("dust_obs_alerts_total")) {}

// Window of a histogram since the previous evaluation: count, sum and the
// bucket deltas, so rules can read both its mean and its quantiles. The
// lifetime min/max clamp the interpolation (valid, if loose, bounds for any
// window). Advances the cursor; nullopt when the histogram is absent, or
// rewound by a registry reset (the cursor resyncs, the window is skipped).
std::optional<HistogramSnapshot> Watchdog::histogram_window(
    const RegistrySnapshot& snapshot, const char* name, HistCursor& cursor) {
  const NamedHistogramSnapshot* hist = snapshot.find_histogram(name);
  if (hist == nullptr) return std::nullopt;
  const bool rewound = hist->count < cursor.count;
  if (rewound) cursor = HistCursor{};
  HistogramSnapshot window;
  window.count = hist->count - cursor.count;
  window.sum = hist->sum - cursor.sum;
  window.min = hist->min;
  window.max = hist->max;
  window.buckets.reserve(hist->buckets.size());
  for (std::size_t i = 0; i < hist->buckets.size(); ++i) {
    window.buckets.push_back(BucketSnapshot{
        hist->buckets[i].upper, hist->buckets[i].count - cursor.buckets[i]});
    cursor.buckets[i] = hist->buckets[i].count;
  }
  cursor.count = hist->count;
  cursor.sum = hist->sum;
  if (rewound) return std::nullopt;
  return window;
}

void Watchdog::raise(std::vector<Alert>& out, std::string rule,
                     std::string node, std::string message, double value,
                     std::int64_t sim_ms) {
  alerts_total_->inc();
  registry_->counter("dust_obs_alert_" + rule + "_total").inc();
  FlightRecorder::global().record(FlightEventKind::kAlert, sim_ms, 0,
                                  FlightEvent::kNoNode, FlightEvent::kNoNode,
                                  value, rule);
  ++alerts_raised_;
  out.push_back(Alert{std::move(rule), std::move(node), std::move(message),
                      value, sim_ms});
}

std::vector<Alert> Watchdog::evaluate(std::int64_t sim_now_ms) {
  std::vector<Alert> alerts;
  if (!enabled()) return alerts;
  run_rules(registry_->snapshot(), sim_now_ms, alerts);
  return alerts;
}

std::vector<Alert> Watchdog::evaluate(const Aggregator& aggregator,
                                      std::int64_t now_ms) {
  std::vector<Alert> alerts;
  if (!enabled()) return alerts;

  // --- node-silent ------------------------------------------------------
  if (config_.scrape_gap_ms > 0 && primed_) {
    for (const std::string& node : aggregator.nodes()) {
      const std::int64_t age = aggregator.staleness_ms(node, now_ms);
      if (age > config_.scrape_gap_ms) {
        std::ostringstream msg;
        msg << "node '" << node << "' last snapshot " << age
            << " ms ago (limit " << config_.scrape_gap_ms
            << " ms) — scrapes are not coming back";
        raise(alerts, "node-silent", node, msg.str(),
              static_cast<double>(age), now_ms);
      }
    }
  }

  run_rules(aggregator.fleet_snapshot(), now_ms, alerts);
  return alerts;
}

void Watchdog::run_rules(const RegistrySnapshot& snapshot,
                         std::int64_t now_ms, std::vector<Alert>& alerts) {
  // --- undeclared-loss --------------------------------------------------
  if (const std::optional<std::uint64_t> grew =
          counter_window(snapshot,
                         "dust_dataplane_undeclared_gap_batches_total",
                         undeclared_seen_);
      grew && primed_ && *grew > 0) {
    std::ostringstream msg;
    msg << *grew << " undeclared gap batch(es) in this window — "
        << "telemetry was lost without a degradation announcement";
    raise(alerts, "undeclared-loss", "", msg.str(),
          static_cast<double>(*grew), now_ms);
  }

  // --- placement-latency-regression -------------------------------------
  const std::optional<HistogramSnapshot> solves =
      histogram_window(snapshot, "dust_core_placement_solve_ms", solve_cursor_);
  if (solves && solves->count > 0 &&
      solves->count >= config_.min_latency_samples) {
    const double solve_mean = solves->mean();
    if (!primed_) {
      latency_baseline_ms_ = solve_mean;  // first window seeds the baseline
    } else if (latency_baseline_ms_ >= 0.0 &&
               solve_mean >
                   latency_baseline_ms_ * config_.latency_regression_factor) {
      std::ostringstream msg;
      msg << "placement solve latency " << solve_mean
          << " ms exceeds rolling baseline " << latency_baseline_ms_
          << " ms x " << config_.latency_regression_factor << " ("
          << solves->count << " samples)";
      raise(alerts, "placement-latency-regression", "", msg.str(), solve_mean,
            now_ms);
    } else {
      // Only healthy windows move the baseline — a regressed window must
      // not teach the watchdog that slow is normal.
      latency_baseline_ms_ =
          latency_baseline_ms_ < 0.0
              ? solve_mean
              : latency_baseline_ms_ +
                    config_.latency_baseline_alpha *
                        (solve_mean - latency_baseline_ms_);
    }
  }

  // --- hfr-spike --------------------------------------------------------
  if (const GaugeSnapshot* hfr = snapshot.find_gauge("dust_core_hfr_percent");
      hfr != nullptr && primed_ && hfr->value > config_.hfr_spike_percent) {
    std::ostringstream msg;
    msg << "heuristic failure rate " << hfr->value << "% above "
        << config_.hfr_spike_percent << "% threshold";
    raise(alerts, "hfr-spike", "", msg.str(), hfr->value, now_ms);
  }

  // --- trust-collapse ---------------------------------------------------
  if (const GaugeSnapshot* distrusted =
          snapshot.find_gauge("dust_core_distrusted_nodes");
      distrusted != nullptr && primed_ &&
      distrusted->value > config_.distrusted_nodes_limit) {
    std::ostringstream msg;
    msg << distrusted->value << " node(s) below the trust exclusion "
        << "threshold (limit " << config_.distrusted_nodes_limit
        << ") — byzantine behavior detected in the fleet";
    raise(alerts, "trust-collapse", "", msg.str(), distrusted->value, now_ms);
  }

  // --- nmdb-staleness ---------------------------------------------------
  // Tail threshold, not mean: one placement cycle planned on a badly stale
  // network view is a problem even when the window average looks healthy.
  if (const std::optional<HistogramSnapshot> staleness = histogram_window(
          snapshot, "dust_core_nmdb_staleness_ms", staleness_cursor_);
      staleness && staleness->count > 0 && primed_) {
    const double stale_tail = staleness->quantile(config_.staleness_quantile);
    if (stale_tail > config_.staleness_limit_ms) {
      std::ostringstream msg;
      msg << "NMDB staleness p"
          << static_cast<int>(config_.staleness_quantile * 100.0) << " = "
          << stale_tail << " ms exceeds " << config_.staleness_limit_ms
          << " ms — placement is planning on an outdated network view";
      raise(alerts, "nmdb-staleness", "", msg.str(), stale_tail, now_ms);
    }
  }

  // --- replica-substitution --------------------------------------------
  const std::optional<std::uint64_t> failures =
      counter_window(snapshot, "dust_core_keepalive_failures_total",
                     keepalive_failures_seen_);
  const std::optional<std::uint64_t> reps =
      counter_window(snapshot, "dust_core_tx_rep_total", reps_seen_);
  if (failures && reps && primed_ && *failures > *reps) {
    std::ostringstream msg;
    msg << *failures << " keepalive failure(s) but only " << *reps
        << " REP(s) in this window — dead destinations not re-homed";
    raise(alerts, "replica-substitution", "", msg.str(),
          static_cast<double>(*failures - *reps), now_ms);
  }

  // --- federation-failover / federation-stale-epoch ---------------------
  if (const std::optional<std::uint64_t> takeovers = counter_window(
          snapshot, "dust_fed_takeovers_total", fed_takeovers_seen_);
      takeovers && primed_ && *takeovers > 0) {
    std::ostringstream msg;
    msg << *takeovers << " standby takeover(s) in this window — a "
        << "shard primary went silent and was replaced";
    raise(alerts, "federation-failover", "", msg.str(),
          static_cast<double>(*takeovers), now_ms);
  }
  if (const std::optional<std::uint64_t> stale = counter_window(
          snapshot, "dust_fed_stale_frames_total", fed_stale_frames_seen_);
      stale && primed_ && *stale > config_.stale_epoch_frames_limit) {
    std::ostringstream msg;
    msg << *stale << " stale-epoch frame(s) rejected in this window "
        << "(limit " << config_.stale_epoch_frames_limit
        << ") — a superseded primary is still emitting";
    raise(alerts, "federation-stale-epoch", "", msg.str(),
          static_cast<double>(*stale), now_ms);
  }

  primed_ = true;
}

}  // namespace dust::obs
