// Health watchdog rules (obs/watchdog.hpp) against a local registry with
// hand-fed metrics: each rule in isolation, baseline behaviour, priming,
// and the alert side-channels (counters + flight recorder). The fleet
// entry point runs the same rules over an Aggregator's merged view.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/aggregator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace dust::obs {
namespace {

struct WatchdogTest : ::testing::Test {
  MetricRegistry registry;
  void SetUp() override { set_enabled(true); }

  WatchdogConfig tight() {
    WatchdogConfig config;
    config.latency_regression_factor = 2.0;
    config.min_latency_samples = 3;
    config.hfr_spike_percent = 50.0;
    config.staleness_limit_ms = 1000.0;
    return config;
  }

  void observe_solves(double ms, int n) {
    Histogram& hist = registry.histogram("dust_core_placement_solve_ms");
    for (int i = 0; i < n; ++i) hist.observe(ms);
  }
};

TEST_F(WatchdogTest, FirstEvaluationOnlyPrimesTheWindows) {
  Watchdog dog(registry, tight());
  observe_solves(1000.0, 5);
  registry.gauge("dust_core_hfr_percent").set(99.0);
  EXPECT_TRUE(dog.evaluate().empty());  // priming, never alerts
  EXPECT_EQ(dog.alerts_raised(), 0u);
}

TEST_F(WatchdogTest, LatencyRegressionFiresAgainstRollingBaseline) {
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime

  // Healthy window seeds the baseline near 10 ms.
  observe_solves(10.0, 4);
  EXPECT_TRUE(dog.evaluate().empty());
  EXPECT_NEAR(dog.latency_baseline_ms(), 10.0, 1e-9);

  // 5x regression: fires, and must NOT drag the baseline up.
  observe_solves(50.0, 4);
  std::vector<Alert> alerts = dog.evaluate(7000);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "placement-latency-regression");
  EXPECT_NEAR(alerts[0].value, 50.0, 1e-9);
  EXPECT_EQ(alerts[0].sim_ms, 7000);
  EXPECT_NEAR(dog.latency_baseline_ms(), 10.0, 1e-9);

  // Back to healthy: no alert, baseline moves by the EWMA only.
  observe_solves(12.0, 4);
  EXPECT_TRUE(dog.evaluate().empty());
  EXPECT_GT(dog.latency_baseline_ms(), 10.0);
  EXPECT_LT(dog.latency_baseline_ms(), 12.0);
}

TEST_F(WatchdogTest, SparseWindowsNeitherAlertNorMoveTheBaseline) {
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime
  observe_solves(10.0, 4);
  (void)dog.evaluate();  // baseline = 10
  observe_solves(500.0, 2);  // below min_latency_samples = 3
  EXPECT_TRUE(dog.evaluate().empty());
  EXPECT_NEAR(dog.latency_baseline_ms(), 10.0, 1e-9);
}

TEST_F(WatchdogTest, HfrSpikeReadsTheHeuristicFailureGauge) {
  Watchdog dog(registry, tight());
  registry.gauge("dust_core_hfr_percent").set(30.0);
  (void)dog.evaluate();  // prime
  EXPECT_TRUE(dog.evaluate().empty());  // 30% is under the 50% threshold

  registry.gauge("dust_core_hfr_percent").set(75.0);
  std::vector<Alert> alerts = dog.evaluate();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "hfr-spike");
  EXPECT_NEAR(alerts[0].value, 75.0, 1e-9);
}

TEST_F(WatchdogTest, NmdbStalenessFiresOnWindowQuantileAboveLimit) {
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime
  registry.histogram("dust_core_nmdb_staleness_ms").observe(500.0);
  EXPECT_TRUE(dog.evaluate().empty());

  registry.histogram("dust_core_nmdb_staleness_ms").observe(90000.0);
  std::vector<Alert> alerts = dog.evaluate();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "nmdb-staleness");
  // Windowed p90, not lifetime: only the new observation is in the window,
  // and the interpolated quantile clamps to the observed maximum.
  EXPECT_NEAR(alerts[0].value, 90000.0, 1e-9);
}

TEST_F(WatchdogTest, NmdbStalenessQuantileIgnoresAHealthyMean) {
  // 8 fresh views + 1 badly stale one: the window mean (~19 s) is under the
  // 60 s limit, but p90 lands on the stale tail and fires.
  WatchdogConfig config = tight();
  config.staleness_limit_ms = 60000.0;
  config.staleness_quantile = 0.9;
  Watchdog dog(registry, config);
  (void)dog.evaluate();  // prime
  Histogram& staleness = registry.histogram("dust_core_nmdb_staleness_ms");
  for (int i = 0; i < 8; ++i) staleness.observe(100.0);
  staleness.observe(170000.0);
  std::vector<Alert> alerts = dog.evaluate();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "nmdb-staleness");
  EXPECT_GT(alerts[0].value, 60000.0);
}

TEST_F(WatchdogTest, ReplicaSubstitutionShortfallFires) {
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime

  // Two dead destinations, both re-homed: balanced, no alert.
  registry.counter("dust_core_keepalive_failures_total").inc(2);
  registry.counter("dust_core_tx_rep_total").inc(2);
  EXPECT_TRUE(dog.evaluate().empty());

  // Three failures, one REP: two dead destinations were never re-homed.
  registry.counter("dust_core_keepalive_failures_total").inc(3);
  registry.counter("dust_core_tx_rep_total").inc(1);
  std::vector<Alert> alerts = dog.evaluate();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "replica-substitution");
  EXPECT_NEAR(alerts[0].value, 2.0, 1e-9);  // the shortfall
}

TEST_F(WatchdogTest, FederationFailoverFiresOnAnyTakeover) {
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime
  EXPECT_TRUE(dog.evaluate().empty());  // no takeovers yet

  registry.counter("dust_fed_takeovers_total").inc();
  std::vector<Alert> alerts = dog.evaluate(4200);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "federation-failover");
  EXPECT_NEAR(alerts[0].value, 1.0, 1e-9);
  EXPECT_EQ(alerts[0].sim_ms, 4200);
  EXPECT_TRUE(dog.evaluate().empty());  // windowed: same total, no re-fire
}

TEST_F(WatchdogTest, FederationStaleEpochToleratesTakeoverNoise) {
  // A couple of in-flight frames from a deposed primary are normal during a
  // takeover; sustained growth past the limit means it never stopped.
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime

  registry.counter("dust_fed_stale_frames_total").inc(3);  // at the limit
  EXPECT_TRUE(dog.evaluate().empty());

  registry.counter("dust_fed_stale_frames_total").inc(7);
  std::vector<Alert> alerts = dog.evaluate();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "federation-stale-epoch");
  EXPECT_NEAR(alerts[0].value, 7.0, 1e-9);  // the window delta, not lifetime
}

TEST_F(WatchdogTest, AlertsLandOnCountersAndTheFlightRecorder) {
  FlightRecorder::global().clear();
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime
  registry.gauge("dust_core_hfr_percent").set(75.0);
  (void)dog.evaluate(12345);

  EXPECT_EQ(dog.alerts_raised(), 1u);
  const RegistrySnapshot scrape = registry.snapshot();
  const CounterSnapshot* total = scrape.find_counter("dust_obs_alerts_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, 1u);
  const CounterSnapshot* by_rule =
      scrape.find_counter("dust_obs_alert_hfr-spike_total");
  ASSERT_NE(by_rule, nullptr);
  EXPECT_EQ(by_rule->value, 1u);

  bool saw_alert_event = false;
  for (const FlightEvent& event : FlightRecorder::global().snapshot())
    if (event.kind == FlightEventKind::kAlert &&
        std::string(event.detail) == "hfr-spike" && event.sim_ms == 12345)
      saw_alert_event = true;
  EXPECT_TRUE(saw_alert_event);
}

TEST_F(WatchdogTest, RegistryResetResyncsInsteadOfMisfiring) {
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime
  observe_solves(10.0, 4);
  registry.counter("dust_core_keepalive_failures_total").inc(5);
  registry.counter("dust_core_tx_rep_total").inc(5);
  (void)dog.evaluate();

  registry.reset();  // counters rewind below the cursors
  EXPECT_TRUE(dog.evaluate().empty());
  registry.counter("dust_core_keepalive_failures_total").inc(1);
  registry.counter("dust_core_tx_rep_total").inc(1);
  EXPECT_TRUE(dog.evaluate().empty());  // balanced window after resync
}

TEST_F(WatchdogTest, DisabledObservabilitySkipsEvaluation) {
  Watchdog dog(registry, tight());
  (void)dog.evaluate();  // prime
  registry.gauge("dust_core_hfr_percent").set(99.0);
  set_enabled(false);
  EXPECT_TRUE(dog.evaluate().empty());
  set_enabled(true);
}

// --- fleet rules over an Aggregator ------------------------------------
//
// One Aggregator fed through ingest_local from three isolated registries
// for 22 windows of 500 ms: node-c goes silent past the 2 s scrape gap and
// answers again, undeclared gap batches grow on single nodes, two nodes set
// dust_core_distrusted_nodes, node-b's registry is reset mid-run, and the
// first evaluation only primes.

struct FleetEvent {
  std::string rule;
  std::string node;
  double value = 0.0;
  std::int64_t now_ms = 0;
  bool operator==(const FleetEvent&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FleetEvent& e) {
  return os << "{" << e.rule << ", '" << e.node << "', " << e.value << ", "
            << e.now_ms << "}";
}

template <class Evaluate>
std::vector<FleetEvent> run_fleet_script(Evaluate&& evaluate) {
  constexpr const char* kGap = "dust_dataplane_undeclared_gap_batches_total";
  constexpr const char* kDistrusted = "dust_core_distrusted_nodes";
  MetricRegistry node_a;
  MetricRegistry node_b;
  MetricRegistry node_c;
  MetricRegistry* registries[3] = {&node_a, &node_b, &node_c};
  const std::string names[3] = {"node-a", "node-b", "node-c"};
  Aggregator aggregator;
  node_b.counter(kGap).inc(2);  // loss before the priming call never alerts
  std::vector<FleetEvent> events;
  for (int window = 0; window < 22; ++window) {
    const std::int64_t now = 500 * window;
    const bool c_silent = window >= 3 && window <= 10;
    if (window == 5) node_b.counter(kGap).inc(3);
    if (window == 12) node_a.counter(kGap).inc(1);
    if (window == 13) {
      node_a.gauge(kDistrusted).set(1.0);
      node_b.gauge(kDistrusted).set(2.0);
      node_c.counter(kGap).inc(4);
    }
    if (window == 15) node_a.gauge(kDistrusted).set(0.0);
    if (window == 16) node_b.gauge(kDistrusted).set(0.0);
    if (window == 17) node_b.reset();  // fleet total rewinds: resync
    if (window == 18) node_b.counter(kGap).inc(2);
    for (int n = 0; n < 3; ++n) {
      if (n == 2 && c_silent) continue;
      // A heartbeat change, so every live node's ingest applies a snapshot.
      registries[n]->counter("demo_ticks_total").inc();
      aggregator.ingest_local(names[n], *registries[n], now);
    }
    for (FleetEvent& event : evaluate(aggregator, now))
      events.push_back(std::move(event));
  }
  return events;
}

// The fleet rules' output on the script above, recorded from the
// fleet-only rule engine that obs/aggregator carried before
// Watchdog::evaluate(aggregator, now) replaced it: (rule, node, value,
// now_ms), under that engine's rule names.
const std::vector<FleetEvent> kFleetOnlyEngineSequence = {
    {"fleet-undeclared-loss", "", 3, 2500},
    {"node-silent", "node-c", 2500, 3500},
    {"node-silent", "node-c", 3000, 4000},
    {"node-silent", "node-c", 3500, 4500},
    {"node-silent", "node-c", 4000, 5000},
    {"fleet-undeclared-loss", "", 1, 6000},
    {"fleet-undeclared-loss", "", 4, 6500},
    {"fleet-distrust-spike", "", 3, 6500},
    {"fleet-distrust-spike", "", 3, 7000},
    {"fleet-distrust-spike", "", 2, 7500},
    {"fleet-undeclared-loss", "", 2, 9000},
};

TEST(FleetRules, ReproduceTheFleetOnlyEngineSequence) {
  // The fleet-only engine's rule names, read through the rename onto the
  // one rule table; its fourth rule (fleet-tail-latency) was off by default
  // and is gone.
  const std::map<std::string, std::string> renamed = {
      {"node-silent", "node-silent"},
      {"fleet-undeclared-loss", "undeclared-loss"},
      {"fleet-distrust-spike", "trust-collapse"},
  };
  std::vector<FleetEvent> expected = kFleetOnlyEngineSequence;
  for (FleetEvent& event : expected) event.rule = renamed.at(event.rule);
  std::set<std::string> carried;
  for (const auto& [old_name, new_name] : renamed) carried.insert(new_name);

  MetricRegistry local;
  Watchdog dog(local);
  const std::vector<FleetEvent> events =
      run_fleet_script([&](const Aggregator& aggregator, std::int64_t now) {
        std::vector<FleetEvent> out;
        for (const Alert& alert : dog.evaluate(aggregator, now)) {
          EXPECT_EQ(alert.sim_ms, now);
          if (carried.count(alert.rule) == 0) continue;
          out.push_back(FleetEvent{alert.rule, alert.node, alert.value, now});
        }
        return out;
      });
  EXPECT_EQ(events, expected);
  // Fleet alerts take the local path: one counter family in the watchdog's
  // registry.
  const RegistrySnapshot scrape = local.snapshot();
  ASSERT_NE(scrape.find_counter("dust_obs_alert_node-silent_total"), nullptr);
  EXPECT_EQ(scrape.find_counter("dust_obs_alert_node-silent_total")->value, 4u);
  EXPECT_EQ(scrape.find_counter("dust_obs_alerts_total")->value,
            expected.size());
}

TEST(FleetRules, LocalRuleFiresOnTheFleetView) {
  // Keepalive failures on a client node and one REP on the manager: neither
  // registry alone shows a shortfall worth two re-homings, the fleet sum
  // does.
  MetricRegistry manager;
  MetricRegistry client;
  Aggregator aggregator;
  MetricRegistry local;
  Watchdog dog(local);
  const auto ingest = [&](std::int64_t now) {
    aggregator.ingest_local("manager", manager, now);
    aggregator.ingest_local("node-a", client, now);
  };
  ingest(0);
  EXPECT_TRUE(dog.evaluate(aggregator, 0).empty());  // priming

  manager.counter("dust_core_tx_rep_total").inc(1);
  client.counter("dust_core_keepalive_failures_total").inc(3);
  ingest(500);
  const std::vector<Alert> alerts = dog.evaluate(aggregator, 500);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "replica-substitution");
  EXPECT_EQ(alerts[0].node, "");
  EXPECT_NEAR(alerts[0].value, 2.0, 1e-9);  // 3 failures - 1 REP
}

}  // namespace
}  // namespace dust::obs
