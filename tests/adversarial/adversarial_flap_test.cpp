// Keepalive flapping, hysteresis, and Nmdb-staleness behavior
// (DESIGN.md §14, satellite of the byzantine attack axis):
//   - keepalive_miss_threshold > 1 forgives short partitions that historical
//     declare-on-first-miss would have turned into replica substitutions;
//   - a genuinely dead destination still gets replaced;
//   - an oscillating (flapping) destination must not thrash replica
//     substitution once trust weighting excludes it;
//   - the watchdog's trust-collapse rule fires on the distrusted-node gauge.
#include <memory>

#include <gtest/gtest.h>

#include "check/attacks.hpp"
#include "check/runner.hpp"
#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"
#include "obs/watchdog.hpp"

namespace dust::core {
namespace {

struct Harness {
  sim::Simulator sim;
  sim::Transport transport{sim, util::Rng(7)};
  std::unique_ptr<DustManager> manager;
  std::vector<std::unique_ptr<DustClient>> clients;

  explicit Harness(std::uint32_t n, ManagerConfig config) {
    net::NetworkState state(graph::make_ring(n));
    for (graph::NodeId v = 0; v < n; ++v) {
      state.set_node_utilization(v, 70.0);
      state.set_monitoring_data_mb(v, 10.0);
    }
    manager = std::make_unique<DustManager>(
        sim, transport, Nmdb(std::move(state), Thresholds{}), config);
    for (graph::NodeId v = 0; v < n; ++v) {
      clients.push_back(std::make_unique<DustClient>(
          sim, transport, v, ClientConfig{.keepalive_interval_ms = 1000},
          util::Rng(100 + v)));
      clients.back()->set_reported_state(70.0, 10.0, 10);
    }
  }

  static ManagerConfig fast_config() {
    ManagerConfig config;
    config.update_interval_ms = 1000;
    config.placement_period_ms = 5000;
    config.keepalive_timeout_ms = 4000;
    config.keepalive_check_period_ms = 1000;
    return config;
  }

  void start_all() {
    for (auto& client : clients) client->start();
    manager->start();
  }

  void make_offload_setup() {
    clients[0]->set_reported_state(90.0, 10.0, 10);  // busy
    clients[1]->set_reported_state(40.0, 5.0, 10);   // candidate (nearest)
    clients[2]->set_reported_state(40.0, 5.0, 10);   // replica candidate
  }
};

TEST(KeepaliveHysteresis, ShortPartitionIsForgiven) {
  ManagerConfig config = Harness::fast_config();
  config.keepalive_miss_threshold = 3;
  Harness h(5, config);
  h.start_all();
  h.make_offload_setup();
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  const graph::NodeId first_dest = h.manager->active_offloads()[0].destination;

  // Partition the manager just past the keepalive timeout: the overdue
  // streak reaches at most 2 checks, then a fresh keepalive resets it.
  h.sim.schedule_at(12000,
                    [&] { h.transport.set_partitioned("dust-manager", true); });
  h.sim.schedule_at(15800, [&] {
    h.transport.set_partitioned("dust-manager", false);
  });
  h.sim.run_until(30000);
  EXPECT_EQ(h.manager->keepalive_failures(), 0u)
      << "hysteresis must forgive a partition shorter than "
         "miss_threshold consecutive overdue checks";
  EXPECT_EQ(h.clients[0]->reps_received(), 0u);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  EXPECT_EQ(h.manager->active_offloads()[0].destination, first_dest);
}

TEST(KeepaliveHysteresis, SustainedSilenceStillFails) {
  ManagerConfig config = Harness::fast_config();
  config.keepalive_miss_threshold = 3;
  Harness h(5, config);
  h.start_all();
  h.make_offload_setup();
  h.sim.run_until(10000);
  ASSERT_GE(h.manager->active_offload_count(), 1u);
  const graph::NodeId first_dest = h.manager->active_offloads()[0].destination;

  h.sim.schedule_at(12000,
                    [&] { h.clients[first_dest]->set_failed(true); });
  h.sim.run_until(30000);
  EXPECT_GE(h.manager->keepalive_failures(), 1u);
  const auto offloads = h.manager->active_offloads();
  ASSERT_GE(offloads.size(), 1u);
  EXPECT_NE(offloads[0].destination, first_dest);
}

TEST(KeepaliveHysteresis, DefaultThresholdKeepsHistoricalTiming) {
  // threshold 1 == declare on the first overdue check; the pre-existing
  // protocol tests pin the exact substitution timing, this pins the default.
  EXPECT_EQ(ManagerConfig{}.keepalive_miss_threshold, 1);
}

TEST(FlapThrash, TrustWeightingStopsReplicaThrash) {
  // A flapping destination oscillates between quarantined and re-announced.
  // Trust-blind, every up-transition invites the next placement cycle to
  // re-offload onto it — replica substitution thrashes. Trust-weighted, two
  // keepalive failures push trust to 0.36 < 0.5 and the flapper stays out.
  using check::AttackKind;
  using check::TopologyKind;
  const check::ScenarioSpec spec = check::make_attack_spec(
      AttackKind::kKeepaliveFlap, TopologyKind::kFatTree);
  const check::TrustComparison comparison =
      check::compare_trust_placement(spec);
  EXPECT_TRUE(comparison.trusted.passed())
      << comparison.trusted.violations.front().detail;
  // The blind manager keeps believing the flapper; the trusted one writes
  // it off after the second failure, so it stops failing keepalives.
  EXPECT_GE(comparison.blind.keepalive_failures, 2u);
  EXPECT_LE(comparison.trusted.keepalive_failures,
            comparison.blind.keepalive_failures);
  EXPECT_LT(comparison.trusted.min_trust, 0.5);
  // And the stable placement delivers more.
  EXPECT_GT(comparison.trusted.delivered_fraction(),
            comparison.blind.delivered_fraction());
}

TEST(TrustCollapseWatchdog, AlertsOnDistrustedNodes) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  registry.gauge("dust_core_distrusted_nodes").set(0.0);
  obs::WatchdogConfig config;
  config.distrusted_nodes_limit = 0.0;
  obs::Watchdog watchdog(registry, config);
  ASSERT_TRUE(watchdog.evaluate(0).empty());  // priming pass

  registry.gauge("dust_core_distrusted_nodes").set(2.0);
  const std::vector<obs::Alert> alerts = watchdog.evaluate(1000);
  bool fired = false;
  for (const obs::Alert& alert : alerts)
    if (alert.rule == "trust-collapse") {
      fired = true;
      EXPECT_DOUBLE_EQ(alert.value, 2.0);
    }
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace dust::core
