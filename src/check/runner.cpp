#include "check/runner.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/transport.hpp"
#include "util/rng.hpp"

namespace dust::check {

namespace {
constexpr std::size_t kFlightTailEvents = 64;
}

RunReport run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  RunReport report;
  // Scope the flight recorder to this scenario: the tail captured on a
  // violation must not show a previous run's events.
  obs::FlightRecorder::global().clear();
  // Captures the recorder tail the first time anything reports a violation
  // (cycle invariants, oracles, or the replica-deadline audit below).
  auto capture_flight = [&report](const std::string& invariant,
                                  sim::TimeMs now) {
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kInvariantViolation, now, 0,
        obs::FlightEvent::kNoNode, obs::FlightEvent::kNoNode, 0.0, invariant);
    if (report.flight_tail.empty())
      report.flight_tail = obs::flight_text(
          obs::FlightRecorder::global().tail(kFlightTailEvents));
  };
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(spec.seed).fork(1));

  core::ManagerConfig config;
  config.update_interval_ms = options.update_interval_ms;
  config.placement_period_ms = options.placement_period_ms;
  config.keepalive_timeout_ms = options.keepalive_timeout_ms;
  config.keepalive_check_period_ms = options.keepalive_check_period_ms;
  config.incremental_placement = options.incremental_placement;
  config.keepalive_miss_threshold = options.keepalive_miss_threshold;
  config.optimizer.allow_partial = true;  // scenarios routinely exceed Cd
  config.optimizer.verify_warm_start = options.incremental_placement;
  config.optimizer.placement.max_hops = spec.max_hops;
  config.optimizer.placement.trust_weighting = options.trust_weighting;

  core::DustManager manager(sim, transport, build_nmdb(spec), config);

  std::vector<std::unique_ptr<core::DustClient>> clients;
  clients.reserve(spec.node_count);
  for (graph::NodeId v = 0; v < spec.node_count; ++v) {
    core::ClientConfig client_config;
    client_config.offload_capable = spec.capable[v] != 0;
    client_config.keepalive_interval_ms = options.keepalive_interval_ms;
    client_config.platform_factor = spec.platform_factor[v];
    clients.push_back(std::make_unique<core::DustClient>(
        sim, transport, v, client_config, util::Rng(spec.seed).fork(100 + v)));
    clients.back()->set_reported_state(spec.load[v], spec.data_mb[v],
                                       spec.agents[v]);
  }

  // I7 bookkeeping: consecutive placement cycles each node spent below the
  // trust exclusion threshold going INTO the current cycle.
  std::vector<std::size_t> distrust_streak(spec.node_count, 0);
  const double trust_exclude_below =
      config.optimizer.placement.trust_exclude_below;

  manager.set_cycle_observer([&](const core::CycleObservation& observation) {
    ++report.cycles_observed;
    std::vector<Violation> found =
        check_cycle(observation, options.invariant);
    // Placement digest (I8): fold every planning input and output so two
    // runs compare decisions bit-for-bit, not via summary statistics.
    auto fold = [&report](std::uint64_t value) {
      std::uint64_t state = report.placement_digest ^ value;
      report.placement_digest = util::splitmix64(state);
    };
    auto fold_double = [&fold](double value) {
      fold(std::bit_cast<std::uint64_t>(value));
    };
    if (observation.problem != nullptr) {
      for (graph::NodeId b : observation.problem->busy) fold(b);
      for (graph::NodeId o : observation.problem->candidates) fold(o);
    }
    if (observation.result != nullptr) {
      for (const core::Assignment& a : observation.result->assignments) {
        fold(a.from);
        fold(a.to);
        fold_double(a.amount);
      }
      fold_double(observation.result->objective);
      report.objective_sum += observation.result->objective;
      report.unplaced_sum += observation.result->unplaced;
    }
    // I7: a node proven byzantine (below the exclusion threshold) for
    // i7_proven_cycles consecutive cycles before this one must not appear
    // as a destination in this cycle's plan.
    if (options.trust_weighting && observation.result != nullptr) {
      for (const core::Assignment& a : observation.result->assignments) {
        if (a.to < distrust_streak.size() &&
            distrust_streak[a.to] >= options.i7_proven_cycles) {
          found.push_back(
              {"I7-distrusted-destination",
               "node " + std::to_string(a.to) + " (trust " +
                   std::to_string(manager.trust(a.to)) + ", below " +
                   std::to_string(trust_exclude_below) + " for " +
                   std::to_string(distrust_streak[a.to]) +
                   " cycles) received a new offload of " +
                   std::to_string(a.amount)});
        }
      }
      for (graph::NodeId v = 0; v < spec.node_count; ++v) {
        if (manager.trust(v) < trust_exclude_below)
          ++distrust_streak[v];
        else
          distrust_streak[v] = 0;
      }
    }
    if (options.check_oracles && observation.problem != nullptr &&
        report.oracle_cycles < options.max_oracle_cycles &&
        !observation.problem->busy.empty()) {
      const std::size_t cells = observation.problem->busy.size() *
                                observation.problem->candidates.size();
      if (cells > 0 && cells <= options.oracle.max_cells) {
        ++report.oracle_cycles;
        std::vector<Violation> oracle =
            cross_check_solvers(*observation.problem, options.oracle);
        found.insert(found.end(), oracle.begin(), oracle.end());
      }
    }
    for (Violation& v : found) {
      v.detail += " (cycle " + std::to_string(report.cycles_observed) +
                  ", t=" + std::to_string(observation.now) + "ms)";
      capture_flight(v.invariant, observation.now);
      report.violations.push_back(std::move(v));
    }
  });

  for (auto& client : clients) client->start();
  manager.start();

  for (const ChurnEvent& event : spec.churn) {
    core::DustClient* client = clients[event.node].get();
    const double data = spec.data_mb[event.node];
    const std::uint32_t agents = spec.agents[event.node];
    const double utilization = event.utilization_percent;
    sim.schedule_at(event.at_ms, [client, utilization, data, agents] {
      client->set_reported_state(utilization, data, agents);
    });
  }
  for (const NodeDeathEvent& event : spec.deaths) {
    core::DustClient* client = clients[event.node].get();
    sim.schedule_at(event.at_ms, [client] { client->set_failed(true); });
  }
  for (const AttackScript& attack : spec.attacks) {
    core::DustClient* client = clients[attack.node].get();
    const AttackScript script = attack;
    sim.schedule_at(attack.at_ms, [client, script] {
      core::ByzantineBehavior behavior;
      switch (script.kind) {
        case AttackKind::kCapacityLie:
          behavior.stat_utilization_bias = script.magnitude;
          break;
        case AttackKind::kBlackhole:
          behavior.blackhole = true;
          break;
        case AttackKind::kKeepaliveFlap:
          behavior.flap_period_ms = script.period_ms;
          behavior.flap_down_ms = script.down_ms;
          break;
      }
      client->set_byzantine(behavior);
    });
  }
  schedule_fault_script(sim, transport, spec.faults);

  // Deterministic delivery audit: model what each acknowledged destination
  // actually delivered this window (no RNG — byzantine behavior is scripted)
  // and feed the manager's trust EWMA. Dead destinations are skipped: death
  // is the keepalive supervisor's job, and auditing it here would make the
  // trusted run diverge from the blind one on benign scenarios (I8).
  sim::PeriodicTask loss_audit(
      sim, options.loss_audit_period_ms, options.loss_audit_period_ms,
      [&](sim::TimeMs) {
        for (const core::ActiveOffload& offload : manager.active_offloads()) {
          if (!offload.acknowledged) continue;
          const graph::NodeId dest = offload.destination;
          if (clients[dest]->failed()) continue;
          const core::ByzantineBehavior& behavior = clients[dest]->byzantine();
          const double expected = static_cast<double>(offload.agents);
          double delivered = expected;
          if (behavior.blackhole)
            delivered = 0.0;
          else if (behavior.stat_utilization_bias != 0.0)
            delivered = 0.25 * expected;  // liar lacks the promised capacity
          else if (clients[dest]->flap_suppressed())
            delivered = 0.0;
          report.samples_expected += expected;
          report.samples_delivered += delivered;
          manager.record_loss_audit(dest, expected, delivered);
        }
      });

  // Replica-substitution audit (§III-C): once the manager holds an
  // acknowledged offload whose destination is dead, the relationship must be
  // re-pointed (REP) or torn down within 2x the keepalive timeout. The
  // window covers worst-case detection (stale keepalive crosses the timeout
  // just after a check) plus the check period itself.
  struct DeadEntry {
    sim::TimeMs first_seen = 0;
    bool reported = false;
  };
  std::map<graph::NodeId, DeadEntry> dead_seen;
  const sim::TimeMs deadline = 2 * options.keepalive_timeout_ms;
  sim::PeriodicTask audit(
      sim, options.keepalive_check_period_ms, options.keepalive_check_period_ms,
      [&](sim::TimeMs now) {
        std::map<graph::NodeId, DeadEntry> still_dead;
        for (const core::ActiveOffload& offload : manager.active_offloads()) {
          if (!offload.acknowledged) continue;  // never keepalive-supervised
          if (!clients[offload.destination]->failed()) continue;
          const auto it = dead_seen.find(offload.destination);
          DeadEntry entry =
              it == dead_seen.end() ? DeadEntry{now, false} : it->second;
          if (!entry.reported && now - entry.first_seen > deadline) {
            entry.reported = true;
            capture_flight("I6-replica-deadline", now);
            report.violations.push_back(
                {"I6-replica-deadline",
                 "offload " + std::to_string(offload.busy) + "→" +
                     std::to_string(offload.destination) +
                     " still points at a dead destination " +
                     std::to_string(now - entry.first_seen) +
                     "ms after first seen (limit " + std::to_string(deadline) +
                     "ms)"});
          }
          still_dead[offload.destination] = entry;
        }
        dead_seen = std::move(still_dead);
      });

  sim.run_until(spec.duration_ms);
  audit.cancel();
  loss_audit.cancel();
  manager.stop();
  manager.set_cycle_observer({});

  report.keepalive_failures = manager.keepalive_failures();
  report.releases = manager.releases();
  report.offloads_created = manager.active_offload_count();
  report.messages_dropped = transport.dropped();
  for (const auto& client : clients)
    report.reps_received += client->reps_received();
  report.trust_evictions = manager.trust_evictions();
  for (graph::NodeId v = 0; v < spec.node_count; ++v)
    report.min_trust = std::min(report.min_trust, manager.trust(v));
  return report;
}

TrustComparison compare_trust_placement(const ScenarioSpec& spec,
                                        const RunOptions& base) {
  TrustComparison comparison;
  RunOptions blind = base;
  blind.trust_weighting = false;
  comparison.blind = run_scenario(spec, blind);
  RunOptions trusted = base;
  trusted.trust_weighting = true;
  comparison.trusted = run_scenario(spec, trusted);
  return comparison;
}

std::vector<Violation> check_trust_improvement(
    const TrustComparison& comparison, double tolerance) {
  std::vector<Violation> violations;
  const double blind = comparison.blind.delivered_fraction();
  const double trusted = comparison.trusted.delivered_fraction();
  if (trusted + tolerance < blind) {
    violations.push_back(
        {"O7-trust-improvement",
         "trust-weighted placement delivered " + std::to_string(trusted) +
             " of expected samples vs " + std::to_string(blind) +
             " trust-blind (tolerance " + std::to_string(tolerance) + ")"});
  }
  return violations;
}

std::vector<Violation> check_trust_neutrality(const ScenarioSpec& spec,
                                              const RunOptions& base) {
  std::vector<Violation> violations;
  if (!spec.attacks.empty()) {
    violations.push_back({"I8-trust-neutrality",
                          "neutrality is only defined on attack-free "
                          "scenarios; this spec has " +
                              std::to_string(spec.attacks.size()) +
                              " attack script(s)"});
    return violations;
  }
  const TrustComparison comparison = compare_trust_placement(spec, base);
  if (comparison.blind.placement_digest !=
      comparison.trusted.placement_digest) {
    violations.push_back(
        {"I8-trust-neutrality",
         "trust-blind and trust-weighted runs diverged on an attack-free "
         "scenario (digest " +
             std::to_string(comparison.blind.placement_digest) + " vs " +
             std::to_string(comparison.trusted.placement_digest) + ")"});
  }
  return violations;
}

void dump_repro(std::ostream& os, const ScenarioSpec& spec,
                const RunReport& report) {
  os << "# dust::check repro bundle\n";
  os << "# violations: " << report.violations.size() << ", cycles observed: "
     << report.cycles_observed << "\n";
  for (const Violation& v : report.violations)
    os << "# [" << v.invariant << "] " << v.detail << "\n";
  os << "#\n# --- scenario (loadable by scenario_cli / load_scenario) ---\n";
  dump_scenario(os, spec);
  if (!report.flight_tail.empty()) {
    os << "#\n# --- flight recorder tail at first violation ---\n";
    // Comment-prefix each line so the whole bundle stays .scn-parseable.
    std::size_t start = 0;
    while (start < report.flight_tail.size()) {
      std::size_t end = report.flight_tail.find('\n', start);
      if (end == std::string::npos) end = report.flight_tail.size();
      os << "# " << report.flight_tail.substr(start, end - start) << "\n";
      start = end + 1;
    }
  }
}

}  // namespace dust::check
