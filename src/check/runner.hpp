// dust::check scenario runner: drives the full Manager/Client protocol loop
// over a generated scenario (churn, faults, deaths) on the simulated
// transport, checking the invariant catalog after every placement cycle and
// the differential oracles on size-gated cycles, plus a time-based audit
// that every offload to a dead destination is replaced (REP) or torn down
// within 2x the keepalive timeout.
#pragma once

#include <iosfwd>

#include "check/invariants.hpp"
#include "check/oracles.hpp"
#include "check/scenario.hpp"

namespace dust::check {

struct RunOptions {
  // Fast protocol clocks (sim-time ms) so a 60 s scenario covers ~12
  // placement cycles and several keepalive windows.
  std::int64_t update_interval_ms = 1000;
  std::int64_t placement_period_ms = 5000;
  std::int64_t keepalive_timeout_ms = 4000;
  std::int64_t keepalive_check_period_ms = 1000;
  std::int64_t keepalive_interval_ms = 1000;
  /// Exercise the incremental pipeline (Trmin cache + warm starts) with the
  /// engine's own warm-vs-cold verification enabled — every steady-state
  /// cycle then runs the O3 oracle for free.
  bool incremental_placement = true;
  bool check_oracles = true;
  /// Solver differential oracles run on at most this many (size-gated)
  /// cycles per scenario — they cost three extra solves plus enumeration.
  std::size_t max_oracle_cycles = 4;
  OracleOptions oracle;
  InvariantOptions invariant;
  /// Trust-weighted placement (DESIGN.md §14), passed to the manager's
  /// optimizer.placement.trust_weighting. Off by default so every
  /// pre-existing scenario runs exactly as before.
  bool trust_weighting = false;
  int keepalive_miss_threshold = 1;
  /// Cadence of the runner's deterministic delivery audit: per acknowledged
  /// offload it models what the destination actually delivered (blackhole →
  /// 0, capacity liar → 25%, flapper in a down window → 0, honest → all)
  /// and feeds core::DustManager::record_loss_audit. The audit runs in
  /// trust-blind runs too (where record_loss_audit is a no-op) so the
  /// delivered-sample tallies are comparable across the two modes.
  std::int64_t loss_audit_period_ms = 2000;
  /// I7: a node whose trust sat below the exclusion threshold for this many
  /// consecutive placement cycles must receive no new offloads.
  std::size_t i7_proven_cycles = 2;
};

struct RunReport {
  std::vector<Violation> violations;
  std::size_t cycles_observed = 0;
  std::size_t oracle_cycles = 0;
  std::size_t offloads_created = 0;
  std::size_t keepalive_failures = 0;
  std::size_t releases = 0;
  std::uint64_t reps_received = 0;
  std::uint64_t messages_dropped = 0;
  /// Flight-recorder timeline (obs::write_flight_text of the last 64
  /// events) captured at the moment the FIRST violation was recorded —
  /// what the control plane was doing right before things went wrong.
  /// Empty when the run passed.
  std::string flight_tail;
  /// Delivery-audit tallies (see RunOptions::loss_audit_period_ms): agent
  /// deliveries expected from acknowledged destinations vs what the
  /// byzantine model says actually arrived. The O7 oracle compares the
  /// delivered fraction between a trust-blind and a trust-weighted run.
  double samples_expected = 0.0;
  double samples_delivered = 0.0;
  /// splitmix64 fold of every cycle's planning inputs and outputs (busy set,
  /// candidate set, assignments, objective bits). Two runs made the same
  /// placement decisions iff their digests match — the I8 neutrality check.
  std::uint64_t placement_digest = 0;
  /// β = Σ x·Trmin summed over cycles and total unplaced load (placement
  /// quality axes reported by the O7 comparison).
  double objective_sum = 0.0;
  double unplaced_sum = 0.0;
  std::size_t trust_evictions = 0;
  double min_trust = 1.0;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
  [[nodiscard]] double delivered_fraction() const noexcept {
    return samples_expected > 0.0 ? samples_delivered / samples_expected
                                  : 1.0;
  }
};

/// Deterministic given spec (all randomness derives from spec.seed).
/// Clears the global flight recorder at run start so the captured tail
/// belongs to this scenario alone.
[[nodiscard]] RunReport run_scenario(const ScenarioSpec& spec,
                                     const RunOptions& options = {});

/// Write a self-contained repro bundle for a failed run: the annotated .scn
/// scenario (replayable via scenario_cli / load_scenario), every violation,
/// and the flight-recorder tail captured at first failure.
void dump_repro(std::ostream& os, const ScenarioSpec& spec,
                const RunReport& report);

/// O7 (differential, DESIGN.md §14): the same scenario run trust-blind and
/// trust-weighted, with everything else identical.
struct TrustComparison {
  RunReport blind;
  RunReport trusted;
};
[[nodiscard]] TrustComparison compare_trust_placement(
    const ScenarioSpec& spec, const RunOptions& base = {});

/// O7 verdict: trust weighting must never make delivery meaningfully worse,
/// and I1-I6 must hold in both runs. `tolerance` absorbs benign plan
/// differences on attack-free scenarios.
[[nodiscard]] std::vector<Violation> check_trust_improvement(
    const TrustComparison& comparison, double tolerance = 0.02);

/// I8: on a scenario with no attack scripts, the trust-blind and
/// trust-weighted runs must make bit-identical placement decisions (equal
/// placement digests). Returns violations; empty = neutral.
[[nodiscard]] std::vector<Violation> check_trust_neutrality(
    const ScenarioSpec& spec, const RunOptions& base = {});

}  // namespace dust::check
