// The closed-loop workloads. Each is built from a seed and set up to its
// steady state by its constructor, then driven one op at a time by main.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Input shape printed with the results, so a run at another scale is
  /// never compared with this one.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::string>>
  shape() const = 0;
  /// What one unit of work_per_s is ("cycles", "messages", "samples").
  [[nodiscard]] virtual const char* work_unit() const = 0;
  /// Untimed, after set-up: check the state set-up reached.
  virtual void check_setup(Ledger& ledger) = 0;
  /// One timed op; returns the work it completed.
  virtual double op(Tracer& tracer) = 0;
  /// Wall time, cumulative, the workload spent on its own checks inside
  /// op() (work it can only do while a layer calls back into it). The
  /// op timer in main.cpp subtracts it.
  [[nodiscard]] virtual std::int64_t untimed_ns() const { return 0; }
  /// Untimed: check the outputs of the op just run, charging failures to
  /// `op_index`.
  virtual void check(Ledger& ledger, std::size_t op_index) = 0;
  /// Untimed, after the last op: settle checks that outlive one op.
  virtual void finish(Ledger& /*ledger*/) {}
  /// Per-layer counts over the timed phase, keyed by per-layer metric name.
  /// `ops` is the number of timed ops run.
  virtual void layer_counts(std::map<std::string, double>& out,
                            std::size_t ops) const = 0;
};

struct WorkloadSpec {
  const char* name;
  /// Set-up repetitions: `setup_s` is their median.
  std::size_t setups;
  /// Ops per block for fastest_blocks: well under a second of ops, and a
  /// whole number of the workload's periods.
  std::size_t block_ops;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

std::unique_ptr<Workload> make_replan(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_quiet(std::uint64_t seed);
std::unique_ptr<Workload> make_stream(std::uint64_t seed);

}  // namespace perfbench
