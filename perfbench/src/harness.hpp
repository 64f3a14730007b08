// Benchmark-side helpers shared by every workload: the percentile rule,
// per-op failure accounting, an in-memory span tracer with self-time
// attribution, and the result line the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- percentiles -----------------------------------------------------------

/// Samples a percentile needs beyond it before it is reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank q-quantile of `values` (q in (0, 1]), or nullopt when fewer
/// than kMinTailSamples samples lie beyond it — p90 needs at least 100
/// samples, the median at least 20.
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double q);

// --- least-contended blocks ------------------------------------------------

/// One untraced op of the timed phase.
struct OpSample {
  double ms = 0.0;
  double work = 0.0;
};

/// How fastest_blocks ranks blocks.
enum class BlockRank {
  kMedianMs,    ///< lowest median op time first
  kThroughput,  ///< highest work per op-second first
};

/// Share of a timed phase the end-to-end timings are taken over: the faster
/// half. With the slow regime under half the run the pool is all fast
/// blocks; with it over half, the pool's p90 lies among slow blocks. A
/// whole-run p90 flips already when the slow regime nears a tenth of the
/// run.
inline constexpr double kFastShare = 0.5;

/// The ops of the least-contended part of a timed phase. `ops`, in run
/// order, is cut into consecutive blocks of `block_ops` ops (a trailing
/// partial block is dropped); the blocks are ranked by `rank` and the first
/// are pooled until they are at least `share` of the blocks and hold at
/// least `min_ops` ops, or until none is left. On a shared host the speed
/// switches between regimes for seconds at a time; a block spans well under
/// a second, so most blocks fall in one regime.
[[nodiscard]] std::vector<OpSample> fastest_blocks(
    const std::vector<OpSample>& ops, std::size_t block_ops, BlockRank rank,
    double share, std::size_t min_ops);

// --- failure accounting ----------------------------------------------------

/// Attempted and failed ops. An op fails when any of its checks fails, so an
/// op counts once however many of its checks fail. Failures found after the
/// op ended (a node not relieved two periods later) are charged to the op
/// that caused them.
class Ledger {
 public:
  /// Open a new op; returns its index.
  std::size_t begin_op();
  /// Record a failed check of op `op`. Returns `ok` so callers can chain.
  bool check(std::size_t op, bool ok, const std::string& what);
  /// A check outside any op (set-up, drain) failed: the run is incorrect.
  void fail_run(const std::string& what);

  [[nodiscard]] std::size_t attempted() const noexcept {
    return failed_.size();
  }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_count_; }
  [[nodiscard]] bool correct() const noexcept {
    return failed_count_ == 0 && !run_failed_;
  }
  /// First few failure messages, for the human-readable report.
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  void note(const std::string& what);

  std::vector<bool> failed_;
  std::size_t failed_count_ = 0;
  bool run_failed_ = false;
  std::vector<std::string> messages_;
};

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans carry a static name ("solver.solve"), the
/// op they belong to, and their parent; nothing is written until the run
/// ends. Disabled tracers record nothing, so untraced ops pay one branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t parent = 0;  ///< index + 1 of the parent span, 0 = root
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  /// Open a span under the innermost open one; returns its handle (0 when
  /// disabled). `name` must have static storage.
  std::uint32_t begin(const char* name);
  void end(std::uint32_t handle);
  /// Record an already-finished span under the innermost open one — for
  /// work a layer timed itself (a placement cycle inside Simulator::run_until).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self time per span name in ms: each span's duration minus the part of
  /// its interval covered by its children.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Chrome trace-event JSON (loadable in Perfetto).
  void write_json(std::ostream& os) const;

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), handle_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

// --- results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Peak resident set of this process in MB (VmHWM), 0 if unavailable.
[[nodiscard]] double peak_rss_mb();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
void write_result(std::ostream& os, const Ledger& ledger,
                  const std::map<std::string, Metric>& metrics);

}  // namespace perfbench
