// dust::obs — self-observability for the DUST reproduction.
//
// DUST's thesis is that telemetry has a measurable resource cost; this
// subsystem lets the system measure *its own* cost. A MetricRegistry holds
// named Counter / Gauge / Histogram primitives with lock-free hot paths;
// registration and scraping take a mutex, so callers on hot paths fetch a
// handle once and keep it. Counters and histograms keep two cells: the
// first thread to write one owns its owner cell and updates it with plain
// relaxed load+store (no locked read-modify-write); every other thread adds
// into the shared cell with atomic RMW, and reads sum the two. Exporters
// (table / JSON lines / Prometheus text) live in obs/export.hpp, span
// tracing in obs/span.hpp.
//
// Naming scheme (see DESIGN.md §Observability): `dust_<layer>_<name>`, with
// `_total` for counters and a unit suffix (`_ms`, `_bytes`, ...) otherwise.
//
// Instrumentation can be disabled two ways:
//  - at runtime: obs::set_enabled(false) turns every update into a cheap
//    relaxed-load-and-return (what bench_sys_obs_overhead compares against);
//  - at compile time: -DDUST_OBS_COMPILED_OUT makes updates empty inline
//    functions, for measuring the cost of the runtime check itself.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dust::obs {

namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// Global instrumentation switch (cheap relaxed load on every update).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {
/// This thread's metric-ownership token: never 0, never reused by another
/// thread (tokens come from a process-wide counter on a thread's first
/// metric write).
std::uint64_t claim_thread_token() noexcept;
inline thread_local std::uint64_t t_thread_token = 0;
inline std::uint64_t thread_token() noexcept {
  const std::uint64_t token = t_thread_token;
  return token != 0 ? token : claim_thread_token();
}

/// The owner-cell claim: true when the calling thread (`self`) owns the
/// metric whose owner word is `owner`, claiming it if nobody does yet.
inline bool owns(std::atomic<std::uint64_t>& owner,
                 std::uint64_t self) noexcept {
  std::uint64_t current = owner.load(std::memory_order_relaxed);
  if (current == self) return true;
  if (current != 0) return false;
  return owner.compare_exchange_strong(current, self,
                                       std::memory_order_relaxed);
}

/// Single-writer add: a relaxed load and store, not a locked RMW. Only the
/// owning thread writes an owner cell, so no update is lost.
template <typename T>
inline void owner_add(std::atomic<T>& cell, T delta) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}
}  // namespace detail

/// Monotonic event count. Thread-safe: the owning thread (the first to
/// write) adds with a plain load+store into its cell, others with a relaxed
/// fetch_add into the shared cell; value() sums the two.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
#ifndef DUST_OBS_COMPILED_OUT
    if (!enabled()) return;
    if (detail::owns(owner_, detail::thread_token()))
      detail::owner_add(owned_, n);
    else
      shared_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return owned_.load(std::memory_order_relaxed) +
           shared_.load(std::memory_order_relaxed);
  }
  /// Zero both cells; ownership stays. Not atomic against a concurrent
  /// owner write (test setup and run boundaries only).
  void reset() noexcept {
    owned_.store(0, std::memory_order_relaxed);
    shared_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> owner_{0};  ///< thread token, 0 = unclaimed
  std::atomic<std::uint64_t> owned_{0};
  std::atomic<std::uint64_t> shared_{0};
};

/// Last-written point-in-time value. Thread-safe.
class Gauge {
 public:
  void set(double v) noexcept {
#ifndef DUST_OBS_COMPILED_OUT
    if (enabled()) value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void add(double delta) noexcept {
#ifndef DUST_OBS_COMPILED_OUT
    if (!enabled()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
#else
    (void)delta;
#endif
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One histogram bucket in a snapshot: count of observations <= upper.
struct BucketSnapshot {
  double upper = 0.0;
  std::uint64_t count = 0;  ///< non-cumulative (this bucket only)
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<BucketSnapshot> buckets;  ///< ascending upper bounds

  [[nodiscard]] double mean() const noexcept {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  /// Approximate quantile (q in [0,1]) by linear interpolation inside the
  /// power-of-two bucket containing the target rank. Accurate to the bucket
  /// resolution (a factor of 2 worst case), which is what log-bucketed
  /// latency tracking trades for O(1) lock-free updates.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Log-bucketed (power-of-two bounds) histogram for latency-style values.
/// observe() takes no locks and does not allocate: the owning thread (the
/// first to observe) updates its cell with relaxed load+store, others use
/// relaxed atomic RMW on the shared cell; reads combine the two cells.
/// Negative/zero values land in the lowest bucket; values above the highest
/// bound clamp into the top bucket (min/max stay exact).
class Histogram {
 public:
  /// Bucket i covers (2^(i-1+kMinExp), 2^(i+kMinExp)]; with kMinExp = -12
  /// the range spans ~0.24 µs to ~25 days when observing milliseconds.
  static constexpr int kMinExp = -12;
  static constexpr int kBuckets = 44;

  void observe(double v) noexcept {
#ifndef DUST_OBS_COMPILED_OUT
    if (!enabled()) return;
    const int bucket = bucket_index(v);
    if (detail::owns(owner_, detail::thread_token())) {
      detail::owner_add<std::uint64_t>(owned_.buckets[bucket], 1);
      detail::owner_add<std::uint64_t>(owned_.count, 1);
      detail::owner_add(owned_.sum, v);
      if (v < owned_.min.load(std::memory_order_relaxed))
        owned_.min.store(v, std::memory_order_relaxed);
      if (v > owned_.max.load(std::memory_order_relaxed))
        owned_.max.store(v, std::memory_order_relaxed);
      return;
    }
    shared_.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    shared_.count.fetch_add(1, std::memory_order_relaxed);
    atomic_add(shared_.sum, v);
    atomic_min(shared_.min, v);
    atomic_max(shared_.max, v);
#else
    (void)v;
#endif
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return owned_.count.load(std::memory_order_relaxed) +
           shared_.count.load(std::memory_order_relaxed);
  }
  /// Raw (non-cumulative) count of one bucket — the allocation-free read
  /// path the snapshot delta encoder diffs against its baseline.
  [[nodiscard]] std::uint64_t bucket_count(int index) const noexcept {
    return owned_.buckets[index].load(std::memory_order_relaxed) +
           shared_.buckets[index].load(std::memory_order_relaxed);
  }
  /// An untouched shared cell adds +0.0, so a histogram only one thread
  /// writes reads back bit-identical sums.
  [[nodiscard]] double sum() const noexcept {
    return owned_.sum.load(std::memory_order_relaxed) +
           shared_.sum.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double observed_min() const noexcept {
    return std::min(owned_.min.load(std::memory_order_relaxed),
                    shared_.min.load(std::memory_order_relaxed));
  }
  [[nodiscard]] double observed_max() const noexcept {
    return std::max(owned_.max.load(std::memory_order_relaxed),
                    shared_.max.load(std::memory_order_relaxed));
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  /// Zero both cells; ownership stays. Not atomic against a concurrent
  /// owner write (test setup and run boundaries only).
  void reset() noexcept;

  /// Smallest bucket whose upper bound is >= v, so 2^k itself lands in the
  /// bucket bounded by 2^k.
  [[nodiscard]] static int bucket_index(double v) noexcept;
  /// Upper bound of bucket `index` (2^(index + kMinExp)).
  [[nodiscard]] static double bucket_upper(int index) noexcept;

 private:
  struct Cell {
    std::atomic<std::uint64_t> buckets[kBuckets]{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};

    void reset() noexcept;
  };

  static void atomic_add(std::atomic<double>& target, double v) noexcept {
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  static void atomic_min(std::atomic<double>& target, double v) noexcept {
    double cur = target.load(std::memory_order_relaxed);
    while (v < cur &&
           !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<double>& target, double v) noexcept {
    double cur = target.load(std::memory_order_relaxed);
    while (v > cur &&
           !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> owner_{0};  ///< thread token, 0 = unclaimed
  Cell owned_;
  Cell shared_;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
struct NamedHistogramSnapshot : HistogramSnapshot {
  std::string name;
};

/// One completed trace span (see obs/span.hpp). The first four fields are
/// the PR-1 layout (kept in order — SpanRecord is aggregate-initialized);
/// the causal-tracing fields (DESIGN.md §10) are appended after them. A
/// span with trace_id == 0 is untraced: it still shows up on its track in
/// the Perfetto export but belongs to no causal tree.
struct SpanRecord {
  std::string name;
  double wall_ms = 0.0;
  std::int64_t sim_start_ms = -1;  ///< -1 when no virtual clock was attached
  std::int64_t sim_duration_ms = -1;
  std::string track;               ///< timeline row ("manager", "client-3", ...)
  double wall_start_ms = -1.0;     ///< ms since process epoch (wall_now_ms)
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = root of its trace
};

struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<NamedHistogramSnapshot> histograms;
  std::vector<SpanRecord> spans;  ///< most recent completed spans, oldest first
  /// Lifetime total of record_span() calls (the ring keeps only the last
  /// kMaxSpans of them) — the cursor the snapshot span tail keys off.
  std::uint64_t spans_recorded = 0;

  [[nodiscard]] const CounterSnapshot* find_counter(const std::string& name) const;
  [[nodiscard]] const GaugeSnapshot* find_gauge(const std::string& name) const;
  [[nodiscard]] const NamedHistogramSnapshot* find_histogram(
      const std::string& name) const;
};

/// Named-metric registry. Metrics are created on first access and never
/// destroyed (reset() zeroes values but keeps registrations), so handles
/// returned by counter()/gauge()/histogram() stay valid for the registry's
/// lifetime — fetch them once, outside hot loops.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Consistent-enough scrape: each metric is read atomically, the set as a
  /// whole is not a point-in-time cut (standard for live registries).
  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Zero every metric and clear the span buffer; registrations (and thus
  /// previously handed-out handles) survive.
  void reset();

  /// Append a completed span to the bounded trace buffer (oldest evicted).
  void record_span(SpanRecord record);

  /// Lifetime total of record_span() calls. Lock-free read: the snapshot
  /// responder's dirty check polls this on every scrape.
  [[nodiscard]] std::uint64_t spans_recorded() const noexcept {
    return spans_recorded_.load(std::memory_order_relaxed);
  }

  /// Append the spans recorded after global index `after_index` to `out`
  /// (oldest first) and return the new high-water index. The ring bounds
  /// history: at most the newest kMaxSpans spans are still available, older
  /// ones were evicted and are silently skipped.
  std::uint64_t copy_spans_since(std::uint64_t after_index,
                                 std::vector<SpanRecord>& out) const;

  /// Allocation-free iteration over registered metrics, in registration
  /// order (append-only, so indices are stable for the registry's
  /// lifetime). Callbacks run under the registry mutex: read values, don't
  /// call back into the registry.
  template <typename F>
  void for_each_counter(F&& fn) const {
    std::lock_guard lock(mutex_);
    for (const Entry<Counter>& entry : counters_) fn(entry.name, *entry.metric);
  }
  template <typename F>
  void for_each_gauge(F&& fn) const {
    std::lock_guard lock(mutex_);
    for (const Entry<Gauge>& entry : gauges_) fn(entry.name, *entry.metric);
  }
  template <typename F>
  void for_each_histogram(F&& fn) const {
    std::lock_guard lock(mutex_);
    for (const Entry<Histogram>& entry : histograms_)
      fn(entry.name, *entry.metric);
  }

  [[nodiscard]] std::size_t counter_count() const;
  [[nodiscard]] std::size_t gauge_count() const;
  [[nodiscard]] std::size_t histogram_count() const;

  /// Process-wide registry the built-in instrumentation writes to.
  static MetricRegistry& global();

  static constexpr std::size_t kMaxSpans = 512;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::unique_ptr<T> metric;
  };
  template <typename T>
  static T& find_or_create(std::vector<Entry<T>>& entries,
                           const std::string& name);

  mutable std::mutex mutex_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
  std::vector<SpanRecord> spans_;
  std::size_t span_head_ = 0;  ///< ring cursor once spans_ is full
  std::atomic<std::uint64_t> spans_recorded_{0};
};

}  // namespace dust::obs
