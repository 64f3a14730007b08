// Dirty-aware Trmin row cache — the first stage of the incremental placement
// pipeline (DESIGN.md §8).
//
// The control loop recomputes the Trmin matrix (Eq. 1-2) every placement
// period even though, in steady state, only a handful of links move between
// cycles. This cache keeps one Trmin row per source node (stored per unit of
// monitoring data, so D_i changes rescale instead of recompute) and drops a
// row only when a moved link can actually change it, direction-aware:
//
//   cost increased — the row survives unless the link is in its used_edges
//                    support (the winning paths recorded by the evaluator);
//                    paths the row never used only got worse.
//   cost decreased — the row survives unless a route through the link could
//                    beat some cached value: for link (a, b) at cost c,
//                    invalidate iff d(s,a) + c + d(b,v) < Trmin[s][v] for
//                    some v (Dijkstra lower bound on the refreshed costs).
//
// Both evaluators record that support, so every cached row carries it.
// Dirty links come from NetworkState's epsilon-filtered tracking: with
// epsilon = 0 cached rows are bit-identical to from-scratch evaluation
// (tested); with epsilon > 0 they are stale by at most the configured Lu
// band (the same trade a telemetry system makes when it reports utilization
// with hysteresis).
//
// Thread-safety: begin_cycle is exclusive; row()/row_into() may then be
// called concurrently for distinct sources (per-source slots, atomic stats),
// which is exactly how build_placement_problem fans rows out over
// util::global_pool().
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/response_time.hpp"

namespace dust::obs {
class Counter;
class Histogram;
}

namespace dust::net {

struct ResponseTimeCacheStats {
  std::uint64_t hits = 0;          ///< rows served from cache
  std::uint64_t misses = 0;        ///< rows (re)computed
  std::uint64_t invalidations = 0; ///< cached rows dropped by dirty links
  std::uint64_t bypasses = 0;      ///< queries while out of sync (no caching)

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class ResponseTimeCache {
 public:
  ResponseTimeCache();

  /// Sync with the network's links: consume net.dirty_links() (the network is
  /// re-snapshotted), refresh the cached 1/Lu costs for those links, and
  /// drop the cached rows a moved link can change, by the direction-aware
  /// tests above. One pass over the rows runs the used_edges probe for
  /// worsened links and queues the rows it keeps; the improved-link test
  /// then runs link-major, one SSSP + BFS pair per improved link into reused
  /// O(n) buffers, and stops once no row is queued. With no cached row that
  /// leaves O(dirty + n) work and no SSSP; otherwise O(improved links x
  /// (SSSP + queued rows x n)) time and O(n) scratch. Call once per placement cycle, before any row()
  /// query. A topology change (different node/edge counts) resets the cache
  /// wholesale. Each call is timed into the dust_net_begin_cycle_ms
  /// histogram.
  void begin_cycle(NetworkState& net);

  /// Multiplicative Lu quantization (DESIGN.md §8). With step > 0, link costs
  /// enter the cache as bucket representatives — bucket edges at (1+step)^k,
  /// representative at the bucket's geometric midpoint — and a dirty link
  /// whose representative did not change re-baselines WITHOUT invalidating
  /// rows. This is what rescues the hit rate under hot-links / scattered-heavy
  /// churn, where every cycle moves some link near almost every row but
  /// utilization only jitters: jitter within a bucket is invisible.
  /// Cost: each link's 1/Lu is off by at most a factor (1+step)^(1/2), so a
  /// row's Trmin is within (1+step)^(hops/2) of exact. step = 0 (default)
  /// restores exact costs and bit-identical rows. Changing the step drops all
  /// cached rows (they were built against other representatives).
  void set_lu_quantum(double step);
  [[nodiscard]] double lu_quantum() const noexcept { return lu_quantum_; }

  /// Per-pair repricing deadband (DESIGN.md §13). An *improved* link drops a
  /// cached row only when the new route through it could beat some cached
  /// value by more than this relative margin: invalidate iff
  /// d(s,a) + c + d(b,v) < Trmin[s][v] * (1 - epsilon) for some v. Worsened
  /// links are unaffected (their used-edges test is exact either way). This
  /// is what rescues the hit rate under scattered churn, where links all
  /// over the topology improve by hairline amounts every cycle and each one
  /// would otherwise reprice dozens of rows for sub-percent Trmin gains.
  /// Cost: a served row's values can be above the true optimum by at most
  /// the epsilon fraction per skipped reprice (bounded by the link epsilon
  /// band, which re-baselines each cycle). epsilon = 0 (default) keeps rows
  /// bit-identical to from-scratch evaluation. Tightening the band drops all
  /// cached rows (they may be staler than the new bound promises).
  void set_reprice_epsilon(double epsilon);
  [[nodiscard]] double reprice_epsilon() const noexcept {
    return reprice_epsilon_;
  }

  /// Trmin row from `source` for volume data_mb: served from cache when the
  /// row is clean and the evaluator options match, recomputed into the cache
  /// otherwise. Queries made while the cache is out of sync with `net`
  /// (links changed since begin_cycle) fall back to direct evaluation and do
  /// not pollute the cache. Cache hits report work == 0.
  void row_into(const NetworkState& net, graph::NodeId source, double data_mb,
                const ResponseTimeOptions& options, ResponseTimeResult& out);
  [[nodiscard]] ResponseTimeResult row(const NetworkState& net,
                                       graph::NodeId source, double data_mb,
                                       const ResponseTimeOptions& options);

  /// Drop every cached row (stats survive; handles stay valid).
  void clear();

  [[nodiscard]] ResponseTimeCacheStats stats() const;
  [[nodiscard]] std::size_t cached_rows() const;

 private:
  struct Entry {
    bool valid = false;
    std::uint32_t max_hops = 0;
    EvaluatorMode mode = EvaluatorMode::kEnumerate;
    std::size_t max_paths = 0;
    /// Trmin for data_mb == 1 (seconds per Mb); multiplied by the query's
    /// D_i on serve, which is bit-exact because evaluation accumulates the
    /// unscaled 1/Lu costs and multiplies once at the end.
    ResponseTimeResult unit;
  };

  void sync(NetworkState& net);  ///< begin_cycle minus its timer
  [[nodiscard]] bool synced_with(const NetworkState& net) const noexcept;
  void serve(const Entry& entry, double data_mb, ResponseTimeResult& out) const;
  [[nodiscard]] double quantize(double inverse_cost) const noexcept;

  std::vector<Entry> entries_;
  std::vector<double> inverse_costs_;  ///< 1/Lu snapshot rows were built on
  double lu_quantum_ = 0.0;            ///< 0 = exact costs
  double reprice_epsilon_ = 0.0;       ///< 0 = exact repricing
  std::uint64_t synced_version_ = 0;
  bool synced_once_ = false;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> bypasses_{0};

  /// Global-registry handles (dust_net_trmin_cache_*), resolved once.
  obs::Counter* hit_counter_ = nullptr;
  obs::Counter* miss_counter_ = nullptr;
  obs::Counter* invalidation_counter_ = nullptr;
  obs::Counter* bypass_counter_ = nullptr;
  obs::Histogram* begin_cycle_ms_ = nullptr;  ///< dust_net_begin_cycle_ms
};

}  // namespace dust::net
