// obs::Aggregator — the fleet-wide observability plane (DESIGN.md §15).
//
// Each DUST process keeps its own MetricRegistry; the aggregator merges the
// snapshot deltas scraped from every node into one fleet view:
//
//   - per-node metric stores keyed by the snapshot codec's interned ids,
//     resolved to names as definitions arrive;
//   - fleet queries (counter totals, gauge sums/maxima, merged histograms
//     with working quantiles) for watchdog rules and dashboards;
//   - a Prometheus/JSONL exporter that labels every series `node="..."`;
//   - per-node scrape staleness so a silent node is visible as data, not as
//     an absence of data;
//   - cross-process trace stitching: spans harvested from different
//     processes keep their trace_id/span_id links, tracks are prefixed
//     "node/track", and trace_snapshot() feeds the existing
//     assemble_traces / write_perfetto machinery — one Perfetto file shows
//     the STAT→solve→offload→ACK→data-block chain across four daemons.
//
// The aggregator is transport-agnostic (it consumes decoded SnapshotDelta
// values); wire::ObsScraper owns the frame plumbing. obs::Watchdog runs its
// rules over fleet_snapshot() the same way it runs them over one process's
// registry, plus node-silent over staleness_ms().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace dust::obs {

/// Per-node scrape bookkeeping, exposed to dashboards and the watchdog's
/// node-silent rule.
struct FleetNodeStatus {
  std::uint64_t applied_seq = 0;    ///< last snapshot merged in
  std::int64_t last_update_ms = -1; ///< aggregator clock at that merge
  std::int64_t source_now_ms = 0;   ///< node's own clock inside the snapshot
  std::uint64_t snapshots_applied = 0;
  std::uint64_t snapshots_rejected = 0;
  std::uint64_t bytes_received = 0;  ///< encoded payload bytes accepted
  std::uint64_t spans_merged = 0;
};

class Aggregator {
 public:
  enum class ApplyResult {
    kApplied,   ///< merged; ack `delta.seq` back to the responder
    kRejected,  ///< baseline mismatch; request a full snapshot instead
  };

  /// Merge one decoded snapshot from `node`. A delta is accepted only when
  /// `delta.full` (node state is reset first) or its base_seq equals the seq
  /// this aggregator last applied — anything else would double-count, so it
  /// is rejected and the caller should set the request-full flag on the next
  /// scrape. `now_ms` is the aggregator's clock (staleness baseline);
  /// `encoded_bytes` sizes the payload for the bandwidth tally.
  ApplyResult apply(const std::string& node, const SnapshotDelta& delta,
                    std::int64_t now_ms, std::size_t encoded_bytes = 0);

  /// Merge the calling process's own registry under `node` (the manager is
  /// part of its own fleet). Runs the real codec round-trip internally —
  /// encode, decode, apply, ack — so local ingestion exercises the same
  /// path remote snapshots take. No change since last call ⇒ no-op.
  void ingest_local(const std::string& node, const MetricRegistry& registry,
                    std::int64_t now_ms);

  [[nodiscard]] std::vector<std::string> nodes() const;
  [[nodiscard]] const FleetNodeStatus* status(const std::string& node) const;
  /// ms since the last applied snapshot from `node`; -1 if never seen.
  [[nodiscard]] std::int64_t staleness_ms(const std::string& node,
                                          std::int64_t now_ms) const;

  // --- fleet queries (for obs::Watchdog and dashboards) ------------------
  [[nodiscard]] std::uint64_t counter_value(const std::string& node,
                                            const std::string& name) const;
  [[nodiscard]] std::uint64_t fleet_counter_total(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& node,
                                   const std::string& name) const;
  [[nodiscard]] double fleet_gauge_sum(const std::string& name) const;
  [[nodiscard]] double fleet_gauge_max(const std::string& name) const;
  /// All nodes' buckets merged into one histogram (quantiles work on it).
  [[nodiscard]] HistogramSnapshot fleet_histogram(const std::string& name) const;
  /// The fleet as one registry scrape: every counter at its
  /// fleet_counter_total, every gauge at its fleet_gauge_sum, every
  /// histogram as fleet_histogram (names sorted, no spans).
  [[nodiscard]] RegistrySnapshot fleet_snapshot() const;

  // --- spans / trace stitching -------------------------------------------
  /// Snapshot holding every merged span (tracks "node/track", oldest first)
  /// for assemble_traces / write_perfetto. Metric vectors are left empty —
  /// fleet metrics need node labels the generic exporters don't speak.
  [[nodiscard]] RegistrySnapshot trace_snapshot() const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  // --- fleet export -------------------------------------------------------
  /// Prometheus text format with one `# TYPE` line per family and a
  /// `node="..."` label on every series (histograms get labeled
  /// _bucket/_sum/_count plus interpolated p50/p90/p99 gauges).
  void write_prometheus(std::ostream& os) const;
  /// JSON lines: one object per (node, metric), plus one per node status.
  void write_jsonl(std::ostream& os) const;
  /// Terminal dashboard ("fleet top"): per-node scrape status, the largest
  /// fleet counters, gauge sums, and histogram tails — what scenario_cli
  /// --obs-top and examples/fleet_top redraw each tick. `now_ms` drives the
  /// staleness column; `max_rows` caps the counter table.
  void write_top(std::ostream& os, std::int64_t now_ms,
                 std::size_t max_rows = 16) const;

  /// Oldest merged spans are evicted past this bound.
  static constexpr std::size_t kMaxFleetSpans = 4096;

 private:
  struct HistState {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t buckets[Histogram::kBuckets] = {};
  };
  struct NodeState {
    std::unordered_map<std::uint32_t, std::string> counter_names;
    std::unordered_map<std::uint32_t, std::string> gauge_names;
    std::unordered_map<std::uint32_t, std::string> hist_names;
    std::map<std::string, std::uint64_t> counters;  // ordered for export
    std::map<std::string, double> gauges;
    std::map<std::string, HistState> histograms;
    std::unordered_set<std::uint64_t> seen_span_ids;
    FleetNodeStatus status;
  };

  void merge_spans(const std::string& node, NodeState& state,
                   const std::vector<SpanRecord>& spans);

  std::map<std::string, NodeState> nodes_;  // ordered for deterministic export
  std::vector<SpanRecord> spans_;           // fleet-wide, oldest first
  struct LocalFeed {
    std::unique_ptr<SnapshotEncoder> encoder;
  };
  std::map<std::string, LocalFeed> local_feeds_;
  std::vector<std::uint8_t> local_buffer_;
};

}  // namespace dust::obs
