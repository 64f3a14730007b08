#include "obs/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "util/table.hpp"

namespace dust::obs {

namespace {

// Same formatting rules as obs/export.cpp: compact, no inf/nan literals.
std::string number(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  std::ostringstream out;
  out.precision(9);
  out << v;
  return out.str();
}

std::string label_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

}  // namespace

Aggregator::ApplyResult Aggregator::apply(const std::string& node,
                                          const SnapshotDelta& delta,
                                          std::int64_t now_ms,
                                          std::size_t encoded_bytes) {
  NodeState& state = nodes_[node];
  if (delta.full) {
    // A full snapshot restates everything from a zero baseline: drop the
    // metric state (spans are a stream and survive — dedup below handles
    // the re-sent tail).
    state.counter_names.clear();
    state.gauge_names.clear();
    state.hist_names.clear();
    state.counters.clear();
    state.gauges.clear();
    state.histograms.clear();
  } else if (delta.base_seq != state.status.applied_seq) {
    // This delta was diffed against a baseline we do not hold (our ack got
    // lost, or we restarted). Applying it would double-count or drop
    // changes; reject and let the scraper request a full snapshot.
    ++state.status.snapshots_rejected;
    return ApplyResult::kRejected;
  }

  for (const SnapshotDelta::Def& def : delta.defs) {
    switch (def.kind) {
      case SnapshotKind::kCounter:
        state.counter_names[def.id] = def.name;
        break;
      case SnapshotKind::kGauge:
        state.gauge_names[def.id] = def.name;
        break;
      case SnapshotKind::kHistogram:
        state.hist_names[def.id] = def.name;
        break;
    }
  }

  // Every referenced id must have a definition by now (defs are re-sent
  // until acked, and we only ack what we applied). A miss means the stream
  // is inconsistent — reject so recovery goes through a full snapshot.
  for (const SnapshotDelta::CounterDelta& c : delta.counters)
    if (state.counter_names.find(c.id) == state.counter_names.end()) {
      ++state.status.snapshots_rejected;
      return ApplyResult::kRejected;
    }
  for (const SnapshotDelta::GaugeValue& g : delta.gauges)
    if (state.gauge_names.find(g.id) == state.gauge_names.end()) {
      ++state.status.snapshots_rejected;
      return ApplyResult::kRejected;
    }
  for (const SnapshotDelta::HistogramDelta& h : delta.histograms)
    if (state.hist_names.find(h.id) == state.hist_names.end()) {
      ++state.status.snapshots_rejected;
      return ApplyResult::kRejected;
    }

  for (const SnapshotDelta::CounterDelta& c : delta.counters)
    state.counters[state.counter_names[c.id]] += c.delta;
  for (const SnapshotDelta::GaugeValue& g : delta.gauges)
    state.gauges[state.gauge_names[g.id]] = g.value;
  for (const SnapshotDelta::HistogramDelta& h : delta.histograms) {
    HistState& hist = state.histograms[state.hist_names[h.id]];
    const bool was_empty = hist.count == 0;
    hist.count += h.count_delta;
    hist.sum += h.sum_delta;
    if (h.count_delta > 0) {
      hist.min = was_empty ? h.min : std::min(hist.min, h.min);
      hist.max = was_empty ? h.max : std::max(hist.max, h.max);
    }
    for (const SnapshotDelta::BucketDelta& bucket : h.buckets)
      hist.buckets[bucket.index] += bucket.delta;
  }

  merge_spans(node, state, delta.spans);

  state.status.applied_seq = delta.seq;
  state.status.last_update_ms = now_ms;
  state.status.source_now_ms = delta.source_now_ms;
  ++state.status.snapshots_applied;
  state.status.bytes_received += encoded_bytes;
  return ApplyResult::kApplied;
}

void Aggregator::merge_spans(const std::string& node, NodeState& state,
                             const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& span : spans) {
    // Re-sent tails (unacked snapshot, or a full after a reject) repeat
    // spans we already merged; span ids are process-unique, so they dedup.
    if (span.span_id != 0 && !state.seen_span_ids.insert(span.span_id).second)
      continue;
    SpanRecord merged = span;
    merged.track =
        node + "/" + (merged.track.empty() ? "untracked" : merged.track);
    spans_.push_back(std::move(merged));
    ++state.status.spans_merged;
  }
  if (spans_.size() > kMaxFleetSpans)
    spans_.erase(spans_.begin(),
                 spans_.begin() +
                     static_cast<long>(spans_.size() - kMaxFleetSpans));
}

void Aggregator::ingest_local(const std::string& node,
                              const MetricRegistry& registry,
                              std::int64_t now_ms) {
  LocalFeed& feed = local_feeds_[node];
  if (!feed.encoder)
    feed.encoder = std::make_unique<SnapshotEncoder>(registry);
  if (!feed.encoder->encode(now_ms, local_buffer_)) return;  // nothing new
  SnapshotDelta delta;
  if (!decode_snapshot(local_buffer_.data(), local_buffer_.size(), delta))
    return;  // cannot happen for our own encoder; stay defensive
  if (apply(node, delta, now_ms, local_buffer_.size()) ==
      ApplyResult::kApplied) {
    feed.encoder->ack(feed.encoder->last_seq());
  } else {
    feed.encoder->reset();  // next call re-sends a full snapshot
  }
}

std::vector<std::string> Aggregator::nodes() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [name, state] : nodes_) out.push_back(name);
  return out;
}

const FleetNodeStatus* Aggregator::status(const std::string& node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second.status;
}

std::int64_t Aggregator::staleness_ms(const std::string& node,
                                      std::int64_t now_ms) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.status.last_update_ms < 0) return -1;
  return now_ms - it->second.status.last_update_ms;
}

std::uint64_t Aggregator::counter_value(const std::string& node,
                                        const std::string& name) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0;
  auto metric = it->second.counters.find(name);
  return metric == it->second.counters.end() ? 0 : metric->second;
}

std::uint64_t Aggregator::fleet_counter_total(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& [node, state] : nodes_) {
    auto metric = state.counters.find(name);
    if (metric != state.counters.end()) total += metric->second;
  }
  return total;
}

double Aggregator::gauge_value(const std::string& node,
                               const std::string& name) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0.0;
  auto metric = it->second.gauges.find(name);
  return metric == it->second.gauges.end() ? 0.0 : metric->second;
}

double Aggregator::fleet_gauge_sum(const std::string& name) const {
  double total = 0.0;
  for (const auto& [node, state] : nodes_) {
    auto metric = state.gauges.find(name);
    if (metric != state.gauges.end()) total += metric->second;
  }
  return total;
}

double Aggregator::fleet_gauge_max(const std::string& name) const {
  double best = 0.0;
  bool any = false;
  for (const auto& [node, state] : nodes_) {
    auto metric = state.gauges.find(name);
    if (metric == state.gauges.end()) continue;
    best = any ? std::max(best, metric->second) : metric->second;
    any = true;
  }
  return best;
}

HistogramSnapshot Aggregator::fleet_histogram(const std::string& name) const {
  HistogramSnapshot out;
  std::uint64_t buckets[Histogram::kBuckets] = {};
  bool any = false;
  for (const auto& [node, state] : nodes_) {
    auto metric = state.histograms.find(name);
    if (metric == state.histograms.end() || metric->second.count == 0)
      continue;
    const HistState& hist = metric->second;
    out.count += hist.count;
    out.sum += hist.sum;
    out.min = any ? std::min(out.min, hist.min) : hist.min;
    out.max = any ? std::max(out.max, hist.max) : hist.max;
    any = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) buckets[i] += hist.buckets[i];
  }
  int last_nonzero = -1;
  for (int i = 0; i < Histogram::kBuckets; ++i)
    if (buckets[i] > 0) last_nonzero = i;
  out.buckets.reserve(static_cast<std::size_t>(last_nonzero + 1));
  for (int i = 0; i <= last_nonzero; ++i)
    out.buckets.push_back(BucketSnapshot{Histogram::bucket_upper(i), buckets[i]});
  return out;
}

RegistrySnapshot Aggregator::fleet_snapshot() const {
  std::set<std::string> counters;
  std::set<std::string> gauges;
  std::set<std::string> histograms;
  for (const auto& [node, state] : nodes_) {
    for (const auto& [name, value] : state.counters) counters.insert(name);
    for (const auto& [name, value] : state.gauges) gauges.insert(name);
    for (const auto& [name, hist] : state.histograms) histograms.insert(name);
  }
  RegistrySnapshot snap;
  for (const std::string& name : counters)
    snap.counters.push_back(CounterSnapshot{name, fleet_counter_total(name)});
  for (const std::string& name : gauges)
    snap.gauges.push_back(GaugeSnapshot{name, fleet_gauge_sum(name)});
  for (const std::string& name : histograms) {
    NamedHistogramSnapshot hist;
    static_cast<HistogramSnapshot&>(hist) = fleet_histogram(name);
    hist.name = name;
    snap.histograms.push_back(std::move(hist));
  }
  return snap;
}

RegistrySnapshot Aggregator::trace_snapshot() const {
  RegistrySnapshot snap;
  snap.spans = spans_;
  snap.spans_recorded = spans_.size();
  return snap;
}

void Aggregator::write_prometheus(std::ostream& os) const {
  // Families in sorted order, one # TYPE line each, one labeled series per
  // node that has the metric. std::map keeps both levels deterministic.
  std::map<std::string, std::map<std::string, std::uint64_t>> counters;
  std::map<std::string, std::map<std::string, double>> gauges;
  std::map<std::string, std::map<std::string, const HistState*>> histograms;
  for (const auto& [node, state] : nodes_) {
    for (const auto& [name, value] : state.counters)
      counters[name][node] = value;
    for (const auto& [name, value] : state.gauges) gauges[name][node] = value;
    for (const auto& [name, hist] : state.histograms)
      histograms[name][node] = &hist;
  }

  for (const auto& [name, series] : counters) {
    os << "# TYPE " << name << " counter\n";
    for (const auto& [node, value] : series)
      os << name << "{node=\"" << label_escape(node) << "\"} " << value
         << "\n";
  }
  for (const auto& [name, series] : gauges) {
    os << "# TYPE " << name << " gauge\n";
    for (const auto& [node, value] : series)
      os << name << "{node=\"" << label_escape(node) << "\"} "
         << number(value) << "\n";
  }
  for (const auto& [name, series] : histograms) {
    os << "# TYPE " << name << " histogram\n";
    for (const auto& [node, hist] : series) {
      const std::string label = "node=\"" + label_escape(node) + "\"";
      std::uint64_t cumulative = 0;
      int last_nonzero = -1;
      for (int i = 0; i < Histogram::kBuckets; ++i)
        if (hist->buckets[i] > 0) last_nonzero = i;
      for (int i = 0; i <= last_nonzero; ++i) {
        cumulative += hist->buckets[i];
        os << name << "_bucket{" << label << ",le=\""
           << number(Histogram::bucket_upper(i)) << "\"} " << cumulative
           << "\n";
      }
      os << name << "_bucket{" << label << ",le=\"+Inf\"} " << hist->count
         << "\n";
      os << name << "_sum{" << label << "} " << number(hist->sum) << "\n";
      os << name << "_count{" << label << "} " << hist->count << "\n";
    }
  }
  // Interpolated tail quantiles per (histogram, node) — the log buckets
  // make these cheap, and fleet dashboards want tails, not means.
  for (const auto& [name, series] : histograms) {
    os << "# TYPE " << name << "_quantile gauge\n";
    for (const auto& [node, hist] : series) {
      HistogramSnapshot snap;
      snap.count = hist->count;
      snap.sum = hist->sum;
      snap.min = hist->min;
      snap.max = hist->max;
      int last_nonzero = -1;
      for (int i = 0; i < Histogram::kBuckets; ++i)
        if (hist->buckets[i] > 0) last_nonzero = i;
      for (int i = 0; i <= last_nonzero; ++i)
        snap.buckets.push_back(
            BucketSnapshot{Histogram::bucket_upper(i), hist->buckets[i]});
      const std::string label = "node=\"" + label_escape(node) + "\"";
      for (const double q : {0.5, 0.9, 0.99})
        os << name << "_quantile{" << label << ",quantile=\"" << number(q)
           << "\"} " << number(snap.quantile(q)) << "\n";
    }
  }
  // Scrape-plane health as first-class series.
  os << "# TYPE dust_obs_fleet_scrape_age_ms gauge\n";
  for (const auto& [node, state] : nodes_)
    os << "dust_obs_fleet_scrape_age_ms{node=\"" << label_escape(node)
       << "\"} " << state.status.last_update_ms << "\n";
  os << "# TYPE dust_obs_fleet_snapshots_applied_total counter\n";
  for (const auto& [node, state] : nodes_)
    os << "dust_obs_fleet_snapshots_applied_total{node=\""
       << label_escape(node) << "\"} " << state.status.snapshots_applied
       << "\n";
  os << "# TYPE dust_obs_fleet_snapshot_bytes_total counter\n";
  for (const auto& [node, state] : nodes_)
    os << "dust_obs_fleet_snapshot_bytes_total{node=\"" << label_escape(node)
       << "\"} " << state.status.bytes_received << "\n";
}

void Aggregator::write_jsonl(std::ostream& os) const {
  const auto escape = [](const std::string& s) {
    std::string out;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      out.push_back(static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch);
    }
    return out;
  };
  for (const auto& [node, state] : nodes_) {
    os << "{\"node\":\"" << escape(node)
       << "\",\"type\":\"status\",\"applied_seq\":" << state.status.applied_seq
       << ",\"last_update_ms\":" << state.status.last_update_ms
       << ",\"snapshots_applied\":" << state.status.snapshots_applied
       << ",\"snapshots_rejected\":" << state.status.snapshots_rejected
       << ",\"bytes_received\":" << state.status.bytes_received
       << ",\"spans_merged\":" << state.status.spans_merged << "}\n";
    for (const auto& [name, value] : state.counters)
      os << "{\"node\":\"" << escape(node) << "\",\"name\":\"" << escape(name)
         << "\",\"type\":\"counter\",\"value\":" << value << "}\n";
    for (const auto& [name, value] : state.gauges)
      os << "{\"node\":\"" << escape(node) << "\",\"name\":\"" << escape(name)
         << "\",\"type\":\"gauge\",\"value\":" << number(value) << "}\n";
    for (const auto& [name, hist] : state.histograms)
      os << "{\"node\":\"" << escape(node) << "\",\"name\":\"" << escape(name)
         << "\",\"type\":\"histogram\",\"count\":" << hist.count
         << ",\"sum\":" << number(hist.sum) << ",\"min\":" << number(hist.min)
         << ",\"max\":" << number(hist.max) << "}\n";
  }
}

void Aggregator::write_top(std::ostream& os, std::int64_t now_ms,
                           std::size_t max_rows) const {
  util::Table nodes_table("fleet nodes (" + std::to_string(nodes_.size()) +
                          " scraped, " + std::to_string(spans_.size()) +
                          " spans merged)");
  nodes_table.set_precision(0).header(
      {"node", "seq", "applied", "rejected", "bytes", "stale_ms", "spans"});
  for (const auto& [node, state] : nodes_) {
    const FleetNodeStatus& s = state.status;
    nodes_table.row({node, static_cast<std::int64_t>(s.applied_seq),
                     static_cast<std::int64_t>(s.snapshots_applied),
                     static_cast<std::int64_t>(s.snapshots_rejected),
                     static_cast<std::int64_t>(s.bytes_received),
                     staleness_ms(node, now_ms),
                     static_cast<std::int64_t>(s.spans_merged)});
  }
  nodes_table.print(os);
  os << "\n";

  // Largest fleet counters: the metrics currently dominating the run.
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [node, state] : nodes_)
    for (const auto& [name, value] : state.counters) totals[name] += value;
  std::vector<std::pair<std::string, std::uint64_t>> ranked(totals.begin(),
                                                            totals.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  util::Table counters_table("fleet counters (top " +
                             std::to_string(std::min(max_rows, ranked.size())) +
                             " of " + std::to_string(ranked.size()) + ")");
  counters_table.set_precision(0).header({"counter", "fleet total"});
  for (std::size_t i = 0; i < ranked.size() && i < max_rows; ++i)
    counters_table.row(
        {ranked[i].first, static_cast<std::int64_t>(ranked[i].second)});
  counters_table.print(os);
  os << "\n";

  std::map<std::string, double> gauge_sums;
  std::map<std::string, const HistState*> hist_any;
  for (const auto& [node, state] : nodes_) {
    for (const auto& [name, value] : state.gauges) gauge_sums[name] += value;
    for (const auto& [name, hist] : state.histograms) hist_any[name] = &hist;
  }
  if (!gauge_sums.empty()) {
    util::Table gauges_table("fleet gauges (sum over nodes)");
    gauges_table.set_precision(3).header({"gauge", "fleet sum"});
    std::size_t shown = 0;
    for (const auto& [name, value] : gauge_sums) {
      if (shown++ >= max_rows) break;
      gauges_table.row({name, value});
    }
    gauges_table.print(os);
    os << "\n";
  }
  if (!hist_any.empty()) {
    util::Table hist_table("fleet histograms (merged across nodes)");
    hist_table.set_precision(3).header({"histogram", "count", "p50", "p99"});
    std::size_t shown = 0;
    for (const auto& [name, unused] : hist_any) {
      if (shown++ >= max_rows) break;
      const HistogramSnapshot merged = fleet_histogram(name);
      hist_table.row({name, static_cast<std::int64_t>(merged.count),
                      merged.quantile(0.5), merged.quantile(0.99)});
    }
    hist_table.print(os);
  }
}

}  // namespace dust::obs
