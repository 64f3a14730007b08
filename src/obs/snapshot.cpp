#include "obs/snapshot.hpp"

#include <bit>
#include <cstring>
#include <string_view>

#include "util/bytes.hpp"

namespace dust::obs {

namespace {

using Writer = util::ByteWriter;
using Reader = util::ByteReader;

/// Snapshot strings (metric names, span names and tracks) truncate at the
/// u16 length prefix rather than throw: an over-long name must not stop a
/// node from answering scrapes.
void put_str(Writer& w, const std::string& s) {
  w.str16(std::string_view(s).substr(0, 0xFFFF));
}

constexpr std::uint8_t kFlagFull = 0x01;

void put_span(Writer& w, const SpanRecord& span) {
  put_str(w, span.name);
  put_str(w, span.track);
  w.f64(span.wall_ms);
  w.i64(span.sim_start_ms);
  w.i64(span.sim_duration_ms);
  w.f64(span.wall_start_ms);
  w.u64(span.trace_id);
  w.u64(span.span_id);
  w.u64(span.parent_span_id);
}

SpanRecord get_span(Reader& r) {
  SpanRecord span;
  span.name = r.str16();
  span.track = r.str16();
  span.wall_ms = r.f64();
  span.sim_start_ms = r.i64();
  span.sim_duration_ms = r.i64();
  span.wall_start_ms = r.f64();
  span.trace_id = r.u64();
  span.span_id = r.u64();
  span.parent_span_id = r.u64();
  return span;
}

}  // namespace

SnapshotEncoder::SnapshotEncoder(const MetricRegistry& registry)
    : registry_(&registry) {
  span_buffer_.reserve(MetricRegistry::kMaxSpans);
}

void SnapshotEncoder::discover() {
  // The registry is append-only, so state index i always matches the i-th
  // registered metric of that kind; only the tail can be new.
  if (registry_->counter_count() > counters_.size()) {
    std::size_t index = 0;
    registry_->for_each_counter([&](const std::string& name,
                                    const Counter& metric) {
      if (index++ < counters_.size()) return;
      CounterState state;
      state.metric = &metric;
      state.name = name;
      counters_.push_back(std::move(state));
    });
  }
  if (registry_->gauge_count() > gauges_.size()) {
    std::size_t index = 0;
    registry_->for_each_gauge([&](const std::string& name,
                                  const Gauge& metric) {
      if (index++ < gauges_.size()) return;
      GaugeState state;
      state.metric = &metric;
      state.name = name;
      gauges_.push_back(std::move(state));
    });
  }
  if (registry_->histogram_count() > histograms_.size()) {
    std::size_t index = 0;
    registry_->for_each_histogram([&](const std::string& name,
                                      const Histogram& metric) {
      if (index++ < histograms_.size()) return;
      HistogramState state;
      state.metric = &metric;
      state.name = name;
      histograms_.push_back(std::move(state));
    });
  }
}

bool SnapshotEncoder::dirty() const {
  for (const CounterState& c : counters_)
    if (c.metric->value() != c.acked) return true;
  for (const GaugeState& g : gauges_)
    if (std::bit_cast<std::uint64_t>(g.metric->value()) != g.acked_bits)
      return true;
  // Every observe bumps the histogram count, so count alone decides.
  for (const HistogramState& h : histograms_)
    if (h.metric->count() != h.acked_count) return true;
  return registry_->spans_recorded() != acked_spans_;
}

bool SnapshotEncoder::encode(std::int64_t source_now_ms,
                             std::vector<std::uint8_t>& out) {
  // Discovery first: a brand-new metric is itself a change, but its state
  // starts at a zero baseline so the dirty check below still sees it (a
  // registered-but-never-touched metric correctly stays invisible).
  if (registry_->counter_count() > counters_.size() ||
      registry_->gauge_count() > gauges_.size() ||
      registry_->histogram_count() > histograms_.size())
    discover();
  if (!dirty()) return false;  // the hot-tick path: no frame, no allocation

  out.clear();
  Writer w(out);
  ++seq_;
  w.u8(kSnapshotVersion);
  w.u8(acked_seq_ == 0 ? kFlagFull : 0);
  w.u16(0);
  w.u64(seq_);
  w.u64(acked_seq_);
  w.i64(source_now_ms);

  // Definitions: every metric emitted below whose (kind, id, name) the
  // scraper has not acked yet. Re-sent until acked — the reply carrying the
  // first copy may have been shed.
  std::uint32_t def_count = 0;
  const std::size_t def_count_at = out.size();
  w.u32(0);  // patched below
  const auto put_def = [&](SnapshotKind kind, std::uint32_t id,
                           const std::string& name) {
    w.u8(static_cast<std::uint8_t>(kind));
    w.u32(id);
    put_str(w, name);
    ++def_count;
  };
  for (std::uint32_t i = 0; i < counters_.size(); ++i) {
    CounterState& c = counters_[i];
    if (c.metric->value() != c.acked && !c.def_acked) {
      put_def(SnapshotKind::kCounter, i, c.name);
      c.def_pending = true;
    }
  }
  for (std::uint32_t i = 0; i < gauges_.size(); ++i) {
    GaugeState& g = gauges_[i];
    if (std::bit_cast<std::uint64_t>(g.metric->value()) != g.acked_bits &&
        !g.def_acked) {
      put_def(SnapshotKind::kGauge, i, g.name);
      g.def_pending = true;
    }
  }
  for (std::uint32_t i = 0; i < histograms_.size(); ++i) {
    HistogramState& h = histograms_[i];
    if (h.metric->count() != h.acked_count && !h.def_acked) {
      put_def(SnapshotKind::kHistogram, i, h.name);
      h.def_pending = true;
    }
  }
  out[def_count_at + 0] = static_cast<std::uint8_t>(def_count);
  out[def_count_at + 1] = static_cast<std::uint8_t>(def_count >> 8);
  out[def_count_at + 2] = static_cast<std::uint8_t>(def_count >> 16);
  out[def_count_at + 3] = static_cast<std::uint8_t>(def_count >> 24);

  // Counter deltas.
  std::uint32_t emitted = 0;
  std::size_t count_at = out.size();
  w.u32(0);
  for (std::uint32_t i = 0; i < counters_.size(); ++i) {
    CounterState& c = counters_[i];
    const std::uint64_t value = c.metric->value();
    c.pending = value;
    if (value == c.acked) continue;
    w.u32(i);
    w.u64(value - c.acked);  // counters are monotonic; wrap is a reset
    ++emitted;
  }
  const auto patch_u32 = [&](std::size_t at, std::uint32_t v) {
    out[at + 0] = static_cast<std::uint8_t>(v);
    out[at + 1] = static_cast<std::uint8_t>(v >> 8);
    out[at + 2] = static_cast<std::uint8_t>(v >> 16);
    out[at + 3] = static_cast<std::uint8_t>(v >> 24);
  };
  patch_u32(count_at, emitted);

  // Gauge values (absolute — a gauge has no meaningful delta).
  emitted = 0;
  count_at = out.size();
  w.u32(0);
  for (std::uint32_t i = 0; i < gauges_.size(); ++i) {
    GaugeState& g = gauges_[i];
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(g.metric->value());
    g.pending_bits = bits;
    if (bits == g.acked_bits) continue;
    w.u32(i);
    w.u64(bits);
    ++emitted;
  }
  patch_u32(count_at, emitted);

  // Histogram deltas: count/sum plus only the buckets that moved.
  emitted = 0;
  count_at = out.size();
  w.u32(0);
  for (std::uint32_t i = 0; i < histograms_.size(); ++i) {
    HistogramState& h = histograms_[i];
    const std::uint64_t count = h.metric->count();
    const double sum = h.metric->sum();
    h.pending_count = count;
    h.pending_sum = sum;
    for (int b = 0; b < Histogram::kBuckets; ++b)
      h.pending_buckets[b] = h.metric->bucket_count(b);
    if (count == h.acked_count) continue;
    w.u32(i);
    w.u64(count - h.acked_count);
    w.f64(sum - h.acked_sum);
    w.f64(count > 0 ? h.metric->observed_min() : 0.0);
    w.f64(count > 0 ? h.metric->observed_max() : 0.0);
    std::uint16_t moved = 0;
    const std::size_t moved_at = out.size();
    w.u16(0);
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.pending_buckets[b] == h.acked_buckets[b]) continue;
      w.u8(static_cast<std::uint8_t>(b));
      w.u64(h.pending_buckets[b] - h.acked_buckets[b]);
      ++moved;
    }
    out[moved_at + 0] = static_cast<std::uint8_t>(moved);
    out[moved_at + 1] = static_cast<std::uint8_t>(moved >> 8);
    ++emitted;
  }
  patch_u32(count_at, emitted);

  // Span tail: everything recorded since the acked baseline that the ring
  // still holds.
  span_buffer_.clear();
  pending_spans_ = registry_->copy_spans_since(acked_spans_, span_buffer_);
  w.u32(static_cast<std::uint32_t>(span_buffer_.size()));
  for (const SpanRecord& span : span_buffer_) put_span(w, span);
  return true;
}

void SnapshotEncoder::ack(std::uint64_t seq) {
  if (seq == 0 || seq != seq_ || seq == acked_seq_) return;
  for (CounterState& c : counters_) {
    c.acked = c.pending;
    c.def_acked = c.def_acked || c.def_pending;
    c.def_pending = false;
  }
  for (GaugeState& g : gauges_) {
    g.acked_bits = g.pending_bits;
    g.def_acked = g.def_acked || g.def_pending;
    g.def_pending = false;
  }
  for (HistogramState& h : histograms_) {
    h.acked_count = h.pending_count;
    h.acked_sum = h.pending_sum;
    std::memcpy(h.acked_buckets, h.pending_buckets, sizeof(h.acked_buckets));
    h.def_acked = h.def_acked || h.def_pending;
    h.def_pending = false;
  }
  acked_spans_ = pending_spans_;
  acked_seq_ = seq;
}

void SnapshotEncoder::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  seq_ = 0;
  acked_seq_ = 0;
  acked_spans_ = 0;
  pending_spans_ = 0;
}

bool decode_snapshot(const std::uint8_t* data, std::size_t size,
                     SnapshotDelta& out) {
  out = SnapshotDelta{};
  Reader r(data, size);
  if (r.u8() != kSnapshotVersion) return false;
  const std::uint8_t flags = r.u8();
  if ((flags & ~kFlagFull) != 0) return false;
  out.full = (flags & kFlagFull) != 0;
  if (r.u16() != 0) return false;  // reserved must be zero
  out.seq = r.u64();
  out.base_seq = r.u64();
  out.source_now_ms = r.i64();
  if (!r.ok() || out.seq == 0) return false;
  if (out.full != (out.base_seq == 0)) return false;

  const std::uint32_t def_count = r.count32(1 + 4 + 2);
  out.defs.reserve(def_count);
  for (std::uint32_t i = 0; i < def_count && r.ok(); ++i) {
    SnapshotDelta::Def def;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(SnapshotKind::kHistogram))
      return false;
    def.kind = static_cast<SnapshotKind>(kind);
    def.id = r.u32();
    def.name = r.str16();
    out.defs.push_back(std::move(def));
  }

  const std::uint32_t counter_count = r.count32(4 + 8);
  out.counters.reserve(counter_count);
  for (std::uint32_t i = 0; i < counter_count && r.ok(); ++i) {
    SnapshotDelta::CounterDelta delta;
    delta.id = r.u32();
    delta.delta = r.u64();
    out.counters.push_back(delta);
  }

  const std::uint32_t gauge_count = r.count32(4 + 8);
  out.gauges.reserve(gauge_count);
  for (std::uint32_t i = 0; i < gauge_count && r.ok(); ++i) {
    SnapshotDelta::GaugeValue value;
    value.id = r.u32();
    value.value = r.f64();
    out.gauges.push_back(value);
  }

  const std::uint32_t hist_count = r.count32(4 + 8 + 8 + 8 + 8 + 2);
  out.histograms.reserve(hist_count);
  for (std::uint32_t i = 0; i < hist_count && r.ok(); ++i) {
    SnapshotDelta::HistogramDelta delta;
    delta.id = r.u32();
    delta.count_delta = r.u64();
    delta.sum_delta = r.f64();
    delta.min = r.f64();
    delta.max = r.f64();
    const std::uint16_t moved = r.u16();
    if (moved > Histogram::kBuckets) return false;
    delta.buckets.reserve(moved);
    for (std::uint16_t b = 0; b < moved && r.ok(); ++b) {
      SnapshotDelta::BucketDelta bucket;
      bucket.index = r.u8();
      if (bucket.index >= Histogram::kBuckets) return false;
      bucket.delta = r.u64();
      delta.buckets.push_back(bucket);
    }
    out.histograms.push_back(std::move(delta));
  }

  const std::uint32_t span_count = r.count32(2 + 2 + 8 * 7);
  out.spans.reserve(span_count);
  for (std::uint32_t i = 0; i < span_count && r.ok(); ++i)
    out.spans.push_back(get_span(r));

  return r.ok() && r.exhausted();
}

}  // namespace dust::obs
