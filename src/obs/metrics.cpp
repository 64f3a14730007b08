#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dust::obs {

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i].count;
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double lower = i == 0 ? 0.0 : buckets[i - 1].upper;
      const double upper = buckets[i].upper;
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      // Clamp into the observed range so tiny samples don't report a
      // quantile beyond the true extremes.
      return std::clamp(lower + fraction * (upper - lower), min, max);
    }
    cumulative += in_bucket;
  }
  return max;
}

namespace detail {

std::uint64_t claim_thread_token() noexcept {
  static std::atomic<std::uint64_t> next{1};
  t_thread_token = next.fetch_add(1, std::memory_order_relaxed);
  return t_thread_token;
}

}  // namespace detail

int Histogram::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // also catches NaN
  // v = 1.f * 2^e: the smallest k with v <= 2^k is e, plus one unless v is
  // an exact power of two (f == 0). Subnormals clamp into bucket 0 and
  // infinity into the top bucket.
  const auto bits = std::bit_cast<std::uint64_t>(v);
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  const int exp = static_cast<int>(bits >> 52) - 1023;
  const int ceil_log2 = exp + ((bits & kFraction) != 0 ? 1 : 0);
  return std::clamp(ceil_log2 - kMinExp, 0, kBuckets - 1);
}

double Histogram::bucket_upper(int index) noexcept {
  return std::ldexp(1.0, index + kMinExp);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count();
  snap.sum = sum();
  if (snap.count == 0) {
    snap.min = snap.max = 0.0;
  } else {
    snap.min = observed_min();
    snap.max = observed_max();
  }
  // Trim trailing empty buckets; keep leading ones so cumulative counts in
  // the Prometheus exporter stay simple.
  int last_nonzero = -1;
  std::uint64_t counts[kBuckets];
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = bucket_count(i);
    if (counts[i] > 0) last_nonzero = i;
  }
  snap.buckets.reserve(static_cast<std::size_t>(last_nonzero + 1));
  for (int i = 0; i <= last_nonzero; ++i)
    snap.buckets.push_back(BucketSnapshot{bucket_upper(i), counts[i]});
  return snap;
}

void Histogram::Cell::reset() noexcept {
  for (auto& bucket : buckets) bucket.store(0, std::memory_order_relaxed);
  count.store(0, std::memory_order_relaxed);
  sum.store(0.0, std::memory_order_relaxed);
  min.store(std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  max.store(-std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  owned_.reset();
  shared_.reset();
}

const CounterSnapshot* RegistrySnapshot::find_counter(
    const std::string& name) const {
  for (const CounterSnapshot& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const GaugeSnapshot* RegistrySnapshot::find_gauge(
    const std::string& name) const {
  for (const GaugeSnapshot& g : gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const NamedHistogramSnapshot* RegistrySnapshot::find_histogram(
    const std::string& name) const {
  for (const NamedHistogramSnapshot& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

template <typename T>
T& MetricRegistry::find_or_create(std::vector<Entry<T>>& entries,
                                  const std::string& name) {
  for (Entry<T>& entry : entries)
    if (entry.name == name) return *entry.metric;
  entries.push_back(Entry<T>{name, std::make_unique<T>()});
  return *entries.back().metric;
}

Counter& MetricRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  return find_or_create(gauges_, name);
}

Histogram& MetricRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  return find_or_create(histograms_, name);
}

RegistrySnapshot MetricRegistry::snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const Entry<Counter>& entry : counters_)
    snap.counters.push_back(CounterSnapshot{entry.name, entry.metric->value()});
  snap.gauges.reserve(gauges_.size());
  for (const Entry<Gauge>& entry : gauges_)
    snap.gauges.push_back(GaugeSnapshot{entry.name, entry.metric->value()});
  snap.histograms.reserve(histograms_.size());
  for (const Entry<Histogram>& entry : histograms_) {
    NamedHistogramSnapshot h;
    static_cast<HistogramSnapshot&>(h) = entry.metric->snapshot();
    h.name = entry.name;
    snap.histograms.push_back(std::move(h));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  // Ring buffer -> chronological order.
  snap.spans.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    snap.spans.push_back(spans_[(span_head_ + i) % spans_.size()]);
  snap.spans_recorded = spans_recorded_.load(std::memory_order_relaxed);
  return snap;
}

void MetricRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (Entry<Counter>& entry : counters_) entry.metric->reset();
  for (Entry<Gauge>& entry : gauges_) entry.metric->reset();
  for (Entry<Histogram>& entry : histograms_) entry.metric->reset();
  spans_.clear();
  span_head_ = 0;
  spans_recorded_.store(0, std::memory_order_relaxed);
}

void MetricRegistry::record_span(SpanRecord record) {
  std::lock_guard lock(mutex_);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(std::move(record));
  } else {
    spans_[span_head_] = std::move(record);
    span_head_ = (span_head_ + 1) % kMaxSpans;
  }
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t MetricRegistry::copy_spans_since(
    std::uint64_t after_index, std::vector<SpanRecord>& out) const {
  std::lock_guard lock(mutex_);
  const std::uint64_t total = spans_recorded_.load(std::memory_order_relaxed);
  if (total <= after_index) return total;
  std::uint64_t available = total - after_index;
  if (available > spans_.size()) available = spans_.size();  // ring evicted
  // i-th oldest surviving span sits at (span_head_ + i) % size.
  const std::size_t skip = spans_.size() - static_cast<std::size_t>(available);
  for (std::size_t i = skip; i < spans_.size(); ++i)
    out.push_back(spans_[(span_head_ + i) % spans_.size()]);
  return total;
}

std::size_t MetricRegistry::counter_count() const {
  std::lock_guard lock(mutex_);
  return counters_.size();
}

std::size_t MetricRegistry::gauge_count() const {
  std::lock_guard lock(mutex_);
  return gauges_.size();
}

std::size_t MetricRegistry::histogram_count() const {
  std::lock_guard lock(mutex_);
  return histograms_.size();
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

}  // namespace dust::obs
