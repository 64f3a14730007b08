#include "telemetry/tsdb.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace dust::telemetry {

namespace {

constexpr std::uint32_t kTsdbMagic = 0x44534442;  // "DSDB"
constexpr std::uint32_t kTsdbVersion = 1;

void put_u64(std::ostream& os, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i)
    os.put(static_cast<char>((value >> (8 * i)) & 0xff));
}

std::uint64_t get_u64(std::istream& is) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const int byte = is.get();
    if (byte == std::char_traits<char>::eof())
      throw std::runtime_error("Tsdb: truncated stream");
    value |= static_cast<std::uint64_t>(byte & 0xff) << (8 * i);
  }
  return value;
}

void put_string(std::ostream& os, const std::string& text) {
  put_u64(os, text.size());
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string get_string(std::istream& is) {
  const auto size = static_cast<std::size_t>(get_u64(is));
  if (size > (1u << 20)) throw std::runtime_error("Tsdb: absurd string size");
  std::string text(size, '\0');
  is.read(text.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(is.gcount()) != size)
    throw std::runtime_error("Tsdb: truncated string");
  return text;
}

}  // namespace

TimeSeries::TimeSeries(MetricDescriptor descriptor, std::size_t samples_per_block)
    : descriptor_(std::move(descriptor)), samples_per_block_(samples_per_block) {
  if (samples_per_block_ == 0)
    throw std::invalid_argument("TimeSeries: samples_per_block == 0");
}

void TimeSeries::seal_active() {
  if (active_.sample_count() > 0) {
    static obs::Histogram& ratio_metric =
        obs::MetricRegistry::global().histogram(
            "dust_telemetry_block_compression_ratio");
    ratio_metric.observe(active_.compression_ratio());
  }
  sealed_.push_back(std::move(active_));
  active_ = CompressedBlock{};
}

void TimeSeries::append(const Sample& sample) {
  if (last_ && sample.timestamp_ms < last_->timestamp_ms)
    throw std::invalid_argument("TimeSeries: out-of-order sample");
  if (active_.sample_count() >= samples_per_block_) seal_active();
  active_.append(sample);
  last_ = sample;
  ++count_;
}

std::vector<Sample> TimeSeries::query(std::int64_t from_ms,
                                      std::int64_t to_ms) const {
  std::vector<Sample> out;
  auto scan = [&](const CompressedBlock& block) {
    if (block.sample_count() == 0) return;
    if (block.last_timestamp_ms() < from_ms || block.first_timestamp_ms() > to_ms)
      return;
    for (const Sample& s : block.decode())
      if (s.timestamp_ms >= from_ms && s.timestamp_ms <= to_ms) out.push_back(s);
  };
  for (const CompressedBlock& block : sealed_) scan(block);
  scan(active_);
  return out;
}

std::optional<double> TimeSeries::aggregate(std::int64_t from_ms,
                                            std::int64_t to_ms,
                                            Aggregation op) const {
  const std::vector<Sample> samples = query(from_ms, to_ms);
  if (samples.empty()) return std::nullopt;
  switch (op) {
    case Aggregation::kMean: {
      double sum = 0;
      for (const Sample& s : samples) sum += s.value;
      return sum / static_cast<double>(samples.size());
    }
    case Aggregation::kMin: {
      double best = samples.front().value;
      for (const Sample& s : samples) best = std::min(best, s.value);
      return best;
    }
    case Aggregation::kMax: {
      double best = samples.front().value;
      for (const Sample& s : samples) best = std::max(best, s.value);
      return best;
    }
    case Aggregation::kSum: {
      double sum = 0;
      for (const Sample& s : samples) sum += s.value;
      return sum;
    }
    case Aggregation::kLast:
      return samples.back().value;
    case Aggregation::kCount:
      return static_cast<double>(samples.size());
    case Aggregation::kRate: {
      if (samples.size() < 2) return std::nullopt;
      const double dv = samples.back().value - samples.front().value;
      const double dt_s =
          static_cast<double>(samples.back().timestamp_ms -
                              samples.front().timestamp_ms) /
          1000.0;
      if (dt_s <= 0) return std::nullopt;
      return dv / dt_s;
    }
  }
  return std::nullopt;
}

std::vector<Sample> TimeSeries::rollup(std::int64_t from_ms, std::int64_t to_ms,
                                       std::int64_t window_ms,
                                       Aggregation op) const {
  if (window_ms <= 0)
    throw std::invalid_argument("TimeSeries::rollup: window_ms <= 0");
  std::vector<Sample> out;
  const std::vector<Sample> raw = query(from_ms, to_ms);
  std::size_t i = 0;
  while (i < raw.size()) {
    // Window containing raw[i], aligned to from_ms.
    const std::int64_t window_index = (raw[i].timestamp_ms - from_ms) / window_ms;
    const std::int64_t start = from_ms + window_index * window_ms;
    const std::int64_t end = start + window_ms - 1;
    std::size_t j = i;
    while (j < raw.size() && raw[j].timestamp_ms <= end) ++j;
    // Aggregate raw[i, j) with a scratch series to reuse the operators.
    TimeSeries scratch(descriptor_);
    for (std::size_t k = i; k < j; ++k) scratch.append(raw[k]);
    if (const std::optional<double> value = scratch.aggregate(start, end, op))
      out.push_back(Sample{start, *value});
    i = j;
  }
  return out;
}

void TimeSeries::seal_now() {
  if (active_.sample_count() > 0) seal_active();
}

std::size_t TimeSeries::take_sealed(std::vector<CompressedBlock>& out) {
  std::size_t moved = 0;
  for (CompressedBlock& block : sealed_) {
    moved += block.sample_count();
    out.push_back(std::move(block));
  }
  sealed_.clear();
  count_ -= moved;
  return moved;
}

void TimeSeries::adopt_sealed(CompressedBlock block, const Sample& last) {
  if (block.sample_count() == 0) return;
  if (last_ && block.first_timestamp_ms() < last_->timestamp_ms)
    throw std::invalid_argument("TimeSeries: out-of-order adopted block");
  seal_now();
  count_ += block.sample_count();
  sealed_.push_back(std::move(block));
  last_ = last;
}

std::size_t TimeSeries::drop_before(std::int64_t cutoff_ms) {
  std::size_t dropped = 0;
  auto keep_from = sealed_.begin();
  for (; keep_from != sealed_.end(); ++keep_from) {
    if (keep_from->last_timestamp_ms() >= cutoff_ms) break;
    dropped += keep_from->sample_count();
  }
  sealed_.erase(sealed_.begin(), keep_from);
  count_ -= dropped;
  return dropped;
}

std::size_t TimeSeries::compressed_bytes() const noexcept {
  std::size_t total = active_.compressed_bytes();
  for (const CompressedBlock& block : sealed_) total += block.compressed_bytes();
  return total;
}

void TimeSeries::serialize(std::ostream& os) const {
  put_string(os, descriptor_.name);
  put_string(os, descriptor_.unit);
  put_u64(os, static_cast<std::uint64_t>(descriptor_.kind));
  put_u64(os, samples_per_block_);
  put_u64(os, sealed_.size());
  for (const CompressedBlock& block : sealed_) block.serialize(os);
  active_.serialize(os);
}

TimeSeries TimeSeries::deserialize(std::istream& is) {
  MetricDescriptor descriptor;
  descriptor.name = get_string(is);
  descriptor.unit = get_string(is);
  const std::uint64_t kind = get_u64(is);
  if (kind > static_cast<std::uint64_t>(MetricKind::kCounter))
    throw std::runtime_error("TimeSeries: bad metric kind");
  descriptor.kind = static_cast<MetricKind>(kind);
  const auto samples_per_block = static_cast<std::size_t>(get_u64(is));
  TimeSeries series(std::move(descriptor), samples_per_block);
  const auto sealed_count = static_cast<std::size_t>(get_u64(is));
  for (std::size_t i = 0; i < sealed_count; ++i)
    series.sealed_.push_back(CompressedBlock::deserialize(is));
  series.active_ = CompressedBlock::deserialize(is);
  // Rebuild derived state (count, last sample).
  series.count_ = series.active_.sample_count();
  for (const CompressedBlock& block : series.sealed_)
    series.count_ += block.sample_count();
  const CompressedBlock* tail =
      series.active_.sample_count() > 0
          ? &series.active_
          : (series.sealed_.empty() ? nullptr : &series.sealed_.back());
  if (tail != nullptr && tail->sample_count() > 0)
    series.last_ = Sample{tail->last_timestamp_ms(), tail->last_value()};
  return series;
}

MetricId Tsdb::register_metric(const MetricDescriptor& descriptor) {
  if (auto it = by_name_.find(descriptor.name); it != by_name_.end())
    return it->second;
  series_.emplace_back(descriptor);
  const auto id = static_cast<MetricId>(series_.size() - 1);
  by_name_.emplace(descriptor.name, id);
  return id;
}

std::optional<MetricId> Tsdb::find(const std::string& name) const {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  return std::nullopt;
}

void Tsdb::append(MetricId id, const Sample& sample) {
  static obs::Counter& appends_metric = obs::MetricRegistry::global().counter(
      "dust_telemetry_tsdb_appends_total");
  appends_metric.inc();
  series_.at(id).append(sample);
}

const TimeSeries& Tsdb::series(MetricId id) const { return series_.at(id); }
TimeSeries& Tsdb::series(MetricId id) { return series_.at(id); }

std::vector<Sample> Tsdb::query(MetricId id, std::int64_t from_ms,
                                std::int64_t to_ms) const {
  return series_.at(id).query(from_ms, to_ms);
}

std::optional<double> Tsdb::aggregate(MetricId id, std::int64_t from_ms,
                                      std::int64_t to_ms, Aggregation op) const {
  return series_.at(id).aggregate(from_ms, to_ms, op);
}

std::size_t Tsdb::drop_before(std::int64_t cutoff_ms) {
  std::size_t dropped = 0;
  for (TimeSeries& s : series_) dropped += s.drop_before(cutoff_ms);
  return dropped;
}

std::size_t Tsdb::storage_bytes() const noexcept {
  std::size_t total = 0;
  for (const TimeSeries& s : series_) total += s.compressed_bytes();
  return total;
}

void Tsdb::save(std::ostream& os) const {
  put_u64(os, kTsdbMagic);
  put_u64(os, kTsdbVersion);
  put_u64(os, series_.size());
  for (const TimeSeries& s : series_) s.serialize(os);
}

Tsdb Tsdb::load(std::istream& is) {
  if (get_u64(is) != kTsdbMagic) throw std::runtime_error("Tsdb: bad magic");
  if (get_u64(is) != kTsdbVersion)
    throw std::runtime_error("Tsdb: unsupported version");
  const auto count = static_cast<std::size_t>(get_u64(is));
  Tsdb db;
  for (std::size_t i = 0; i < count; ++i) {
    TimeSeries series = TimeSeries::deserialize(is);
    const std::string name = series.descriptor().name;
    db.series_.push_back(std::move(series));
    db.by_name_.emplace(name, static_cast<MetricId>(db.series_.size() - 1));
  }
  return db;
}

}  // namespace dust::telemetry
