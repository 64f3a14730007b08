#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(n) - 1e-9)));  // 1-based
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::vector<OpSample> fastest_blocks(const std::vector<OpSample>& ops,
                                     std::size_t block_ops, BlockRank rank,
                                     double share, std::size_t min_ops) {
  const std::size_t blocks = block_ops == 0 ? 0 : ops.size() / block_ops;
  std::vector<double> key(blocks);
  std::vector<double> ms(block_ops);
  for (std::size_t b = 0; b < blocks; ++b) {
    double work = 0.0;
    double total_ms = 0.0;
    for (std::size_t i = 0; i < block_ops; ++i) {
      const OpSample& op = ops[b * block_ops + i];
      ms[i] = op.ms;
      work += op.work;
      total_ms += op.ms;
    }
    if (rank == BlockRank::kMedianMs) {
      std::sort(ms.begin(), ms.end());
      key[b] = block_ops % 2 ? ms[block_ops / 2]
                             : 0.5 * (ms[block_ops / 2 - 1] + ms[block_ops / 2]);
    } else {
      key[b] = total_ms > 0.0 ? -work / total_ms : 0.0;
    }
  }
  std::vector<std::size_t> order(blocks);
  for (std::size_t b = 0; b < blocks; ++b) order[b] = b;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });

  const auto wanted = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(blocks) - 1e-9));
  std::vector<OpSample> pool;
  for (std::size_t taken = 0; taken < blocks; ++taken) {
    if (taken >= wanted && pool.size() >= min_ops) break;
    const auto first = ops.begin() + static_cast<std::ptrdiff_t>(
                                         order[taken] * block_ops);
    pool.insert(pool.end(), first,
                first + static_cast<std::ptrdiff_t>(block_ops));
  }
  return pool;
}

std::size_t Ledger::begin_op() {
  failed_.push_back(false);
  return failed_.size() - 1;
}

bool Ledger::check(std::size_t op, bool ok, const std::string& what) {
  if (ok) return true;
  note("op " + std::to_string(op) + ": " + what);
  if (op < failed_.size() && !failed_[op]) {
    failed_[op] = true;
    ++failed_count_;
  }
  return false;
}

void Ledger::fail_run(const std::string& what) {
  note(what);
  run_failed_ = true;
}

void Ledger::note(const std::string& what) {
  constexpr std::size_t kKeep = 8;
  if (messages_.size() < kKeep) messages_.push_back(what);
}

std::uint32_t Tracer::begin(const char* name) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? 0 : open_.back();
  span.op = op_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto handle = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void Tracer::end(std::uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = now_ns();
  open_.pop_back();  // Scope closes spans innermost first
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? 0 : open_.back();
  span.op = op_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);

  std::map<std::string, double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    cover.clear();
    for (const std::uint32_t c : children[i]) {
      const std::int64_t lo = std::max(span.start_ns, spans_[c].start_ns);
      const std::int64_t hi = std::min(span.end_ns, spans_[c].end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[span.name] += static_cast<double>(span.end_ns - span.start_ns -
                                          covered) / 1e6;
  }
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"op\":" << s.op << ",\"id\":" << i + 1
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void write_result(std::ostream& os, const Ledger& ledger,
                  const std::map<std::string, Metric>& metrics) {
  os << "{\"correct\": " << (ledger.correct() ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted()
     << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics) {
    // %.17g keeps every digit; non-finite values are not valid JSON.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof number, "%.17g", value);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}\n";
}

}  // namespace perfbench
