// Metric model for the in-device telemetry substrate.
//
// Monitoring agents (agent.hpp) sample device state into named metrics; the
// TSDB (tsdb.hpp) stores them Gorilla-compressed. The paper's "Time-Series
// Federation" across nodes is obs::Aggregator (fleet metrics) plus
// dataplane::Collector (the TSDB blocks themselves).
#pragma once

#include <cstdint>
#include <string>

namespace dust::telemetry {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = static_cast<MetricId>(-1);

enum class MetricKind : std::uint8_t {
  kGauge,    ///< point-in-time value (CPU %, temperature)
  kCounter,  ///< monotonically increasing (packets, bytes)
};

struct MetricDescriptor {
  std::string name;  ///< e.g. "cpu.utilization"
  std::string unit;  ///< e.g. "%", "pkts", "C"
  MetricKind kind = MetricKind::kGauge;
};

struct Sample {
  std::int64_t timestamp_ms = 0;
  double value = 0.0;

  bool operator==(const Sample&) const = default;
};

}  // namespace dust::telemetry
