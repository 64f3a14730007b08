// `stream`: the telemetry data plane end to end on one thread — producer
// appends into a telemetry::Tsdb (Gorilla encode), a dataplane::BlockStreamer
// ships the sealed blocks over a loopback wire::SocketTransport leaf -> hub,
// and a dataplane::Collector reassembles, decodes and verifies them, as
// bench_sys_dataplane does. Traffic crosses host loopback, not a real link.
//
// One op appends one batch (kSeries series x kBatch samples of drifting,
// jittered values) and streams it until the collector holds all of it. The
// check regenerates the batch from the saved generator state and compares
// it with what the collector's Tsdb reads back, sample for sample.
#include <algorithm>
#include <memory>
#include <string>

#include "dataplane/block_streamer.hpp"
#include "dataplane/collector.hpp"
#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"
#include "wire/socket_transport.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dust;

constexpr std::size_t kSeries = 16;
constexpr std::size_t kBatch = 1024;  ///< samples per series per op
constexpr std::int64_t kStepMs = 100;
constexpr graph::NodeId kOwner = 1;
constexpr double kStallSeconds = 10.0;

wire::SocketTransportConfig hub_config() {
  wire::SocketTransportConfig config;
  config.role = wire::SocketTransportConfig::Role::kHub;
  return config;
}

wire::SocketTransportConfig leaf_config(std::uint16_t port) {
  wire::SocketTransportConfig config;
  config.role = wire::SocketTransportConfig::Role::kLeaf;
  config.port = port;
  return config;
}

/// The producer's input: per-series random walks, reproducible from a copy.
struct Generator {
  util::Rng rng;
  std::int64_t now_ms = 0;
  std::vector<double> level = std::vector<double>(kSeries, 50.0);

  template <typename Sink>
  void batch(Sink&& sink) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      now_ms += kStepMs;
      for (std::size_t s = 0; s < kSeries; ++s) {
        level[s] += rng.uniform(-0.5, 0.5);
        sink(s, telemetry::Sample{now_ms, level[s]});
      }
    }
  }
};

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(std::uint64_t seed)
      : hub_(hub_config()),
        leaf_(leaf_config(hub_.listen_port())),
        collector_(hub_, "dust-collector"),
        generator_{util::Rng(seed)} {
    leaf_.register_endpoint("dust-streamer-1", [](const sim::Envelope&) {});
    for (std::size_t s = 0; s < kSeries; ++s)
      metrics_.push_back(tsdb_.register_metric(telemetry::MetricDescriptor{
          "series" + std::to_string(s), "percent",
          telemetry::MetricKind::kGauge}));
    dataplane::BlockStreamerConfig config;
    config.owner = kOwner;
    config.local_endpoint = "dust-streamer-1";
    streamer_ =
        std::make_unique<dataplane::BlockStreamer>(leaf_, tsdb_, config);
    // Connect and stream the first batch; the timed phase starts warm.
    Tracer off;
    op(off);
    base_ = collector_.stats();
  }

  std::vector<std::pair<std::string, std::string>> shape() const override {
    return {{"series", std::to_string(kSeries)},
            {"samples per batch", std::to_string(kSeries * kBatch)},
            {"path", "tsdb -> streamer -> loopback tcp -> collector"}};
  }

  const char* work_unit() const override { return "samples"; }

  void check_setup(Ledger& ledger) override {
    std::string why;
    if (!verify(&why)) ledger.fail_run("set-up: " + why);
  }

  double op(Tracer& tracer) override {
    batch_start_ = generator_;
    {
      Scope scope(tracer, "telemetry.append");
      generator_.batch([this](std::size_t s, const telemetry::Sample& sample) {
        tsdb_.append(metrics_[s], sample);
      });
    }
    expected_ += kSeries * kBatch;
    {
      Scope scope(tracer, "dataplane.pump");
      streamer_->flush();
    }
    const std::int64_t start = now_ns();
    while (collector_.stats().samples < expected_) {
      {
        Scope scope(tracer, "wire.leaf_poll");
        leaf_.poll_once(0);
      }
      {
        Scope scope(tracer, "wire.hub_poll");
        hub_.poll_once(0);
      }
      {
        Scope scope(tracer, "dataplane.pump");
        streamer_->pump();
      }
      if (static_cast<double>(now_ns() - start) / 1e9 > kStallSeconds) break;
    }
    return static_cast<double>(kSeries * kBatch);
  }

  void check(Ledger& ledger, std::size_t op_index) override {
    std::string why;
    ledger.check(op_index, verify(&why), why);
  }

  void layer_counts(std::map<std::string, double>& out,
                    std::size_t ops) const override {
    const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
    const dataplane::CollectorStats& got = collector_.stats();
    const double payload =
        static_cast<double>(got.payload_bytes - base_.payload_bytes);
    const double samples = static_cast<double>(got.samples - base_.samples);
    out["dataplane.blocks"] =
        static_cast<double>(got.blocks - base_.blocks) / n;
    out["dataplane.payload_bytes"] = payload / n;
    // Raw sample = 8-byte timestamp + 8-byte value.
    out["telemetry.compression_ratio"] =
        payload > 0 ? samples * 16.0 / payload : 0.0;
  }

 private:
  /// Exact sample count, no undeclared loss or verify failure, and the
  /// collector's Tsdb reads back the batch exactly as appended.
  bool verify(std::string* why) {
    const dataplane::CollectorStats& got = collector_.stats();
    if (got.samples != expected_) {
      *why = "collector holds " + std::to_string(got.samples) + " of " +
             std::to_string(expected_) + " samples";
      return false;
    }
    if (!collector_.loss_fully_declared() || got.verify_failures != 0) {
      *why = "undeclared loss or verify failure at the collector";
      return false;
    }
    Generator replay = batch_start_;
    std::vector<std::vector<telemetry::Sample>> appended(kSeries);
    replay.batch([&appended](std::size_t s, const telemetry::Sample& sample) {
      appended[s].push_back(sample);
    });
    const std::int64_t from = batch_start_.now_ms + kStepMs;
    const std::int64_t to = replay.now_ms;
    telemetry::Tsdb& store = collector_.tsdb();
    for (std::size_t s = 0; s < kSeries; ++s) {
      const std::string name =
          "node" + std::to_string(kOwner) + "/series" + std::to_string(s);
      const std::optional<telemetry::MetricId> id = store.find(name);
      if (!id) {
        *why = "collector has no series " + name;
        return false;
      }
      const std::vector<telemetry::Sample> read = store.query(*id, from, to);
      if (read != appended[s]) {
        *why = "series " + name + " reads back " +
               std::to_string(read.size()) + " samples that differ from the " +
               std::to_string(appended[s].size()) + " appended";
        return false;
      }
    }
    // Checked batches are retired so memory stays flat over the run.
    store.drop_before(to + 1);
    return true;
  }

  wire::SocketTransport hub_;
  wire::SocketTransport leaf_;
  dataplane::Collector collector_;
  telemetry::Tsdb tsdb_;
  std::vector<telemetry::MetricId> metrics_;
  std::unique_ptr<dataplane::BlockStreamer> streamer_;
  Generator generator_;
  Generator batch_start_;
  std::uint64_t expected_ = 0;
  dataplane::CollectorStats base_;
};

}  // namespace

std::unique_ptr<Workload> make_stream(std::uint64_t seed) {
  return std::make_unique<StreamWorkload>(seed);
}

}  // namespace perfbench
