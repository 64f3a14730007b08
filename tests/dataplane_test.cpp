// dust::dataplane end-to-end: streamer → loopback socket → collector.
// Fidelity (full-mode streams arrive bit-exact), explicit backpressure (the
// degradation ladder walks up under congestion and every loss is declared),
// the Cs feedback hook into STAT, and the seeded dust::check audit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "check/dataplane_check.hpp"
#include "core/client.hpp"
#include "dataplane/block_streamer.hpp"
#include "dataplane/collector.hpp"
#include "sim/transport.hpp"
#include "telemetry/sampling.hpp"
#include "util/rng.hpp"
#include "wire/socket_transport.hpp"

namespace dust {
namespace {

wire::SocketTransportConfig hub_config() {
  wire::SocketTransportConfig config;
  config.role = wire::SocketTransportConfig::Role::kHub;
  return config;
}

wire::SocketTransportConfig leaf_config(std::uint16_t port,
                                        std::size_t max_queued = 4096) {
  wire::SocketTransportConfig config;
  config.role = wire::SocketTransportConfig::Role::kLeaf;
  config.port = port;
  config.max_queued_frames = max_queued;
  return config;
}

void pump(wire::SocketTransport& leaf, wire::SocketTransport& hub,
          int iterations = 50) {
  for (int i = 0; i < iterations; ++i) {
    leaf.poll_once(1);
    hub.poll_once(1);
  }
}

TEST(Dataplane, FullModeStreamsBitExactSamples) {
  wire::SocketTransport hub(hub_config());
  wire::SocketTransport leaf(leaf_config(hub.listen_port()));
  dataplane::Collector collector(hub, "dust-collector");
  leaf.register_endpoint("dust-streamer-3", [](const sim::Envelope&) {});

  telemetry::Tsdb tsdb;
  const telemetry::MetricId cpu = tsdb.register_metric(
      {"cpu", "percent", telemetry::MetricKind::kGauge});
  const telemetry::MetricId mem = tsdb.register_metric(
      {"mem", "mib", telemetry::MetricKind::kGauge});

  dataplane::BlockStreamerConfig config;
  config.owner = 3;
  config.local_endpoint = "dust-streamer-3";
  dataplane::BlockStreamer streamer(leaf, tsdb, config);

  util::Rng rng(42);
  std::vector<telemetry::Sample> sent;
  for (int i = 0; i < 500; ++i) {
    const telemetry::Sample sample{i * 100, rng.uniform(-50.0, 150.0)};
    tsdb.append(cpu, sample);
    tsdb.append(mem, telemetry::Sample{sample.timestamp_ms, sample.value * 2});
    sent.push_back(sample);
  }
  streamer.flush();
  pump(leaf, hub);

  EXPECT_EQ(streamer.mode(), telemetry::DegradeMode::kFull);
  EXPECT_EQ(streamer.stats().samples_sent, 1000u);
  EXPECT_EQ(streamer.stats().samples_dropped, 0u);
  EXPECT_EQ(streamer.stats().samples_thinned, 0u);

  const dataplane::CollectorStats& stats = collector.stats();
  EXPECT_TRUE(collector.loss_fully_declared());
  EXPECT_EQ(stats.samples, 1000u);
  ASSERT_TRUE(collector.tsdb().find("node3/cpu").has_value());
  ASSERT_TRUE(collector.tsdb().find("node3/mem").has_value());

  const std::vector<telemetry::Sample> got = collector.tsdb().query(
      *collector.tsdb().find("node3/cpu"), 0, 500 * 100);
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].timestamp_ms, sent[i].timestamp_ms);
    EXPECT_EQ(got[i].value, sent[i].value);  // bit-exact, not approximate
  }
}

// Degraded modes re-encode each thinned block on the streamer; the
// descriptor's last_value comes from the re-encoded block without a decode,
// and the collector's full verify decode must agree with it on every block.
TEST(Dataplane, DegradedReencodeShipsTheKeptLastValue) {
  wire::SocketTransport hub(hub_config());
  wire::SocketTransport leaf(leaf_config(hub.listen_port()));
  dataplane::Collector collector(hub, "dust-collector");
  leaf.register_endpoint("dust-streamer-4", [](const sim::Envelope&) {});

  telemetry::Tsdb tsdb;
  const telemetry::MetricId id = tsdb.register_metric(
      {"temp", "C", telemetry::MetricKind::kGauge});

  dataplane::BlockStreamerConfig config;
  config.owner = 4;
  config.local_endpoint = "dust-streamer-4";
  config.backpressure_enter = 0.0;  // every pump escalates...
  config.backpressure_exit = -1.0;  // ...and never relaxes
  dataplane::BlockStreamer streamer(leaf, tsdb, config);

  util::Rng rng(9);
  std::int64_t now_ms = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 200; ++i) {
      now_ms += 10;
      tsdb.append(id, telemetry::Sample{now_ms, rng.uniform(-20.0, 90.0)});
    }
    tsdb.series(id).seal_now();
    streamer.pump();
    pump(leaf, hub, 10);
  }
  pump(leaf, hub);

  EXPECT_NE(streamer.mode(), telemetry::DegradeMode::kFull);
  EXPECT_GT(streamer.stats().samples_thinned, 0u);
  ASSERT_GT(streamer.stats().samples_sent, 0u);
  EXPECT_EQ(collector.stats().verify_failures, 0u);
  EXPECT_EQ(collector.stats().samples, streamer.stats().samples_sent);
  const auto got = collector.tsdb().find("node4/temp");
  ASSERT_TRUE(got.has_value());
  const std::vector<telemetry::Sample> stored =
      collector.tsdb().query(*got, 0, now_ms);
  ASSERT_FALSE(stored.empty());
  EXPECT_EQ(collector.tsdb().series(*got).last(), stored.back());
}

// A block whose second value opens an XOR window wider than the word
// (leading 63 + length 64): decode must reject it as corrupt instead of
// shifting by a wrapped trailing count, and the collector must count it as
// a verify failure rather than adopt it. Runs under the sanitize label, so
// UBSan would report the shift the check prevents.
TEST(Dataplane, OversizedXorWindowFailsVerification) {
  telemetry::BitWriter writer;
  writer.write_bits(1000, 64);  // first timestamp
  writer.write_bits(std::bit_cast<std::uint64_t>(1.5), 64);  // first value
  writer.write_bits(0, 1);         // delta-of-delta 0
  writer.write_bits(0b11, 2);      // new XOR window...
  writer.write_bits(63, 6);        // ...leading zeros 63
  writer.write_bits(63, 6);        // ...length - 1 = 63
  writer.write_bits(~std::uint64_t{0}, 64);
  const std::size_t bit_count = writer.bit_count();
  const telemetry::CompressedBlock block =
      telemetry::CompressedBlock::from_wire(writer.bytes(), bit_count, 2,
                                            1000, 1000, 1.5);
  EXPECT_THROW((void)block.decode(), std::runtime_error);

  wire::SocketTransport hub(hub_config());
  dataplane::Collector collector(hub, "dust-collector");
  wire::DataBlocksBody body;
  body.owner = 7;
  wire::DataBlock data;
  data.descriptor.series = "cpu";
  data.descriptor.sample_count = 2;
  data.descriptor.bit_count = bit_count;
  data.descriptor.first_timestamp_ms = 1000;
  data.descriptor.last_timestamp_ms = 1000;
  data.descriptor.last_value = 1.5;
  data.payload = writer.bytes();
  body.blocks.push_back(std::move(data));
  ASSERT_TRUE(hub.send_frame(
      wire::data_blocks_frame("dust-streamer-7", "dust-collector", body)));
  hub.poll_once(0);
  EXPECT_EQ(collector.stats().blocks, 1u);
  EXPECT_EQ(collector.stats().verify_failures, 1u);
  EXPECT_EQ(collector.stats().samples, 0u);
}

TEST(Dataplane, CongestionWalksTheLadderAndDeclaresAllLoss) {
  wire::SocketTransport hub(hub_config());
  wire::SocketTransport leaf(leaf_config(hub.listen_port(), 3));
  dataplane::Collector collector(hub, "dust-collector");
  leaf.register_endpoint("dust-streamer-5", [](const sim::Envelope&) {});

  telemetry::Tsdb tsdb;
  const telemetry::MetricId id = tsdb.register_metric(
      {"flows", "count", telemetry::MetricKind::kGauge});

  dataplane::BlockStreamerConfig config;
  config.owner = 5;
  config.local_endpoint = "dust-streamer-5";
  config.max_blocks_per_frame = 1;  // one frame per block: fills fast
  dataplane::BlockStreamer streamer(leaf, tsdb, config);

  std::vector<telemetry::DegradeMode> modes_seen;
  streamer.set_mode_listener(
      [&](telemetry::DegradeMode mode, double keep) {
        modes_seen.push_back(mode);
        EXPECT_GT(keep, 0.0);
        EXPECT_LE(keep, 1.0);
      });

  // Never poll the leaf: its 3-frame queue chokes immediately, so the
  // streamer must escalate and declare instead of losing silently.
  util::Rng rng(7);
  std::int64_t now_ms = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 20; ++i) {
      now_ms += 50;
      tsdb.append(id, telemetry::Sample{now_ms, rng.uniform(0.0, 1000.0)});
    }
    tsdb.series(id).seal_now();
    streamer.pump();
  }
  EXPECT_NE(streamer.mode(), telemetry::DegradeMode::kFull);
  EXPECT_FALSE(modes_seen.empty());
  EXPECT_GT(streamer.stats().samples_dropped + streamer.stats().samples_thinned,
            0u);

  // Drain; the deferred declarations flush ahead of any remaining data.
  for (int i = 0; i < 200; ++i) {
    leaf.poll_once(1);
    hub.poll_once(1);
    streamer.pump();
    if (!streamer.announcement_pending() &&
        collector.stats().batches == streamer.stats().batches_sent &&
        collector.stats().degrade_announcements ==
            streamer.stats().degrade_announcements)
      break;
  }

  EXPECT_TRUE(collector.loss_fully_declared())
      << "undeclared=" << collector.stats().undeclared_gap_batches
      << " verify=" << collector.stats().verify_failures
      << " ooo=" << collector.stats().out_of_order;
  EXPECT_EQ(collector.stats().samples, streamer.stats().samples_sent);
  EXPECT_EQ(collector.stats().samples_declared_dropped,
            streamer.stats().samples_dropped);
  // The queue may already have drained enough for the ladder to relax, but
  // the collector must have heard every escalation along the way.
  EXPECT_GT(collector.stats().degrade_announcements, 0u);

  // Queue empty again: the ladder must walk back down and announce that too.
  for (int i = 0; i < 5; ++i) {
    streamer.pump();
    pump(leaf, hub, 10);
  }
  EXPECT_EQ(streamer.mode(), telemetry::DegradeMode::kFull);
  EXPECT_EQ(collector.mode_of(5), telemetry::DegradeMode::kFull);
}

TEST(Dataplane, ModeListenerShrinksAdvertisedCs) {
  // The ModeListener → DustClient::set_telemetry_degradation hook: a STAT
  // sent under degradation carries the keep fraction and a scaled
  // monitoring volume, so the manager sees Cs shrink AND why.
  sim::Simulator sim;
  sim::Transport transport(sim, util::Rng(1));
  std::vector<sim::Envelope> stats;
  transport.register_endpoint("dust-manager",
                              [&](const sim::Envelope& envelope) {
                                stats.push_back(envelope);
                              });
  core::DustClient client(sim, transport, 2, core::ClientConfig{},
                          util::Rng(2));
  client.set_reported_state(70.0, 40.0, 8);

  client.send_stat();
  client.set_telemetry_degradation(0.25);
  client.send_stat();
  sim.run_until(1000);

  ASSERT_EQ(stats.size(), 2u);
  const auto* full = std::get_if<core::StatMsg>(
      stats[0].payload.get_if<core::Message>());
  const auto* degraded = std::get_if<core::StatMsg>(
      stats[1].payload.get_if<core::Message>());
  ASSERT_NE(full, nullptr);
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(full->telemetry_keep_fraction, 1.0);
  EXPECT_EQ(full->monitoring_data_mb, 40.0);
  EXPECT_EQ(degraded->telemetry_keep_fraction, 0.25);
  EXPECT_EQ(degraded->monitoring_data_mb, 10.0);
}

TEST(Dataplane, SampledModeThinsDeterministically) {
  telemetry::SamplingPolicy policy;
  policy.mode = telemetry::DegradeMode::kSampled;
  policy.keep_probability = 0.25;
  std::vector<telemetry::Sample> raw;
  for (int i = 0; i < 4000; ++i)
    raw.push_back(telemetry::Sample{i * 10, static_cast<double>(i)});
  const std::vector<telemetry::Sample> once = policy.apply(raw);
  const std::vector<telemetry::Sample> twice = policy.apply(raw);
  ASSERT_EQ(once.size(), twice.size());  // pure function of (seed, timestamp)
  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_EQ(once[i].timestamp_ms, twice[i].timestamp_ms);
  // Keep rate lands near the configured probability.
  const double rate = static_cast<double>(once.size()) / 4000.0;
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.35);
}

// The trust-audit feed (DESIGN.md §14): drain_loss_audit() reports each
// owner's delivery window since the previous drain. Declared degradation must
// NOT inflate the expected count (the owner honestly told us), undeclared
// gaps must (that's the silent loss a byzantine destination produces), and
// the drain cursor must make consecutive drains disjoint.
TEST(Dataplane, LossAuditDrainsPerOwnerWindows) {
  wire::SocketTransport hub(hub_config());
  wire::SocketTransport leaf(leaf_config(hub.listen_port()));
  dataplane::Collector collector(hub, "dust-collector");
  leaf.register_endpoint("dust-streamer-3", [](const sim::Envelope&) {});

  telemetry::Tsdb tsdb;
  const telemetry::MetricId cpu = tsdb.register_metric(
      {"cpu", "percent", telemetry::MetricKind::kGauge});
  dataplane::BlockStreamerConfig config;
  config.owner = 3;
  config.local_endpoint = "dust-streamer-3";
  dataplane::BlockStreamer streamer(leaf, tsdb, config);

  util::Rng rng(11);
  for (int i = 0; i < 300; ++i)
    tsdb.append(cpu, telemetry::Sample{i * 100, rng.uniform(0.0, 100.0)});
  streamer.flush();
  pump(leaf, hub);
  ASSERT_EQ(collector.stats().samples, 300u);

  // Window 1: a clean full-mode stream audits as expected == delivered.
  std::vector<dataplane::Collector::LossAuditEntry> audit =
      collector.drain_loss_audit();
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit[0].owner, 3u);
  EXPECT_DOUBLE_EQ(audit[0].delivered, 300.0);
  EXPECT_DOUBLE_EQ(audit[0].expected, audit[0].delivered);
  // The cursor advanced: nothing new, nothing reported.
  EXPECT_TRUE(collector.drain_loss_audit().empty());

  const std::uint64_t next_seq = streamer.stats().batches_sent;

  // Window 2: a declared gap (degrade announcement covering the skipped
  // seqs) does not count against the owner — drain stays empty.
  {
    wire::DegradeBody degrade;
    degrade.owner = 3;
    degrade.mode = telemetry::DegradeMode::kSampled;
    degrade.keep_probability = 0.5;
    degrade.gap_from_batch = next_seq;
    degrade.gap_to_batch = next_seq + 1;
    degrade.samples_dropped = 40;
    wire::Frame frame = wire::degrade_frame("dust-streamer-3",
                                            "dust-collector",
                                            std::move(degrade));
    wire::GatherFrame encoded;
    encoded.head = wire::encode_frame(frame);
    ASSERT_TRUE(leaf.send_data_frame("dust-streamer-3", "dust-collector",
                                     std::move(encoded),
                                     sim::Priority::kNormal, "data_degrade",
                                     nullptr));
  }
  {
    wire::DataBlocksBody body;
    body.owner = 3;
    body.batch_seq = next_seq + 2;  // skips the two declared batches
    wire::Frame frame = wire::data_blocks_frame("dust-streamer-3",
                                                "dust-collector",
                                                std::move(body));
    ASSERT_TRUE(leaf.send_data_frame("dust-streamer-3", "dust-collector",
                                     wire::encode_data_blocks_gather(frame, {}),
                                     sim::Priority::kLow, "data_blocks",
                                     nullptr));
  }
  pump(leaf, hub);
  EXPECT_EQ(collector.stats().undeclared_gap_batches, 0u);
  EXPECT_TRUE(collector.drain_loss_audit().empty());

  // Window 3: an undeclared jump — the silent-loss signature — audits as
  // expected > delivered, charged at the owner's average batch size.
  {
    wire::DataBlocksBody body;
    body.owner = 3;
    body.batch_seq = next_seq + 6;  // 3 batches vanish without declaration
    wire::Frame frame = wire::data_blocks_frame("dust-streamer-3",
                                                "dust-collector",
                                                std::move(body));
    ASSERT_TRUE(leaf.send_data_frame("dust-streamer-3", "dust-collector",
                                     wire::encode_data_blocks_gather(frame, {}),
                                     sim::Priority::kLow, "data_blocks",
                                     nullptr));
  }
  pump(leaf, hub);
  EXPECT_EQ(collector.stats().undeclared_gap_batches, 3u);
  audit = collector.drain_loss_audit();
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_DOUBLE_EQ(audit[0].delivered, 0.0);
  EXPECT_GT(audit[0].expected, 0.0);
  EXPECT_TRUE(collector.drain_loss_audit().empty());
}

class DataplaneCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DataplaneCheck, SeededScenarioHoldsNoSilentLossContract) {
  const check::DataplaneSpec spec = check::random_dataplane_spec(GetParam());
  const check::DataplaneRunReport report =
      check::run_dataplane_scenario(spec);
  const std::vector<check::Violation> violations =
      check::check_dataplane(report);
  EXPECT_TRUE(violations.empty()) << check::describe(violations);
  // Sanity on the generator itself: the run must have actually streamed.
  EXPECT_GT(report.samples_appended, 0u);
  EXPECT_GT(report.streamer.batches_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataplaneCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace dust
