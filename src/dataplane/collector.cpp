#include "dataplane/collector.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace dust::dataplane {

Collector::Collector(wire::SocketTransport& transport, std::string endpoint)
    : transport_(&transport), endpoint_(std::move(endpoint)) {
  endpoint_token_ = transport_->register_frame_endpoint(
      endpoint_, [this](wire::Frame&& frame) { on_data(std::move(frame)); });
}

Collector::~Collector() {
  transport_->unregister_endpoint(endpoint_, endpoint_token_);
}

telemetry::DegradeMode Collector::mode_of(graph::NodeId owner) const {
  auto it = owners_.find(owner);
  return it == owners_.end() ? telemetry::DegradeMode::kFull
                             : it->second.mode;
}

double Collector::keep_probability_of(graph::NodeId owner) const {
  auto it = owners_.find(owner);
  return it == owners_.end() ? 1.0 : it->second.keep_probability;
}

std::vector<Collector::LossAuditEntry> Collector::drain_loss_audit() {
  std::vector<LossAuditEntry> out;
  for (auto& [id, owner] : owners_) {
    const std::uint64_t delivered =
        owner.samples_received - owner.audited_samples;
    const std::uint64_t undeclared =
        owner.undeclared_batches - owner.audited_undeclared;
    owner.audited_samples = owner.samples_received;
    owner.audited_undeclared = owner.undeclared_batches;
    if (delivered == 0 && undeclared == 0) continue;
    // Undeclared gaps carry an unknown number of samples; charge each one an
    // average received batch (floor 1) so a pure blackhole still audits > 0
    // expected.
    const double avg_batch =
        owner.batches_received > 0
            ? static_cast<double>(owner.samples_received) /
                  static_cast<double>(owner.batches_received)
            : 1.0;
    LossAuditEntry entry;
    entry.owner = id;
    entry.delivered = static_cast<double>(delivered);
    entry.expected = entry.delivered + static_cast<double>(undeclared) *
                                           std::max(1.0, avg_batch);
    out.push_back(entry);
  }
  // owners_ is an unordered_map; sort so callers see a deterministic order.
  std::sort(out.begin(), out.end(),
            [](const LossAuditEntry& a, const LossAuditEntry& b) {
              return a.owner < b.owner;
            });
  return out;
}

bool Collector::gap_declared(const OwnerState& owner,
                             std::uint64_t batch_seq) {
  for (const auto& [from, to] : owner.declared_gaps)
    if (batch_seq >= from && batch_seq <= to) return true;
  return false;
}

void Collector::on_data(wire::Frame&& frame) {
  if (frame.type == wire::FrameType::kDataDegrade) {
    on_degrade(frame);
  } else if (frame.type == wire::FrameType::kDataBlocks) {
    on_blocks(std::move(frame));
  }
}

void Collector::on_degrade(const wire::Frame& frame) {
  const wire::DegradeBody& body = frame.degrade;
  OwnerState& owner = owners_[body.owner];
  owner.mode = body.mode;
  owner.keep_probability = body.keep_probability;
  ++stats_.degrade_announcements;
  if (body.gap_from_batch <= body.gap_to_batch) {
    owner.declared_gaps.emplace_back(body.gap_from_batch, body.gap_to_batch);
    stats_.declared_gap_batches +=
        body.gap_to_batch - body.gap_from_batch + 1;
    stats_.samples_declared_dropped += body.samples_dropped;
  }
}

void Collector::on_blocks(wire::Frame&& frame) {
  static obs::Counter& samples_metric = obs::MetricRegistry::global().counter(
      "dust_dataplane_collector_samples_total");
  static obs::Counter& undeclared_metric =
      obs::MetricRegistry::global().counter(
          "dust_dataplane_undeclared_gap_batches_total");
  wire::DataBlocksBody& body = frame.data_blocks;
  OwnerState& owner = owners_[body.owner];

  if (body.batch_seq < owner.next_batch_seq) {
    ++stats_.out_of_order;  // duplicate or reordered batch
    return;
  }
  // The streamer's per-batch context crossed the wire in the body: the
  // ingest event joins the offload chain's trace, so a stitched fleet
  // Perfetto file runs STAT → solve → offload → transfer → data_blocks →
  // collect_blocks across processes.
  if (body.trace.valid())
    obs::record_instant(obs::MetricRegistry::global(), "collect_blocks",
                        "collector", body.trace);
  // Any skipped batch must have been declared dropped before its data
  // could have arrived (declarations ride kNormal, data rides kLow).
  for (std::uint64_t seq = owner.next_batch_seq; seq < body.batch_seq; ++seq) {
    if (!gap_declared(owner, seq)) {
      ++stats_.undeclared_gap_batches;
      ++owner.undeclared_batches;
      undeclared_metric.inc();
    }
  }
  owner.next_batch_seq = body.batch_seq + 1;

  ++stats_.batches;
  ++owner.batches_received;
  for (wire::DataBlock& block : body.blocks) {
    const wire::BlockDescriptor& d = block.descriptor;
    ++stats_.blocks;
    stats_.payload_bytes += block.payload.size();

    auto& next_seq = owner.next_block_seq[d.series];
    if (d.block_seq < next_seq) {
      ++stats_.out_of_order;
      continue;
    }
    next_seq = d.block_seq + 1;

    if (d.sample_count == 0) continue;  // thinned-to-empty placeholder

    // Rebuild and verify: the decoded stream must agree with its descriptor
    // sample for sample before it is adopted.
    bool valid = true;
    telemetry::CompressedBlock rebuilt;
    try {
      rebuilt = telemetry::CompressedBlock::from_wire(
          std::move(block.payload), d.bit_count, d.sample_count,
          d.first_timestamp_ms, d.last_timestamp_ms, d.last_value);
      const std::vector<telemetry::Sample> samples = rebuilt.decode();
      valid = samples.size() == d.sample_count &&
              samples.front().timestamp_ms == d.first_timestamp_ms &&
              samples.back().timestamp_ms == d.last_timestamp_ms &&
              samples.back().value == d.last_value;
      for (std::size_t i = 1; valid && i < samples.size(); ++i)
        valid = samples[i - 1].timestamp_ms <= samples[i].timestamp_ms;
    } catch (const std::exception&) {
      valid = false;
    }
    if (!valid) {
      ++stats_.verify_failures;
      DUST_LOG_WARN << "dataplane: block failed verification (owner "
                    << body.owner << ", series " << d.series << ")";
      continue;
    }

    const telemetry::MetricId id = tsdb_.register_metric(
        telemetry::MetricDescriptor{
            "node" + std::to_string(body.owner) + "/" + d.series, "",
            telemetry::MetricKind::kGauge});
    try {
      tsdb_.series(id).adopt_sealed(
          std::move(rebuilt),
          telemetry::Sample{d.last_timestamp_ms, d.last_value});
    } catch (const std::invalid_argument&) {
      ++stats_.out_of_order;
      continue;
    }
    stats_.samples += d.sample_count;
    owner.samples_received += d.sample_count;
    samples_metric.inc(d.sample_count);
  }
}

}  // namespace dust::dataplane
