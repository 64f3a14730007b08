#include "dataplane/block_streamer.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dust::dataplane {

BlockStreamer::BlockStreamer(wire::SocketTransport& transport,
                             telemetry::Tsdb& tsdb,
                             BlockStreamerConfig config)
    : transport_(&transport),
      tsdb_(&tsdb),
      config_(std::move(config)),
      span_track_("streamer-" + std::to_string(config_.owner)) {
  policy_.mode = telemetry::DegradeMode::kFull;
  policy_.keep_probability = config_.sampled_keep_probability;
  policy_.aggregate_window_ms = config_.aggregate_window_ms;
  policy_.seed = config_.sampling_seed;
}

double BlockStreamer::keep_fraction() const noexcept {
  return policy_.effective_keep_fraction(config_.expected_samples_per_window);
}

void BlockStreamer::update_mode() {
  const double fill = transport_->queue_state(config_.collector).fill();
  telemetry::DegradeMode next = policy_.mode;
  if (transport_->poll_backpressure(config_.collector,
                                    config_.backpressure_enter)) {
    next = telemetry::escalate(policy_.mode);
  } else if (fill <= config_.backpressure_exit) {
    next = telemetry::relax(policy_.mode);
  }
  if (next == policy_.mode) return;
  policy_.mode = next;
  ++stats_.mode_changes;
  static obs::Counter& mode_metric = obs::MetricRegistry::global().counter(
      "dust_dataplane_mode_changes_total");
  mode_metric.inc();
  // Mode-change-only announcement: no gap, just "expect this much data".
  announce(/*gap_from=*/1, /*gap_to=*/0, /*samples_dropped=*/0);
  if (mode_listener_) mode_listener_(policy_.mode, keep_fraction());
}

void BlockStreamer::announce(std::uint64_t gap_from, std::uint64_t gap_to,
                             std::uint32_t samples_dropped) {
  // Merge into the pending declaration. Gaps declared within and across
  // ticks are contiguous ranges of burnt batch_seqs, so a [min, max] merge
  // never covers a batch that was actually delivered.
  if (gap_from <= gap_to) {
    if (pending_gap_from_ > pending_gap_to_) {
      pending_gap_from_ = gap_from;
      pending_gap_to_ = gap_to;
    } else {
      pending_gap_from_ = std::min(pending_gap_from_, gap_from);
      pending_gap_to_ = std::max(pending_gap_to_, gap_to);
    }
  }
  pending_samples_dropped_ += samples_dropped;
  announce_pending_ = true;
  flush_announcement();
}

void BlockStreamer::flush_announcement() {
  if (!announce_pending_) return;
  // A completely full peer queue would make this kNormal frame displace a
  // queued kLow data frame — silent loss. Keep the declaration pending; it
  // flushes before any future data batch (pump() retries it first, and no
  // data ships while the queue is above the shed guard).
  const wire::QueueState queue = transport_->queue_state(config_.collector);
  if (queue.capacity_frames > 0 && queue.queued_frames >= queue.capacity_frames)
    return;
  wire::DegradeBody body;
  body.owner = config_.owner;
  body.mode = policy_.mode;
  body.keep_probability = policy_.keep_probability;
  body.gap_from_batch = pending_gap_from_;
  body.gap_to_batch = pending_gap_to_;
  body.samples_dropped = pending_samples_dropped_;
  // kNormal QoS: the declaration always outruns queued kLow data frames, so
  // the collector hears about a gap before it could observe one.
  wire::Frame frame = wire::degrade_frame(config_.local_endpoint,
                                          config_.collector, std::move(body));
  wire::GatherFrame encoded;
  encoded.head = wire::encode_frame(frame);
  if (!transport_->send_data_frame(config_.local_endpoint, config_.collector,
                                   std::move(encoded), sim::Priority::kNormal,
                                   "data_degrade", nullptr))
    return;  // stays pending, retried next tick
  ++stats_.degrade_announcements;
  announce_pending_ = false;
  pending_gap_from_ = 1;
  pending_gap_to_ = 0;
  pending_samples_dropped_ = 0;
}

std::size_t BlockStreamer::ship(std::vector<PendingBlock> batch) {
  const std::uint64_t batch_seq = next_batch_seq_++;
  std::uint32_t batch_samples = 0;
  for (const PendingBlock& pending : batch)
    batch_samples +=
        static_cast<std::uint32_t>(pending.block.sample_count());

  // Above the shed guard the transport would shed this frame silently from
  // the kLow queue; burn the batch_seq and declare the gap instead.
  const double fill = transport_->queue_state(config_.collector).fill();
  if (fill >= config_.shed_guard) {
    ++stats_.batches_dropped;
    stats_.samples_dropped += batch_samples;
    announce(batch_seq, batch_seq, batch_samples);
    return 0;
  }

  // The batch owns its blocks via shared_ptr; the gather segments alias the
  // blocks' payload bytes, and the transport pins the shared_ptr until the
  // frame has fully left the socket — zero copies of the compressed data.
  auto owned = std::make_shared<std::vector<PendingBlock>>(std::move(batch));
  wire::DataBlocksBody body;
  body.owner = config_.owner;
  body.batch_seq = batch_seq;
  body.mode = policy_.mode;
  body.keep_probability = policy_.keep_probability;
  // One instant span per batch, hung under the offload chain that placed
  // the agents here; its context crosses the wire so the collector's ingest
  // span joins the same trace.
  body.trace = obs::record_instant(obs::MetricRegistry::global(),
                                   "data_blocks", span_track_, trace_);
  std::vector<wire::PayloadRef> payloads;
  body.blocks.reserve(owned->size());
  payloads.reserve(owned->size());
  std::uint64_t payload_bytes = 0;
  for (const PendingBlock& pending : *owned) {
    const telemetry::CompressedBlock& block = pending.block;
    wire::DataBlock entry;
    entry.descriptor.series = pending.series;
    entry.descriptor.block_seq = next_block_seq_[pending.series]++;
    entry.descriptor.sample_count =
        static_cast<std::uint32_t>(block.sample_count());
    entry.descriptor.bit_count = block.payload_bit_count();
    entry.descriptor.first_timestamp_ms = block.first_timestamp_ms();
    entry.descriptor.last_timestamp_ms = block.last_timestamp_ms();
    entry.descriptor.last_value = block.last_value();
    body.blocks.push_back(std::move(entry));
    payloads.push_back(
        wire::PayloadRef{block.payload().data(), block.payload().size()});
    payload_bytes += block.payload().size();
  }
  const std::size_t block_count = owned->size();
  const std::uint64_t batch_trace = body.trace.trace_id;
  wire::Frame frame =
      wire::data_blocks_frame(config_.local_endpoint, config_.collector,
                              std::move(body), batch_trace);
  wire::GatherFrame encoded =
      wire::encode_data_blocks_gather(frame, payloads);
  if (!transport_->send_data_frame(config_.local_endpoint, config_.collector,
                                   std::move(encoded), sim::Priority::kLow,
                                   "data_blocks", owned)) {
    // The transport shed it after all (cap raced past the guard): still no
    // silent loss — declare the exact gap.
    ++stats_.batches_dropped;
    stats_.samples_dropped += batch_samples;
    announce(batch_seq, batch_seq, batch_samples);
    return 0;
  }
  ++stats_.batches_sent;
  stats_.blocks_sent += block_count;
  stats_.samples_sent += batch_samples;
  stats_.payload_bytes_sent += payload_bytes;
  return 1;
}

std::size_t BlockStreamer::pump() {
  update_mode();
  flush_announcement();  // deferred declarations go out before any new data

  // Drain sealed blocks across every series, thinning under degradation.
  std::vector<PendingBlock> pending;
  for (telemetry::MetricId id = 0; id < tsdb_->metric_count(); ++id) {
    telemetry::TimeSeries& series = tsdb_->series(id);
    std::vector<telemetry::CompressedBlock> taken;
    series.take_sealed(taken);
    for (telemetry::CompressedBlock& block : taken) {
      if (policy_.mode != telemetry::DegradeMode::kFull &&
          block.sample_count() > 0) {
        const std::vector<telemetry::Sample> raw = block.decode();
        const std::vector<telemetry::Sample> kept = policy_.apply(raw);
        stats_.samples_thinned += raw.size() - kept.size();
        telemetry::CompressedBlock thinned;
        for (const telemetry::Sample& sample : kept) thinned.append(sample);
        block = std::move(thinned);
        // A thinned-to-empty block still ships (zero payload bytes): it
        // keeps block_seq contiguous, so the collector never mistakes
        // thinning for loss.
      }
      pending.push_back(
          PendingBlock{std::move(block), series.descriptor().name});
    }
  }
  if (pending.empty()) return 0;

  // Coalesce into as few frames as the caps allow.
  std::size_t frames = 0;
  std::vector<PendingBlock> batch;
  std::size_t batch_bytes = 0;
  for (PendingBlock& block : pending) {
    const std::size_t bytes = block.block.payload().size();
    if (!batch.empty() &&
        (batch.size() >= config_.max_blocks_per_frame ||
         batch_bytes + bytes > config_.max_bytes_per_frame)) {
      frames += ship(std::move(batch));
      batch = {};
      batch_bytes = 0;
    }
    batch_bytes += bytes;
    batch.push_back(std::move(block));
  }
  if (!batch.empty()) frames += ship(std::move(batch));
  return frames;
}

std::size_t BlockStreamer::flush() {
  for (telemetry::MetricId id = 0; id < tsdb_->metric_count(); ++id)
    tsdb_->series(id).seal_now();
  return pump();
}

}  // namespace dust::dataplane
