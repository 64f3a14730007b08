#include "wire/obs_scrape.hpp"

#include <utility>

#include "util/log.hpp"

namespace dust::wire {

// --- ObsResponder ----------------------------------------------------------

ObsResponder::ObsResponder(SocketTransport& transport, std::string node,
                           obs::MetricRegistry& registry,
                           std::function<std::int64_t()> now)
    : transport_(&transport),
      node_(std::move(node)),
      endpoint_(obs_endpoint_name(node_)),
      registry_(&registry),
      now_(std::move(now)),
      scrape_bytes_(&registry.counter("dust_obs_scrape_bytes_total")) {
  token_ = transport_->register_frame_endpoint(
      endpoint_, [this](Frame&& frame) { on_scrape(std::move(frame)); });
}

ObsResponder::~ObsResponder() {
  transport_->unregister_endpoint(endpoint_, token_);
}

void ObsResponder::on_scrape(Frame&& frame) {
  if (frame.type != FrameType::kObsScrape) return;
  std::unique_ptr<obs::SnapshotEncoder>& slot = encoders_[frame.from];
  if (!slot) slot = std::make_unique<obs::SnapshotEncoder>(*registry_);
  obs::SnapshotEncoder& encoder = *slot;
  // Order matters: the piggybacked ack promotes the baseline first, so a
  // registry that moved only by already-acked amounts reads as clean.
  if (frame.obs_scrape.ack_seq != 0) encoder.ack(frame.obs_scrape.ack_seq);
  if (frame.obs_scrape.request_full) encoder.reset();
  const std::int64_t source_now = now_ ? now_() : 0;
  if (!encoder.encode(source_now, buffer_)) {
    ++clean_scrapes_;  // nothing changed: no frame, no allocation
    return;
  }
  ObsSnapshotBody body;
  body.node = node_;
  body.payload = buffer_;
  const std::size_t bytes = body.payload.size();
  Frame reply = obs_snapshot_frame(endpoint_, frame.from, std::move(body));
  reply.trace_id = frame.trace_id;
  if (transport_->send_frame(std::move(reply))) {
    ++snapshots_sent_;
    scrape_bytes_->inc(bytes);
  }
}

// --- ObsScraper ------------------------------------------------------------

ObsScraper::ObsScraper(SocketTransport& transport, obs::Aggregator& aggregator,
                       std::string endpoint, ObsScraperConfig config,
                       obs::MetricRegistry& registry)
    : transport_(&transport),
      aggregator_(&aggregator),
      endpoint_(std::move(endpoint)),
      config_(std::move(config)),
      scrapes_sent_counter_(&registry.counter("dust_obs_scrapes_sent_total")),
      decode_failures_counter_(
          &registry.counter("dust_obs_snapshot_decode_failures_total")) {
  for (const std::string& target : config_.targets) targets_.emplace(target, Target{});
  token_ = transport_->register_frame_endpoint(
      endpoint_, [this](Frame&& frame) { on_snapshot(std::move(frame)); });
}

ObsScraper::~ObsScraper() {
  transport_->unregister_endpoint(endpoint_, token_);
}

std::size_t ObsScraper::scrape(std::int64_t now_ms) {
  last_scrape_now_ms_ = now_ms;
  if (config_.discover)
    for (std::string& name :
         transport_->remote_endpoint_names(kObsEndpointPrefix))
      targets_.emplace(std::move(name), Target{});
  std::size_t sent = 0;
  for (auto& [name, target] : targets_) {
    ObsScrapeBody body;
    body.scrape_seq = ++target.scrape_seq;
    body.ack_seq = target.ack_seq;
    body.request_full = target.want_full;
    if (!transport_->send_frame(obs_scrape_frame(endpoint_, name, body)))
      continue;
    ++sent;
    ++scrapes_sent_;
    scrapes_sent_counter_->inc();
  }
  return sent;
}

std::vector<std::string> ObsScraper::targets() const {
  std::vector<std::string> names;
  names.reserve(targets_.size());
  for (const auto& [name, target] : targets_) names.push_back(name);
  return names;
}

void ObsScraper::on_snapshot(Frame&& frame) {
  if (frame.type != FrameType::kObsSnapshot) return;
  Target& target = targets_[frame.from];
  obs::SnapshotDelta delta;
  if (!decode_snapshot(frame.obs_snapshot.payload.data(),
                       frame.obs_snapshot.payload.size(), delta)) {
    ++decode_failures_;
    decode_failures_counter_->inc();
    target.want_full = true;  // resync: the stream is not trustworthy
    DUST_LOG_WARN << "obs: undecodable snapshot from " << frame.from
                  << " (" << frame.obs_snapshot.payload.size() << " bytes)";
    return;
  }
  const obs::Aggregator::ApplyResult result =
      aggregator_->apply(frame.obs_snapshot.node, delta, last_scrape_now_ms_,
                         frame.obs_snapshot.payload.size());
  if (result == obs::Aggregator::ApplyResult::kApplied) {
    ++snapshots_applied_;
    target.ack_seq = delta.seq;
    target.want_full = false;
  } else {
    ++snapshots_rejected_;
    target.want_full = true;
  }
}

}  // namespace dust::wire
