#include "wire/codec.hpp"

#include <stdexcept>

#include "util/bytes.hpp"
#include "wire/crc32.hpp"

namespace dust::wire {

namespace {

using Writer = util::ByteWriter;
using Reader = util::ByteReader;

// ---- per-type body schemas -------------------------------------------------

void put_trace(Writer& w, const obs::TraceContext& trace) {
  w.u64(trace.trace_id);
  w.u64(trace.span_id);
}
obs::TraceContext get_trace(Reader& r) {
  obs::TraceContext trace;
  trace.trace_id = r.u64();
  trace.span_id = r.u64();
  return trace;
}

void put_route(Writer& w, const std::vector<graph::NodeId>& route) {
  w.u32(static_cast<std::uint32_t>(route.size()));
  for (const graph::NodeId node : route) w.u32(node);
}
std::vector<graph::NodeId> get_route(Reader& r) {
  const std::uint32_t n = r.count32(4);
  std::vector<graph::NodeId> route;
  route.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) route.push_back(r.u32());
  return route;
}

void put_agent(Writer& w, const telemetry::MonitorAgent& agent) {
  w.str16(agent.name());
  const telemetry::AgentCostModel& cost = agent.cost_model();
  w.f64(cost.cpu_base_ms);
  w.f64(cost.cpu_per_gbps_ms);
  w.f64(cost.burst_probability);
  w.f64(cost.burst_multiplier);
  w.f64(cost.memory_base_mib);
  w.i64(agent.interval_ms());
}
telemetry::MonitorAgent get_agent(Reader& r) {
  std::string name = r.str16();
  telemetry::AgentCostModel cost;
  cost.cpu_base_ms = r.f64();
  cost.cpu_per_gbps_ms = r.f64();
  cost.burst_probability = r.f64();
  cost.burst_multiplier = r.f64();
  cost.memory_base_mib = r.f64();
  const std::int64_t interval_ms = r.i64();
  // Blueprint semantics, same as REP re-homing: runtime state (bound
  // metrics, sample counts) is rebuilt at the destination.
  return telemetry::MonitorAgent(std::move(name), cost, interval_ms);
}

void put_snapshot(Writer& w, const telemetry::DeviceSnapshot& s) {
  w.i64(s.timestamp_ms);
  w.f64(s.device_cpu_percent);
  w.f64(s.memory_used_mib);
  w.f64(s.rx_mbps);
  w.f64(s.tx_mbps);
  w.f64(s.temperature_c);
  w.u32(s.links_up);
  w.u32(s.links_total);
  w.u32(s.protocol_flaps);
  w.u32(s.faults);
}
telemetry::DeviceSnapshot get_snapshot(Reader& r) {
  telemetry::DeviceSnapshot s;
  s.timestamp_ms = r.i64();
  s.device_cpu_percent = r.f64();
  s.memory_used_mib = r.f64();
  s.rx_mbps = r.f64();
  s.tx_mbps = r.f64();
  s.temperature_c = r.f64();
  s.links_up = r.u32();
  s.links_total = r.u32();
  s.protocol_flaps = r.u32();
  s.faults = r.u32();
  return s;
}

void put_body(Writer& w, const core::Message& message) {
  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, core::OffloadCapableMsg>) {
          w.u32(msg.node);
          w.boolean(msg.capable);
          w.f64(msg.platform_factor);
        } else if constexpr (std::is_same_v<T, core::AckMsg>) {
          w.u32(msg.node);
          w.i64(msg.update_interval_ms);
        } else if constexpr (std::is_same_v<T, core::StatMsg>) {
          w.u32(msg.node);
          w.f64(msg.utilization_percent);
          w.f64(msg.monitoring_data_mb);
          w.u32(msg.agent_count);
          w.f64(msg.telemetry_keep_fraction);
          put_trace(w, msg.trace);
        } else if constexpr (std::is_same_v<T, core::OffloadRequestMsg>) {
          w.u64(msg.request_id);
          w.u32(msg.busy);
          w.u32(msg.destination);
          w.f64(msg.amount);
          w.u32(msg.agents_to_move);
          put_route(w, msg.route);
          put_trace(w, msg.trace);
        } else if constexpr (std::is_same_v<T, core::OffloadAckMsg>) {
          w.u64(msg.request_id);
          w.u32(msg.node);
          w.boolean(msg.accepted);
          put_trace(w, msg.trace);
        } else if constexpr (std::is_same_v<T, core::AgentTransferMsg>) {
          w.u64(msg.request_id);
          w.u32(msg.owner);
          w.u32(static_cast<std::uint32_t>(msg.agents.size()));
          for (const telemetry::MonitorAgent& agent : msg.agents)
            put_agent(w, agent);
          put_trace(w, msg.trace);
        } else if constexpr (std::is_same_v<T, core::TelemetryDataMsg>) {
          w.u32(msg.owner);
          put_snapshot(w, msg.snapshot);
        } else if constexpr (std::is_same_v<T, core::KeepaliveMsg>) {
          w.u32(msg.node);
          w.u64(msg.seq);
        } else if constexpr (std::is_same_v<T, core::RepMsg>) {
          w.u32(msg.failed);
          w.u32(msg.replacement);
          w.u32(msg.busy);
          w.u64(msg.request_id);
          w.f64(msg.amount);
          put_trace(w, msg.trace);
        } else {
          static_assert(std::is_same_v<T, core::ReleaseMsg>);
          w.u32(msg.busy);
          w.u32(msg.destination);
        }
      },
      message);
}

bool get_body(Reader& r, FrameType type, core::Message& out) {
  switch (type) {
    case FrameType::kOffloadCapable: {
      core::OffloadCapableMsg msg;
      msg.node = r.u32();
      msg.capable = r.boolean();
      msg.platform_factor = r.f64();
      out = msg;
      return r.ok();
    }
    case FrameType::kAck: {
      core::AckMsg msg;
      msg.node = r.u32();
      msg.update_interval_ms = r.i64();
      out = msg;
      return r.ok();
    }
    case FrameType::kStat: {
      core::StatMsg msg;
      msg.node = r.u32();
      msg.utilization_percent = r.f64();
      msg.monitoring_data_mb = r.f64();
      msg.agent_count = r.u32();
      msg.telemetry_keep_fraction = r.f64();
      msg.trace = get_trace(r);
      out = msg;
      return r.ok();
    }
    case FrameType::kOffloadRequest: {
      core::OffloadRequestMsg msg;
      msg.request_id = r.u64();
      msg.busy = r.u32();
      msg.destination = r.u32();
      msg.amount = r.f64();
      msg.agents_to_move = r.u32();
      msg.route = get_route(r);
      msg.trace = get_trace(r);
      out = std::move(msg);
      return r.ok();
    }
    case FrameType::kOffloadAck: {
      core::OffloadAckMsg msg;
      msg.request_id = r.u64();
      msg.node = r.u32();
      msg.accepted = r.boolean();
      msg.trace = get_trace(r);
      out = msg;
      return r.ok();
    }
    case FrameType::kAgentTransfer: {
      core::AgentTransferMsg msg;
      msg.request_id = r.u64();
      msg.owner = r.u32();
      const std::uint32_t n = r.count32(2 + 6 * 8 + 8);
      msg.agents.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i)
        msg.agents.push_back(get_agent(r));
      msg.trace = get_trace(r);
      out = std::move(msg);
      return r.ok();
    }
    case FrameType::kTelemetryData: {
      core::TelemetryDataMsg msg;
      msg.owner = r.u32();
      msg.snapshot = get_snapshot(r);
      out = msg;
      return r.ok();
    }
    case FrameType::kKeepalive: {
      core::KeepaliveMsg msg;
      msg.node = r.u32();
      msg.seq = r.u64();
      out = msg;
      return r.ok();
    }
    case FrameType::kRep: {
      core::RepMsg msg;
      msg.failed = r.u32();
      msg.replacement = r.u32();
      msg.busy = r.u32();
      msg.request_id = r.u64();
      msg.amount = r.f64();
      msg.trace = get_trace(r);
      out = msg;
      return r.ok();
    }
    case FrameType::kRelease: {
      core::ReleaseMsg msg;
      msg.busy = r.u32();
      msg.destination = r.u32();
      out = msg;
      return r.ok();
    }
    case FrameType::kAnnounce:
    case FrameType::kDataBlocks:
    case FrameType::kDataDegrade:
    case FrameType::kObsScrape:
    case FrameType::kObsSnapshot:
    case FrameType::kShardHello:
    case FrameType::kCapacityDigest:
    case FrameType::kDelegateRequest:
    case FrameType::kDelegateReply:
    case FrameType::kDomainHandoff:
      return false;  // handled separately, never reaches here
  }
  return false;
}

// ---- data-plane bodies (DESIGN.md §12) -------------------------------------

constexpr std::uint8_t kMaxDegradeMode =
    static_cast<std::uint8_t>(telemetry::DegradeMode::kAggregated);

/// Smallest possible encoded BlockDescriptor: empty series name + fixed
/// fields + the u32 payload_bytes suffix. Bounds count32 on decode.
constexpr std::size_t kMinDescriptorBytes = 2 + 8 + 4 + 8 + 8 + 8 + 8 + 4;

[[nodiscard]] std::uint64_t payload_bytes_for(std::uint64_t bit_count) {
  return bit_count / 8 + (bit_count % 8 != 0 ? 1 : 0);
}

void put_descriptor(Writer& w, const BlockDescriptor& d,
                    std::uint64_t payload_bytes) {
  w.str16(d.series);
  w.u64(d.block_seq);
  w.u32(d.sample_count);
  w.u64(d.bit_count);
  w.i64(d.first_timestamp_ms);
  w.i64(d.last_timestamp_ms);
  w.f64(d.last_value);
  w.u32(static_cast<std::uint32_t>(payload_bytes));
}

/// Everything in a kDataBlocks payload before the payload run. Descriptor
/// payload_bytes come back through `payload_sizes` (validated against
/// bit_count) so the caller can slice the tail.
bool get_data_blocks_prefix(Reader& r, DataBlocksBody& body,
                            std::vector<std::uint32_t>& payload_sizes) {
  body.owner = r.u32();
  body.batch_seq = r.u64();
  const std::uint8_t mode = r.u8();
  if (!r.ok() || mode > kMaxDegradeMode) return false;
  body.mode = static_cast<telemetry::DegradeMode>(mode);
  body.keep_probability = r.f64();
  body.trace = get_trace(r);
  const std::uint32_t n = r.count32(kMinDescriptorBytes);
  body.blocks.resize(n);
  payload_sizes.resize(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    BlockDescriptor& d = body.blocks[i].descriptor;
    d.series = r.str16();
    d.block_seq = r.u64();
    d.sample_count = r.u32();
    d.bit_count = r.u64();
    d.first_timestamp_ms = r.i64();
    d.last_timestamp_ms = r.i64();
    d.last_value = r.f64();
    payload_sizes[i] = r.u32();
    if (payload_sizes[i] != payload_bytes_for(d.bit_count)) return false;
  }
  return r.ok();
}

void put_degrade(Writer& w, const DegradeBody& body) {
  w.u32(body.owner);
  w.u8(static_cast<std::uint8_t>(body.mode));
  w.f64(body.keep_probability);
  w.u64(body.gap_from_batch);
  w.u64(body.gap_to_batch);
  w.u32(body.samples_dropped);
}

// ---- observability bodies (DESIGN.md §15) ----------------------------------

void put_obs_scrape(Writer& w, const ObsScrapeBody& body) {
  w.u64(body.scrape_seq);
  w.u64(body.ack_seq);
  w.u8(body.request_full ? 1 : 0);
}

bool get_obs_scrape(Reader& r, ObsScrapeBody& body) {
  body.scrape_seq = r.u64();
  body.ack_seq = r.u64();
  const std::uint8_t flags = r.u8();
  if (!r.ok() || (flags & ~std::uint8_t{1}) != 0) return false;
  body.request_full = (flags & 1) != 0;
  return true;
}

/// Writes the node + length prefix only; the caller appends the payload
/// bytes (opaque to the wire layer — the snapshot schema and its own bounds
/// checking live in obs/snapshot.hpp).
void put_obs_snapshot_prefix(Writer& w, const ObsSnapshotBody& body) {
  w.str16(body.node);
  w.u32(static_cast<std::uint32_t>(body.payload.size()));
}

bool get_obs_snapshot(Reader& r, ObsSnapshotBody& body) {
  body.node = r.str16();
  const std::uint32_t n = r.count32(1);
  body.payload = r.bytes(n);
  return r.ok();
}

// ---- federation bodies (DESIGN.md §16) -------------------------------------

void put_shard_hello(Writer& w, const ShardHelloBody& body) {
  w.u32(body.shard);
  w.u64(body.epoch);
  w.boolean(body.standby);
  w.str16(body.endpoint);
}

bool get_shard_hello(Reader& r, ShardHelloBody& body) {
  body.shard = r.u32();
  body.epoch = r.u64();
  const std::uint8_t standby = r.u8();
  if (!r.ok() || standby > 1) return false;
  body.standby = standby != 0;
  body.endpoint = r.str16();
  return r.ok();
}

void put_capacity_digest(Writer& w, const CapacityDigestBody& body) {
  w.u32(body.shard);
  w.u64(body.epoch);
  w.u64(body.seq);
  w.f64(body.spare);
  w.f64(body.excess);
  w.u32(body.busy_count);
  w.u32(body.candidate_count);
}

bool get_capacity_digest(Reader& r, CapacityDigestBody& body) {
  body.shard = r.u32();
  body.epoch = r.u64();
  body.seq = r.u64();
  body.spare = r.f64();
  body.excess = r.f64();
  body.busy_count = r.u32();
  body.candidate_count = r.u32();
  return r.ok();
}

void put_delegate_request(Writer& w, const DelegateRequestBody& body) {
  w.u32(body.shard);
  w.u64(body.epoch);
  w.u64(body.delegation_id);
  w.u32(body.busy);
  w.f64(body.amount);
  w.u32(body.agents);
  w.f64(body.platform_factor);
}

bool get_delegate_request(Reader& r, DelegateRequestBody& body) {
  body.shard = r.u32();
  body.epoch = r.u64();
  body.delegation_id = r.u64();
  body.busy = r.u32();
  body.amount = r.f64();
  body.agents = r.u32();
  body.platform_factor = r.f64();
  return r.ok();
}

void put_delegate_reply(Writer& w, const DelegateReplyBody& body) {
  w.u32(body.shard);
  w.u64(body.epoch);
  w.u64(body.delegation_id);
  w.boolean(body.granted);
  w.u32(body.destination);
  w.f64(body.amount);
}

bool get_delegate_reply(Reader& r, DelegateReplyBody& body) {
  body.shard = r.u32();
  body.epoch = r.u64();
  body.delegation_id = r.u64();
  const std::uint8_t granted = r.u8();
  if (!r.ok() || granted > 1) return false;
  body.granted = granted != 0;
  body.destination = r.u32();
  body.amount = r.f64();
  return r.ok();
}

void put_domain_handoff(Writer& w, const DomainHandoffBody& body) {
  w.u32(body.domain);
  w.u64(body.epoch);
  w.str16(body.endpoint);
}

bool get_domain_handoff(Reader& r, DomainHandoffBody& body) {
  body.domain = r.u32();
  body.epoch = r.u64();
  body.endpoint = r.str16();
  return r.ok();
}

bool get_degrade(Reader& r, DegradeBody& body) {
  body.owner = r.u32();
  const std::uint8_t mode = r.u8();
  if (!r.ok() || mode > kMaxDegradeMode) return false;
  body.mode = static_cast<telemetry::DegradeMode>(mode);
  body.keep_probability = r.f64();
  body.gap_from_batch = r.u64();
  body.gap_to_batch = r.u64();
  body.samples_dropped = r.u32();
  return r.ok();
}

void write_at_u32(std::vector<std::uint8_t>& buf, std::size_t offset,
                  std::uint32_t v) {
  buf[offset + 0] = static_cast<std::uint8_t>(v);
  buf[offset + 1] = static_cast<std::uint8_t>(v >> 8);
  buf[offset + 2] = static_cast<std::uint8_t>(v >> 16);
  buf[offset + 3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

}  // namespace

const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::kOffloadCapable: return "offload_capable";
    case FrameType::kAck: return "ack";
    case FrameType::kStat: return "stat";
    case FrameType::kOffloadRequest: return "offload_request";
    case FrameType::kOffloadAck: return "offload_ack";
    case FrameType::kAgentTransfer: return "agent_transfer";
    case FrameType::kTelemetryData: return "telemetry_data";
    case FrameType::kKeepalive: return "keepalive";
    case FrameType::kRep: return "rep";
    case FrameType::kRelease: return "release";
    case FrameType::kAnnounce: return "announce";
    case FrameType::kDataBlocks: return "data_blocks";
    case FrameType::kDataDegrade: return "data_degrade";
    case FrameType::kObsScrape: return "obs_scrape";
    case FrameType::kObsSnapshot: return "obs_snapshot";
    case FrameType::kShardHello: return "shard_hello";
    case FrameType::kCapacityDigest: return "capacity_digest";
    case FrameType::kDelegateRequest: return "delegate_request";
    case FrameType::kDelegateReply: return "delegate_reply";
    case FrameType::kDomainHandoff: return "domain_handoff";
  }
  return "unknown";
}

FrameType frame_type_of(const core::Message& message) noexcept {
  // The variant's alternative order matches the tag order 1..10 by
  // construction; keep the mapping explicit anyway so reordering the
  // variant cannot silently renumber the wire format.
  return std::visit(
      [](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, core::OffloadCapableMsg>)
          return FrameType::kOffloadCapable;
        else if constexpr (std::is_same_v<T, core::AckMsg>)
          return FrameType::kAck;
        else if constexpr (std::is_same_v<T, core::StatMsg>)
          return FrameType::kStat;
        else if constexpr (std::is_same_v<T, core::OffloadRequestMsg>)
          return FrameType::kOffloadRequest;
        else if constexpr (std::is_same_v<T, core::OffloadAckMsg>)
          return FrameType::kOffloadAck;
        else if constexpr (std::is_same_v<T, core::AgentTransferMsg>)
          return FrameType::kAgentTransfer;
        else if constexpr (std::is_same_v<T, core::TelemetryDataMsg>)
          return FrameType::kTelemetryData;
        else if constexpr (std::is_same_v<T, core::KeepaliveMsg>)
          return FrameType::kKeepalive;
        else if constexpr (std::is_same_v<T, core::RepMsg>)
          return FrameType::kRep;
        else
          return FrameType::kRelease;
      },
      message);
}

const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMoreData: return "need_more_data";
    case DecodeStatus::kBadMagic: return "bad_magic";
    case DecodeStatus::kBadCrc: return "bad_crc";
    case DecodeStatus::kBadVersion: return "bad_version";
    case DecodeStatus::kUnknownType: return "unknown_type";
    case DecodeStatus::kMalformedBody: return "malformed_body";
    case DecodeStatus::kOversized: return "oversized";
  }
  return "unknown";
}

Frame message_frame(std::string from, std::string to, core::Message message,
                    sim::Priority priority, std::string kind,
                    std::uint64_t trace_id) {
  Frame frame;
  frame.type = frame_type_of(message);
  frame.priority = priority;
  frame.trace_id = trace_id;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = std::move(kind);
  frame.message = std::move(message);
  return frame;
}

Frame announce_frame(std::vector<std::string> endpoints) {
  Frame frame;
  frame.type = FrameType::kAnnounce;
  frame.announce_endpoints = std::move(endpoints);
  return frame;
}

Frame data_blocks_frame(std::string from, std::string to, DataBlocksBody body,
                        std::uint64_t trace_id) {
  Frame frame;
  frame.type = FrameType::kDataBlocks;
  frame.priority = sim::Priority::kLow;
  frame.trace_id = trace_id;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "data_blocks";
  frame.data_blocks = std::move(body);
  return frame;
}

Frame degrade_frame(std::string from, std::string to, DegradeBody body,
                    std::uint64_t trace_id) {
  Frame frame;
  frame.type = FrameType::kDataDegrade;
  frame.priority = sim::Priority::kNormal;
  frame.trace_id = trace_id;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "data_degrade";
  frame.degrade = std::move(body);
  return frame;
}

Frame obs_scrape_frame(std::string from, std::string to, ObsScrapeBody body) {
  Frame frame;
  frame.type = FrameType::kObsScrape;
  frame.priority = sim::Priority::kNormal;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "obs_scrape";
  frame.obs_scrape = body;
  return frame;
}

Frame obs_snapshot_frame(std::string from, std::string to,
                         ObsSnapshotBody body) {
  Frame frame;
  frame.type = FrameType::kObsSnapshot;
  frame.priority = sim::Priority::kLow;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "obs_snapshot";
  frame.obs_snapshot = std::move(body);
  return frame;
}

Frame shard_hello_frame(std::string from, std::string to,
                        ShardHelloBody body) {
  Frame frame;
  frame.type = FrameType::kShardHello;
  frame.priority = sim::Priority::kNormal;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "shard_hello";
  frame.shard_hello = std::move(body);
  return frame;
}

Frame capacity_digest_frame(std::string from, std::string to,
                            CapacityDigestBody body) {
  Frame frame;
  frame.type = FrameType::kCapacityDigest;
  frame.priority = sim::Priority::kNormal;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "capacity_digest";
  frame.capacity_digest = body;
  return frame;
}

Frame delegate_request_frame(std::string from, std::string to,
                             DelegateRequestBody body,
                             std::uint64_t trace_id) {
  Frame frame;
  frame.type = FrameType::kDelegateRequest;
  frame.priority = sim::Priority::kNormal;
  frame.trace_id = trace_id;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "delegate_request";
  frame.delegate_request = body;
  return frame;
}

Frame delegate_reply_frame(std::string from, std::string to,
                           DelegateReplyBody body, std::uint64_t trace_id) {
  Frame frame;
  frame.type = FrameType::kDelegateReply;
  frame.priority = sim::Priority::kNormal;
  frame.trace_id = trace_id;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "delegate_reply";
  frame.delegate_reply = body;
  return frame;
}

Frame domain_handoff_frame(std::string from, std::string to,
                           DomainHandoffBody body) {
  Frame frame;
  frame.type = FrameType::kDomainHandoff;
  frame.priority = sim::Priority::kNormal;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.kind = "domain_handoff";
  frame.domain_handoff = std::move(body);
  return frame;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  Writer w(out);
  w.u32(kWireMagic);
  w.u32(0);  // CRC placeholder
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(frame.type));
  w.u32(0);  // payload_len placeholder
  w.u8(static_cast<std::uint8_t>(frame.priority));
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u64(frame.trace_id);
  w.str16(frame.from);
  w.str16(frame.to);
  w.str16(frame.kind);
  if (frame.type == FrameType::kAnnounce) {
    w.u32(static_cast<std::uint32_t>(frame.announce_endpoints.size()));
    for (const std::string& endpoint : frame.announce_endpoints)
      w.str16(endpoint);
  } else if (frame.type == FrameType::kDataBlocks) {
    const DataBlocksBody& body = frame.data_blocks;
    w.u32(body.owner);
    w.u64(body.batch_seq);
    w.u8(static_cast<std::uint8_t>(body.mode));
    w.f64(body.keep_probability);
    put_trace(w, body.trace);
    w.u32(static_cast<std::uint32_t>(body.blocks.size()));
    for (const DataBlock& block : body.blocks) {
      if (block.payload.size() !=
          payload_bytes_for(block.descriptor.bit_count))
        throw std::invalid_argument(
            "wire: block payload size does not match bit_count");
      put_descriptor(w, block.descriptor, block.payload.size());
    }
    for (const DataBlock& block : body.blocks)
      out.insert(out.end(), block.payload.begin(), block.payload.end());
  } else if (frame.type == FrameType::kDataDegrade) {
    put_degrade(w, frame.degrade);
  } else if (frame.type == FrameType::kObsScrape) {
    put_obs_scrape(w, frame.obs_scrape);
  } else if (frame.type == FrameType::kShardHello) {
    put_shard_hello(w, frame.shard_hello);
  } else if (frame.type == FrameType::kCapacityDigest) {
    put_capacity_digest(w, frame.capacity_digest);
  } else if (frame.type == FrameType::kDelegateRequest) {
    put_delegate_request(w, frame.delegate_request);
  } else if (frame.type == FrameType::kDelegateReply) {
    put_delegate_reply(w, frame.delegate_reply);
  } else if (frame.type == FrameType::kDomainHandoff) {
    put_domain_handoff(w, frame.domain_handoff);
  } else if (frame.type == FrameType::kObsSnapshot) {
    put_obs_snapshot_prefix(w, frame.obs_snapshot);
    out.insert(out.end(), frame.obs_snapshot.payload.begin(),
               frame.obs_snapshot.payload.end());
  } else {
    if (frame_type_of(frame.message) != frame.type)
      throw std::invalid_argument(
          "wire: frame type does not match message alternative");
    put_body(w, frame.message);
  }
  const std::size_t payload_len = out.size() - kWireHeaderBytes;
  if (payload_len > kMaxPayloadBytes)
    throw std::invalid_argument("wire: frame payload exceeds kMaxPayloadBytes");
  write_at_u32(out, 12, static_cast<std::uint32_t>(payload_len));
  write_at_u32(out, 4, crc32(out.data() + 8, out.size() - 8));
  return out;
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size) {
  DecodeResult result;
  if (size < kWireHeaderBytes) return result;  // kNeedMoreData, consumed 0
  if (read_u32(data) != kWireMagic) {
    result.status = DecodeStatus::kBadMagic;
    result.consumed = 1;
    return result;
  }
  const std::uint32_t payload_len = read_u32(data + 12);
  if (payload_len > kMaxPayloadBytes) {
    // The length is corrupt (or hostile); nothing downstream of it can be
    // trusted, so resync byte-by-byte like a magic failure.
    result.status = DecodeStatus::kOversized;
    result.consumed = 1;
    return result;
  }
  const std::size_t frame_bytes = kWireHeaderBytes + payload_len;
  if (size < frame_bytes) return result;  // kNeedMoreData
  // Integrity first: the CRC spans version/type/length and the payload, so
  // from here on every field is trustworthy (or we drop the whole frame).
  if (crc32(data + 8, frame_bytes - 8) != read_u32(data + 4)) {
    result.status = DecodeStatus::kBadCrc;
    result.consumed = frame_bytes;
    return result;
  }
  result.consumed = frame_bytes;
  if (read_u16(data + 8) != kWireVersion) {
    result.status = DecodeStatus::kBadVersion;
    return result;
  }
  const std::uint16_t raw_type = read_u16(data + 10);
  Reader r(data + kWireHeaderBytes, payload_len);
  Frame frame;
  const std::uint8_t priority = r.u8();
  r.u8();
  r.u8();
  r.u8();
  if (priority > static_cast<std::uint8_t>(sim::Priority::kNormal)) {
    result.status = DecodeStatus::kMalformedBody;
    return result;
  }
  frame.priority = static_cast<sim::Priority>(priority);
  frame.trace_id = r.u64();
  frame.from = r.str16();
  frame.to = r.str16();
  frame.kind = r.str16();
  if (raw_type == static_cast<std::uint16_t>(FrameType::kAnnounce)) {
    frame.type = FrameType::kAnnounce;
    const std::uint32_t n = r.count32(2);
    frame.announce_endpoints.reserve(n);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i)
      frame.announce_endpoints.push_back(r.str16());
  } else if (raw_type == static_cast<std::uint16_t>(FrameType::kDataBlocks)) {
    frame.type = FrameType::kDataBlocks;
    std::vector<std::uint32_t> payload_sizes;
    if (!get_data_blocks_prefix(r, frame.data_blocks, payload_sizes)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
    for (std::size_t i = 0; i < payload_sizes.size(); ++i)
      frame.data_blocks.blocks[i].payload = r.bytes(payload_sizes[i]);
  } else if (raw_type == static_cast<std::uint16_t>(FrameType::kDataDegrade)) {
    frame.type = FrameType::kDataDegrade;
    if (!get_degrade(r, frame.degrade)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (raw_type == static_cast<std::uint16_t>(FrameType::kObsScrape)) {
    frame.type = FrameType::kObsScrape;
    if (!get_obs_scrape(r, frame.obs_scrape)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (raw_type == static_cast<std::uint16_t>(FrameType::kObsSnapshot)) {
    frame.type = FrameType::kObsSnapshot;
    if (!get_obs_snapshot(r, frame.obs_snapshot)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (raw_type == static_cast<std::uint16_t>(FrameType::kShardHello)) {
    frame.type = FrameType::kShardHello;
    if (!get_shard_hello(r, frame.shard_hello)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (raw_type ==
             static_cast<std::uint16_t>(FrameType::kCapacityDigest)) {
    frame.type = FrameType::kCapacityDigest;
    if (!get_capacity_digest(r, frame.capacity_digest)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (raw_type ==
             static_cast<std::uint16_t>(FrameType::kDelegateRequest)) {
    frame.type = FrameType::kDelegateRequest;
    if (!get_delegate_request(r, frame.delegate_request)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (raw_type ==
             static_cast<std::uint16_t>(FrameType::kDelegateReply)) {
    frame.type = FrameType::kDelegateReply;
    if (!get_delegate_reply(r, frame.delegate_reply)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (raw_type ==
             static_cast<std::uint16_t>(FrameType::kDomainHandoff)) {
    frame.type = FrameType::kDomainHandoff;
    if (!get_domain_handoff(r, frame.domain_handoff)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else if (is_message_frame(static_cast<FrameType>(raw_type))) {
    frame.type = static_cast<FrameType>(raw_type);
    if (!get_body(r, frame.type, frame.message)) {
      result.status = DecodeStatus::kMalformedBody;
      return result;
    }
  } else {
    result.status = DecodeStatus::kUnknownType;
    return result;
  }
  if (!r.ok() || !r.exhausted()) {
    // Short body or trailing garbage: the schema and the length prefix
    // disagree.
    result.status = DecodeStatus::kMalformedBody;
    return result;
  }
  result.status = DecodeStatus::kOk;
  result.frame = std::move(frame);
  result.raw = data;
  result.raw_size = frame_bytes;
  return result;
}

std::optional<FederationOrigin> federation_origin(const Frame& frame) noexcept {
  switch (frame.type) {
    case FrameType::kShardHello:
      return FederationOrigin{frame.shard_hello.shard, frame.shard_hello.epoch,
                              frame.shard_hello.standby};
    case FrameType::kCapacityDigest:
      return FederationOrigin{frame.capacity_digest.shard,
                              frame.capacity_digest.epoch, false};
    case FrameType::kDelegateRequest:
      return FederationOrigin{frame.delegate_request.shard,
                              frame.delegate_request.epoch, false};
    case FrameType::kDelegateReply:
      return FederationOrigin{frame.delegate_reply.shard,
                              frame.delegate_reply.epoch, false};
    case FrameType::kDomainHandoff:
      return FederationOrigin{frame.domain_handoff.domain,
                              frame.domain_handoff.epoch, false};
    default:
      return std::nullopt;
  }
}

GatherFrame encode_data_blocks_gather(
    const Frame& frame, const std::vector<PayloadRef>& payloads) {
  if (frame.type != FrameType::kDataBlocks)
    throw std::invalid_argument("wire: gather encode needs a kDataBlocks frame");
  const DataBlocksBody& body = frame.data_blocks;
  if (payloads.size() != body.blocks.size())
    throw std::invalid_argument("wire: one PayloadRef per block required");

  GatherFrame gather;
  std::vector<std::uint8_t>& out = gather.head;
  out.reserve(kWireHeaderBytes + 64 + body.blocks.size() * 64);
  Writer w(out);
  w.u32(kWireMagic);
  w.u32(0);  // CRC placeholder
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(frame.type));
  w.u32(0);  // payload_len placeholder
  w.u8(static_cast<std::uint8_t>(frame.priority));
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u64(frame.trace_id);
  w.str16(frame.from);
  w.str16(frame.to);
  w.str16(frame.kind);
  w.u32(body.owner);
  w.u64(body.batch_seq);
  w.u8(static_cast<std::uint8_t>(body.mode));
  w.f64(body.keep_probability);
  put_trace(w, body.trace);
  w.u32(static_cast<std::uint32_t>(body.blocks.size()));
  std::size_t payload_run = 0;
  for (std::size_t i = 0; i < body.blocks.size(); ++i) {
    const DataBlock& block = body.blocks[i];
    if (!block.payload.empty())
      throw std::invalid_argument(
          "wire: gather blocks must carry payloads by reference only");
    if (payloads[i].size != payload_bytes_for(block.descriptor.bit_count))
      throw std::invalid_argument(
          "wire: PayloadRef size does not match bit_count");
    put_descriptor(w, block.descriptor, payloads[i].size);
    payload_run += payloads[i].size;
  }
  const std::size_t payload_len =
      out.size() - kWireHeaderBytes + payload_run;
  if (payload_len > kMaxPayloadBytes)
    throw std::invalid_argument("wire: frame payload exceeds kMaxPayloadBytes");
  write_at_u32(out, 12, static_cast<std::uint32_t>(payload_len));
  // Stream the CRC across head + segments: the receiver sees one contiguous
  // frame, so the checksum must span the same bytes in the same order.
  std::uint32_t crc = crc32_init();
  crc = crc32_update(crc, out.data() + 8, out.size() - 8);
  for (const PayloadRef& payload : payloads)
    crc = crc32_update(crc, payload.data, payload.size);
  write_at_u32(out, 4, crc32_final(crc));
  gather.segments = payloads;
  return gather;
}

void FrameBuffer::append(const void* data, std::size_t size) {
  // Compact before growing: keeps the steady-state footprint at one frame.
  if (offset_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

DecodeResult FrameBuffer::next() {
  DecodeResult result =
      decode_frame(buffer_.data() + offset_, buffer_.size() - offset_);
  offset_ += result.consumed;
  return result;
}

void FrameBuffer::clear() noexcept {
  buffer_.clear();
  offset_ = 0;
}

}  // namespace dust::wire
