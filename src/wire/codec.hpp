// dust::wire binary codec (DESIGN.md §11).
//
// Frames every core::Message — envelope passengers included — into an
// explicit little-endian layout so DUST-Manager and DUST-Clients can live in
// separate processes ("hardware-agnostic" means nothing until bytes cross a
// process boundary). Layout:
//
//   offset size  field
//   0      4     magic 0x54535544 ("DUST" read as LE u32)
//   4      4     CRC-32 (IEEE) over bytes [8, 16 + payload_len)
//   8      2     version (kWireVersion)
//   10     2     frame type tag (FrameType)
//   12     4     payload_len — bytes following the 16-byte header
//   16     ...   payload:
//                  u8      priority (sim::Priority)
//                  u8[3]   reserved (zero)
//                  u64     trace_id
//                  str16   from      (u16 length + bytes)
//                  str16   to
//                  str16   kind
//                  ...     body, schema fixed per frame type
//
// The CRC covers everything after itself — version, type, and length
// included — so any single corrupt bit outside the magic/CRC words is
// guaranteed to surface as kBadCrc, never as a silently mis-parsed frame.
// Integrity is checked before version, and the CRC span is fixed by this
// spec for all versions, so a v1 decoder rejects an intact v2 frame with
// kBadVersion (clean negotiation signal) rather than kBadCrc.
//
// Decoding never throws and never reads out of bounds: truncated input is
// kNeedMoreData (retry with more bytes), everything else is a typed error
// with a documented resynchronisation distance (DecodeResult::consumed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "sim/priority.hpp"
#include "telemetry/sampling.hpp"

namespace dust::wire {

inline constexpr std::uint32_t kWireMagic = 0x54535544u;  // "DUST"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 16;
/// Hard ceiling on payload_len: anything larger is rejected as kOversized
/// before allocation, so a corrupt or hostile length field can never balloon
/// the receive path.
inline constexpr std::size_t kMaxPayloadBytes = 16u << 20;

/// Frame type tags. 1..10 map 1:1 onto the core::Message alternatives;
/// 100+ are transport-internal control frames that never reach a protocol
/// handler; 200+ are data-plane frames (DESIGN.md §12).
enum class FrameType : std::uint16_t {
  kOffloadCapable = 1,
  kAck = 2,
  kStat = 3,
  kOffloadRequest = 4,
  kOffloadAck = 5,
  kAgentTransfer = 6,
  kTelemetryData = 7,
  kKeepalive = 8,
  kRep = 9,
  kRelease = 10,
  /// Leaf -> hub: "these endpoint names are served over this connection".
  /// Body: u32 count + str16 names. Re-sent in full after every reconnect.
  kAnnounce = 100,
  /// Streamer -> collector: a batch of sealed Gorilla blocks. Always kLow —
  /// telemetry must never delay control traffic. Body: u32 owner, u64
  /// batch_seq, u8 mode, f64 keep_probability, u32 block_count, then all
  /// block descriptors (each ending in u32 payload_bytes), then every
  /// payload back-to-back at the tail — descriptors first so the payload
  /// run can be scatter-gathered straight out of the TSDB blocks.
  kDataBlocks = 200,
  /// Streamer -> collector: degradation state change and/or declared batch
  /// gap. Always kNormal, so the declaration outruns any queued kLow data
  /// frames and a collector learns of a gap before it could observe it.
  kDataDegrade = 201,
  /// Aggregator -> node: pull request for a metric snapshot (DESIGN.md §15).
  /// Rides kNormal so the ack it piggybacks always gets through. Body: u64
  /// scrape_seq, u64 ack_seq (last snapshot seq the scraper applied; 0 =
  /// none), u8 flags (bit0 = send a full snapshot, drop delta baselines).
  kObsScrape = 210,
  /// Node -> aggregator: one obs::SnapshotEncoder payload. Rides kLow —
  /// DUST dogfoods its own tier design; self-telemetry must never delay
  /// control traffic, and a shed reply is recovered by the ack protocol.
  /// Body: str16 node, u32 payload_bytes, opaque snapshot codec bytes.
  kObsSnapshot = 211,
  /// Manager-to-manager federation frames (DESIGN.md §16). All carry the
  /// sending shard id and its current epoch; a receiver rejects any frame
  /// whose epoch is below the latest it has seen for that shard (epoch
  /// fencing — a superseded primary can never mutate federation state).
  /// Shard heartbeat + role announce. Periodic; a standby declares the
  /// primary dead after hello_timeout_ms of silence.
  kShardHello = 220,
  /// Aggregated spare-capacity digest of one domain — totals, not per-node
  /// state (SOAR-style bounded aggregation): Σ spare, Σ excess, busy /
  /// candidate counts. O(1) per domain regardless of domain size.
  kCapacityDigest = 221,
  /// Origin shard -> neighbor: "host `amount` capacity-percent from busy
  /// node `busy` in my domain". Sent when the local solve left excess
  /// unplaced and the neighbor's digest advertised spare.
  kDelegateRequest = 222,
  /// Neighbor -> origin: grant (with the chosen destination node) or
  /// reject. One frame type; `granted` distinguishes.
  kDelegateReply = 223,
  /// Epoch-fenced ownership handoff: "domain `domain` is now owned at
  /// epoch `epoch`" — broadcast by a standby after takeover so peers fence
  /// out the dead primary and drop delegations adopted from older epochs.
  kDomainHandoff = 224,
};

[[nodiscard]] const char* to_string(FrameType type) noexcept;
[[nodiscard]] FrameType frame_type_of(const core::Message& message) noexcept;

/// Decode error taxonomy (see DESIGN.md §11 for the full table).
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kNeedMoreData,   ///< no complete frame yet — benign, wait for bytes
  kBadMagic,       ///< resync byte-by-byte (consumed = 1)
  kBadCrc,         ///< integrity failure — connection should be dropped
  kBadVersion,     ///< intact frame from an unknown protocol version
  kUnknownType,    ///< intact frame with an unrecognised type tag
  kMalformedBody,  ///< CRC passed but the body does not parse to schema
  kOversized,      ///< claimed payload_len above kMaxPayloadBytes
};

[[nodiscard]] const char* to_string(DecodeStatus status) noexcept;

/// Framing metadata for one sealed Gorilla block inside a kDataBlocks
/// batch. Everything a collector needs to rebuild and verify the block
/// without decoding it first.
struct BlockDescriptor {
  std::string series;  ///< metric name on the owning node
  std::uint64_t block_seq = 0;  ///< per-(owner, series), contiguous from 0
  std::uint32_t sample_count = 0;
  std::uint64_t bit_count = 0;  ///< encoded stream length in bits
  std::int64_t first_timestamp_ms = 0;
  std::int64_t last_timestamp_ms = 0;
  double last_value = 0.0;  ///< final sample, for adopt-without-decode
};

struct DataBlock {
  BlockDescriptor descriptor;
  /// Encoded Gorilla stream, exactly ceil(bit_count / 8) bytes. Left empty
  /// on the gather-encode path, where encode_data_blocks_gather() takes the
  /// payload bytes by reference instead.
  std::vector<std::uint8_t> payload;
};

/// kDataBlocks body.
struct DataBlocksBody {
  graph::NodeId owner = 0;  ///< node whose telemetry these blocks carry
  std::uint64_t batch_seq = 0;  ///< per-(streamer, collector), contiguous
  telemetry::DegradeMode mode = telemetry::DegradeMode::kFull;
  double keep_probability = 1.0;
  /// Causal parent of this batch (the streamer's per-batch span), so the
  /// collector can hang its ingest span under the same cross-process trace
  /// as the offload chain that placed the streamer.
  obs::TraceContext trace;
  std::vector<DataBlock> blocks;
};

/// kDataDegrade body. gap_from_batch > gap_to_batch (the default) means "no
/// gap, mode change only"; otherwise the inclusive batch_seq range was
/// dropped at the streamer under declared degradation.
struct DegradeBody {
  graph::NodeId owner = 0;
  telemetry::DegradeMode mode = telemetry::DegradeMode::kFull;
  double keep_probability = 1.0;
  std::uint64_t gap_from_batch = 1;
  std::uint64_t gap_to_batch = 0;
  std::uint32_t samples_dropped = 0;
};

/// kObsScrape body: the aggregator's pull request (and delta ack).
struct ObsScrapeBody {
  std::uint64_t scrape_seq = 0;  ///< per-(scraper, target), monotonic
  /// Snapshot seq the scraper has applied; the responder promotes its delta
  /// baseline when this matches its last sent snapshot (obs/snapshot.hpp).
  std::uint64_t ack_seq = 0;
  /// Request a full snapshot (responder drops its baselines first). Set
  /// after the aggregator rejected a delta it had no baseline for.
  bool request_full = false;
};

/// kObsSnapshot body: one encoded obs snapshot, opaque to the wire layer
/// (the schema lives in obs/snapshot.hpp so dust_obs stays wire-free).
struct ObsSnapshotBody {
  std::string node;  ///< fleet label for every metric in the payload
  std::vector<std::uint8_t> payload;
};

/// kShardHello body: shard heartbeat + role announce (DESIGN.md §16).
struct ShardHelloBody {
  std::uint32_t shard = 0;    ///< sender's shard id
  std::uint64_t epoch = 0;    ///< sender's current epoch for its domain
  bool standby = false;       ///< true = hot standby, not serving clients
  std::string endpoint;       ///< sender's federation endpoint name
};

/// kCapacityDigest body: one domain's aggregated load summary. Deliberately
/// O(1) in domain size — shards exchange totals, never per-node state.
struct CapacityDigestBody {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;      ///< per-sender, monotonic (stale digests lose)
  double spare = 0.0;         ///< Σ spare capacity over domain candidates
  double excess = 0.0;        ///< Σ excess over domain busy nodes
  std::uint32_t busy_count = 0;
  std::uint32_t candidate_count = 0;
};

/// kDelegateRequest body: offload `amount` from `busy` into your domain.
struct DelegateRequestBody {
  std::uint32_t shard = 0;  ///< origin shard
  std::uint64_t epoch = 0;  ///< origin's epoch (fenced at the receiver)
  std::uint64_t delegation_id = 0;  ///< per-origin, echoes back in the reply
  graph::NodeId busy = graph::kInvalidNode;
  double amount = 0.0;  ///< capacity-percent, pre-platform-factor
  std::uint32_t agents = 0;
  double platform_factor = 1.0;  ///< busy node's platform factor
};

/// kDelegateReply body: grant with the chosen destination, or reject.
struct DelegateReplyBody {
  std::uint32_t shard = 0;  ///< granting shard
  std::uint64_t epoch = 0;  ///< granting shard's epoch
  std::uint64_t delegation_id = 0;
  bool granted = false;
  graph::NodeId destination = graph::kInvalidNode;  ///< valid iff granted
  double amount = 0.0;  ///< capacity-percent actually reserved
};

/// kDomainHandoff body: ownership of `domain` moved to `endpoint` at
/// `epoch`. Receivers fence out lower epochs and drop delegations adopted
/// from the superseded owner.
struct DomainHandoffBody {
  std::uint32_t domain = 0;
  std::uint64_t epoch = 0;
  std::string endpoint;  ///< new owner's federation endpoint name
};

/// One frame, decoded (or about to be encoded). Exactly the information a
/// sim::Envelope carries, plus the frame type: nothing QoS- or
/// trace-relevant is lost crossing the wire.
struct Frame {
  FrameType type = FrameType::kAnnounce;
  sim::Priority priority = sim::Priority::kNormal;
  std::uint64_t trace_id = 0;
  std::string from;
  std::string to;
  std::string kind;
  core::Message message;  ///< valid for protocol frames (tags 1..10)
  std::vector<std::string> announce_endpoints;  ///< valid for kAnnounce
  DataBlocksBody data_blocks;  ///< valid for kDataBlocks
  DegradeBody degrade;         ///< valid for kDataDegrade
  ObsScrapeBody obs_scrape;    ///< valid for kObsScrape
  ObsSnapshotBody obs_snapshot;  ///< valid for kObsSnapshot
  ShardHelloBody shard_hello;          ///< valid for kShardHello
  CapacityDigestBody capacity_digest;  ///< valid for kCapacityDigest
  DelegateRequestBody delegate_request;  ///< valid for kDelegateRequest
  DelegateReplyBody delegate_reply;      ///< valid for kDelegateReply
  DomainHandoffBody domain_handoff;      ///< valid for kDomainHandoff
};

/// Build a protocol frame around `message` (type tag derived from the
/// active alternative).
[[nodiscard]] Frame message_frame(std::string from, std::string to,
                                  core::Message message,
                                  sim::Priority priority,
                                  std::string kind = {},
                                  std::uint64_t trace_id = 0);

[[nodiscard]] Frame announce_frame(std::vector<std::string> endpoints);

/// Build a kDataBlocks frame (always sim::Priority::kLow — see the QoS note
/// on the enum).
[[nodiscard]] Frame data_blocks_frame(std::string from, std::string to,
                                      DataBlocksBody body,
                                      std::uint64_t trace_id = 0);

/// Build a kDataDegrade frame (always sim::Priority::kNormal, so it outruns
/// the kLow data frames it describes).
[[nodiscard]] Frame degrade_frame(std::string from, std::string to,
                                  DegradeBody body,
                                  std::uint64_t trace_id = 0);

/// Build a kObsScrape frame (always sim::Priority::kNormal — the pull and
/// its piggybacked ack must not be shed with the telemetry they govern).
[[nodiscard]] Frame obs_scrape_frame(std::string from, std::string to,
                                     ObsScrapeBody body);

/// Build a kObsSnapshot frame (always sim::Priority::kLow — see the QoS
/// note on the enum).
[[nodiscard]] Frame obs_snapshot_frame(std::string from, std::string to,
                                       ObsSnapshotBody body);

// Federation frame builders (DESIGN.md §16). All ride kNormal: the
// manager-to-manager control plane must never be shed behind telemetry.
[[nodiscard]] Frame shard_hello_frame(std::string from, std::string to,
                                      ShardHelloBody body);
[[nodiscard]] Frame capacity_digest_frame(std::string from, std::string to,
                                          CapacityDigestBody body);
[[nodiscard]] Frame delegate_request_frame(std::string from, std::string to,
                                           DelegateRequestBody body,
                                           std::uint64_t trace_id = 0);
[[nodiscard]] Frame delegate_reply_frame(std::string from, std::string to,
                                         DelegateReplyBody body,
                                         std::uint64_t trace_id = 0);
[[nodiscard]] Frame domain_handoff_frame(std::string from, std::string to,
                                         DomainHandoffBody body);

/// True for the protocol frame types (1..10), the ones carrying a
/// core::Message.
[[nodiscard]] constexpr bool is_message_frame(FrameType type) noexcept {
  return type >= FrameType::kOffloadCapable && type <= FrameType::kRelease;
}

/// Sender of a federation frame, as its body states it: the shard (a
/// handoff's domain), that shard's epoch, and whether a standby sent it
/// (only a hello says so).
struct FederationOrigin {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
  bool standby = false;
};

/// The origin of a federation frame (kShardHello..kDomainHandoff); nothing
/// for any other frame type.
[[nodiscard]] std::optional<FederationOrigin> federation_origin(
    const Frame& frame) noexcept;

/// Borrowed view of payload bytes owned elsewhere (a sealed TSDB block).
struct PayloadRef {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// A frame encoded for scatter-gather transmission: `head` holds the wire
/// header plus everything up to the payload run; `segments` point into the
/// caller-owned block payloads. Concatenated, head + segments are
/// byte-identical to encode_frame() of the same frame with payloads inlined
/// (the CRC in head already covers the segments).
struct GatherFrame {
  std::vector<std::uint8_t> head;
  std::vector<PayloadRef> segments;
  [[nodiscard]] std::size_t total_bytes() const noexcept {
    std::size_t total = head.size();
    for (const PayloadRef& segment : segments) total += segment.size;
    return total;
  }
};

/// Gather-encode a kDataBlocks frame: `payloads[i]` supplies the bytes for
/// `frame.data_blocks.blocks[i]` (whose own payload vector must be empty and
/// whose descriptor bit_count must match payloads[i].size). The block bytes
/// are never copied into the codec buffer — the transport writes them
/// straight from the TSDB with writev. The returned segments alias
/// `payloads`' targets; they must outlive the send. Throws
/// std::invalid_argument on size mismatches.
[[nodiscard]] GatherFrame encode_data_blocks_gather(
    const Frame& frame, const std::vector<PayloadRef>& payloads);

/// Serialize. Deterministic: encoding the decode of an encoded frame is
/// byte-identical (doubles travel as raw IEEE-754 bits). Throws
/// std::invalid_argument if a string field exceeds the u16 length prefix or
/// the payload would exceed kMaxPayloadBytes.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMoreData;
  Frame frame;  ///< valid iff status == kOk
  /// Bytes to discard from the front of the buffer before the next attempt:
  /// the whole frame on kOk and on frame-local errors (kBadCrc,
  /// kBadVersion, kUnknownType, kMalformedBody), 1 on kBadMagic/kOversized
  /// (the length field cannot be trusted, resync byte-by-byte), 0 on
  /// kNeedMoreData.
  std::size_t consumed = 0;
  /// View of the encoded frame inside the caller's buffer (kOk only) —
  /// lets a router forward verbatim without re-encoding. Valid only while
  /// the caller's buffer is.
  const std::uint8_t* raw = nullptr;
  std::size_t raw_size = 0;
};

/// Try to decode one frame from the front of `data`. Never throws, never
/// reads past `size`; guaranteed to make progress (consumed > 0) on any
/// status except kNeedMoreData.
[[nodiscard]] DecodeResult decode_frame(const std::uint8_t* data,
                                        std::size_t size);

/// Stream reassembler: owns the partial-read buffer between poll wakeups.
/// Feed raw socket bytes with append(); pull complete frames with next()
/// until it reports kNeedMoreData.
class FrameBuffer {
 public:
  void append(const void* data, std::size_t size);
  /// Decode and consume the next frame (per decode_frame semantics). The
  /// DecodeResult's raw view stays valid until the next append()/next().
  [[nodiscard]] DecodeResult next();
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buffer_.size() - offset_;
  }
  void clear() noexcept;

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;  ///< bytes already consumed at the front
};

}  // namespace dust::wire
