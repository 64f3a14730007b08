// Flight recorder: a fixed-capacity lock-free ring of typed structured
// events, recorded from every layer of the control plane (placement cycle
// boundaries, solver outcomes, message tx/rx/drop with cause, role
// transitions, cache behaviour, watchdog alerts). It is the post-mortem
// counterpart of the metric registry: counters tell you *how much*, the
// recorder tells you *what happened last*, in order, with trace IDs linking
// events back to the causal span trees (obs/trace.hpp).
//
// dust::check attaches the recorder tail to every invariant failure and
// shrunk repro (DESIGN.md §10); `write_flight_text` renders the ring as a
// human-readable timeline.
//
// Message hops (tx/rx/drop), the bulk of the events, are recorded without
// text: record_hop() stores the two endpoint label ids (intern_hop_label),
// the message kind inline and the drop cause as an enum, and snapshot()
// renders the detail "[<cause>: ]<kind> <from>><to>" on read.
//
// Concurrency: record() claims a sequence number with one fetch_add, writes
// the event payload as relaxed per-word atomic stores, then publishes the
// slot with a release store of seq+1. snapshot() validates each slot's
// stamp before and after copying, dropping slots a writer raced past. All
// payload access is through atomics (no torn reads at the memory-model
// level); if two writers collide on the same slot a full capacity apart,
// the loser's fields can interleave — acceptable for a diagnostic ring,
// impossible in the single-threaded simulator.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace dust::obs {

enum class FlightEventKind : std::uint8_t {
  kCycleStart,       ///< placement cycle began (value = cycle index)
  kCycleEnd,         ///< placement cycle ended (value = offloads created)
  kSolverOutcome,    ///< detail = status, value = objective
  kMessageTx,        ///< transport send accepted (detail = kind from>to)
  kMessageRx,        ///< delivery (not emitted by sim::Transport, which
                     ///< records msg_tx + msg_drop and implies delivery)
  kMessageDrop,      ///< dropped; detail leads with the cause
  kRoleChange,       ///< node role transition (detail = "old>new")
  kOffloadCreated,   ///< node = busy, peer = destination, value = amount
  kOffloadAcked,     ///< busy node acknowledged (node = busy)
  kRetransmit,       ///< unacked Offload-Request re-sent (value = attempt)
  kKeepaliveFailure, ///< destination declared dead (node = destination)
  kReplicaSubstitution,  ///< node = failed destination, peer = replica
  kRelease,          ///< offload torn down (node = busy, peer = destination)
  kCacheStats,       ///< per-cycle Trmin cache delta (value=hits, peer=misses)
  kAlert,            ///< watchdog alert (detail = rule, value = observed)
  kInvariantViolation,  ///< dust::check tripped (detail = invariant)
  kCustom,
};

[[nodiscard]] const char* to_string(FlightEventKind kind) noexcept;

/// Why a message hop was dropped (the prefix of a kMessageDrop detail);
/// kNone for tx and rx hops.
enum class DropCause : std::uint8_t {
  kNone,
  kLoss,         ///< "loss": the transport's loss draw
  kPartition,    ///< "partition": destination partitioned
  kCongestion,   ///< "congestion": kLow traffic under congestion
  kNoEndpoint,   ///< "no_endpoint": nobody registered under the name
  kQueueFull,    ///< "queue_full": shed at a socket's outbound cap
};

[[nodiscard]] const char* to_string(DropCause cause) noexcept;

/// Id of one endpoint label in the process-wide hop label table.
using HopLabel = std::uint32_t;

/// Intern the text hop details show for an endpoint ("M", "c3", or a full
/// endpoint name) together with the node id its hop events report
/// (FlightEvent::kNoNode for none). Takes a lock, so transports call it once
/// per endpoint, not per message. Ids are never reused; an equal (text,
/// node) pair returns the same id.
[[nodiscard]] HopLabel intern_hop_label(std::string_view text,
                                        std::int32_t node);

struct FlightEvent {
  static constexpr std::size_t kDetailCapacity = 32;  ///< incl. NUL
  static constexpr std::int32_t kNoNode = -1;

  std::uint64_t seq = 0;   ///< global order of recording
  FlightEventKind kind = FlightEventKind::kCustom;
  std::int64_t sim_ms = -1;
  std::uint64_t trace_id = 0;  ///< 0 = not tied to a causal trace
  std::int32_t node = kNoNode;
  std::int32_t peer = kNoNode;
  double value = 0.0;
  char detail[kDetailCapacity] = {};  ///< NUL-terminated, truncating
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event. No-op while obs::enabled() is false. Lock-free and
  /// allocation-free; `detail` is truncated to kDetailCapacity - 1 chars.
  void record(FlightEventKind kind, std::int64_t sim_ms,
              std::uint64_t trace_id, std::int32_t node, std::int32_t peer,
              double value, std::string_view detail) noexcept;

  /// Convenience for events with no endpoints or value.
  void record(FlightEventKind kind, std::int64_t sim_ms,
              std::string_view detail) noexcept {
    record(kind, sim_ms, 0, FlightEvent::kNoNode, FlightEvent::kNoNode, 0.0,
           detail);
  }

  /// One message hop (kMessageTx / kMessageRx / kMessageDrop), recorded
  /// without formatting: node and peer come from the `from` / `to` labels,
  /// and the detail reads "[<cause>: ]<message_kind> <from>><to>" ("?" for
  /// an empty kind), cut like any detail. No-op while obs::enabled() is
  /// false; lock-free and allocation-free.
  void record_hop(FlightEventKind kind, std::int64_t sim_ms,
                  std::uint64_t trace_id, HopLabel from, HopLabel to,
                  std::string_view message_kind,
                  DropCause cause = DropCause::kNone) noexcept;

  /// All currently held events, oldest first. Slots a writer was mutating
  /// during the copy are skipped.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// The most recent `n` events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> tail(std::size_t n) const;

  /// Total events ever recorded (including those the ring has evicted).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Empty the ring. NOT safe against concurrent writers — call from test
  /// setup / scenario-run boundaries only.
  void clear() noexcept;

  /// Process-wide recorder the built-in instrumentation writes to.
  static FlightRecorder& global();

 private:
  // An event is stored as fixed 64-bit words so every payload access is an
  // atomic word op (see header comment): seq, kind | format << 8 | cause <<
  // 16, sim_ms, trace_id, then either node | peer << 32, value and the 32
  // detail bytes (a text event) or from | to << 32, an unused word and the
  // message kind's first 31 chars (a hop event).
  static constexpr std::size_t kWords = 10;
  static constexpr std::size_t kTextWords = 4;
  static_assert(FlightEvent::kDetailCapacity == kTextWords * 8);
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< seq + 1 once published
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  /// Claim a sequence number, write `words` (words[0] is set to the seq)
  /// and publish the slot.
  void publish(std::uint64_t (&words)[kWords]) noexcept;

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> cursor_{0};
};

/// Human-readable timeline, one event per line, oldest first.
void write_flight_text(const std::vector<FlightEvent>& events,
                       std::ostream& os);
[[nodiscard]] std::string flight_text(const std::vector<FlightEvent>& events);

}  // namespace dust::obs
