#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

namespace dust::obs {

const char* to_string(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kCycleStart: return "cycle_start";
    case FlightEventKind::kCycleEnd: return "cycle_end";
    case FlightEventKind::kSolverOutcome: return "solver_outcome";
    case FlightEventKind::kMessageTx: return "msg_tx";
    case FlightEventKind::kMessageRx: return "msg_rx";
    case FlightEventKind::kMessageDrop: return "msg_drop";
    case FlightEventKind::kRoleChange: return "role_change";
    case FlightEventKind::kOffloadCreated: return "offload_created";
    case FlightEventKind::kOffloadAcked: return "offload_acked";
    case FlightEventKind::kRetransmit: return "retransmit";
    case FlightEventKind::kKeepaliveFailure: return "keepalive_failure";
    case FlightEventKind::kReplicaSubstitution: return "replica_substitution";
    case FlightEventKind::kRelease: return "release";
    case FlightEventKind::kCacheStats: return "cache_stats";
    case FlightEventKind::kAlert: return "alert";
    case FlightEventKind::kInvariantViolation: return "invariant_violation";
    case FlightEventKind::kCustom: return "custom";
  }
  return "?";
}

const char* to_string(DropCause cause) noexcept {
  switch (cause) {
    case DropCause::kNone: return "";
    case DropCause::kLoss: return "loss";
    case DropCause::kPartition: return "partition";
    case DropCause::kCongestion: return "congestion";
    case DropCause::kNoEndpoint: return "no_endpoint";
    case DropCause::kQueueFull: return "queue_full";
  }
  return "?";
}

namespace {

enum : std::uint64_t { kTextFormat = 0, kHopFormat = 1 };

/// The process-wide hop label table, kept compact because a fleet interns
/// one label per endpoint: every label's chars back to back in one string,
/// 12 bytes of entry each, and an open-addressing index of entry ids for
/// the (text, node) dedup.
class HopLabelTable {
 public:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::int32_t node = FlightEvent::kNoNode;
  };

  HopLabel intern(std::string_view label, std::int32_t node) {
    std::lock_guard lock(mutex_);
    if (2 * (entries_.size() + 1) > index_.size()) grow();
    std::size_t at = slot_of(label, node);
    while (index_[at] != 0) {
      const HopLabel id = index_[at] - 1;
      if (entries_[id].node == node && text(id) == label) return id;
      at = (at + 1) & (index_.size() - 1);
    }
    const auto id = static_cast<HopLabel>(entries_.size());
    entries_.push_back(Entry{static_cast<std::uint32_t>(chars_.size()),
                             static_cast<std::uint32_t>(label.size()), node});
    chars_.append(label);
    index_[at] = id + 1;
    return id;
  }

  /// Reads under the table lock (see lock()); views stay valid until the
  /// lock is released.
  [[nodiscard]] std::unique_lock<std::mutex> lock() {
    return std::unique_lock(mutex_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::string_view text(HopLabel id) const noexcept {
    return {chars_.data() + entries_[id].offset, entries_[id].length};
  }
  [[nodiscard]] std::int32_t node(HopLabel id) const noexcept {
    return entries_[id].node;
  }

 private:
  [[nodiscard]] std::size_t slot_of(std::string_view label,
                                    std::int32_t node) const noexcept {
    const std::size_t hash = std::hash<std::string_view>{}(label) ^
                             static_cast<std::size_t>(node) *
                                 0x9E3779B97F4A7C15ull;
    return hash & (index_.size() - 1);
  }
  void grow() {
    index_.assign(std::max<std::size_t>(64, 2 * index_.size()), 0);
    for (HopLabel id = 0; id < entries_.size(); ++id) {
      std::size_t at = slot_of(text(id), entries_[id].node);
      while (index_[at] != 0) at = (at + 1) & (index_.size() - 1);
      index_[at] = id + 1;
    }
  }

  std::mutex mutex_;
  std::string chars_;
  std::vector<Entry> entries_;
  std::vector<HopLabel> index_;  ///< entry id + 1; 0 = empty slot
};

HopLabelTable& hop_labels() {
  static HopLabelTable table;
  return table;
}

/// Up to kDetailCapacity - 1 chars of `text`, NUL-padded, as four words.
void pack_text(std::string_view text, std::uint64_t* words) noexcept {
  char buffer[FlightEvent::kDetailCapacity] = {};
  text.copy(buffer, sizeof(buffer) - 1);
  std::memcpy(words, buffer, sizeof(buffer));
}

/// The hop detail "[<cause>: ]<kind or ?> <from>><to>", cut to the
/// detail's kDetailCapacity - 1 chars.
void render_hop(DropCause cause, std::string_view kind,
                std::string_view from, std::string_view to,
                char (&detail)[FlightEvent::kDetailCapacity]) noexcept {
  std::size_t length = 0;
  const auto append = [&](std::string_view text) {
    length += text.copy(detail + length, sizeof(detail) - 1 - length);
  };
  if (cause != DropCause::kNone) {
    append(to_string(cause));
    append(": ");
  }
  append(kind.empty() ? std::string_view("?") : kind);
  append(" ");
  append(from);
  append(">");
  append(to);
  detail[length] = '\0';
}

}  // namespace

HopLabel intern_hop_label(std::string_view text, std::int32_t node) {
  return hop_labels().intern(text, node);
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::publish(std::uint64_t (&words)[kWords]) noexcept {
  const std::uint64_t seq = cursor_.fetch_add(1, std::memory_order_relaxed);
  words[0] = seq;
  Slot& slot = slots_[seq % capacity_];
  for (std::size_t w = 0; w < kWords; ++w)
    slot.words[w].store(words[w], std::memory_order_relaxed);
  slot.stamp.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::record(FlightEventKind kind, std::int64_t sim_ms,
                            std::uint64_t trace_id, std::int32_t node,
                            std::int32_t peer, double value,
                            std::string_view detail) noexcept {
#ifndef DUST_OBS_COMPILED_OUT
  if (!enabled()) return;
  std::uint64_t words[kWords];
  words[1] = static_cast<std::uint64_t>(kind) | kTextFormat << 8;
  words[2] = static_cast<std::uint64_t>(sim_ms);
  words[3] = trace_id;
  words[4] = static_cast<std::uint32_t>(node) |
             std::uint64_t{static_cast<std::uint32_t>(peer)} << 32;
  words[5] = std::bit_cast<std::uint64_t>(value);
  pack_text(detail, words + kWords - kTextWords);
  publish(words);
#else
  (void)kind; (void)sim_ms; (void)trace_id; (void)node; (void)peer;
  (void)value; (void)detail;
#endif
}

void FlightRecorder::record_hop(FlightEventKind kind, std::int64_t sim_ms,
                                std::uint64_t trace_id, HopLabel from,
                                HopLabel to, std::string_view message_kind,
                                DropCause cause) noexcept {
#ifndef DUST_OBS_COMPILED_OUT
  if (!enabled()) return;
  std::uint64_t words[kWords];
  words[1] = static_cast<std::uint64_t>(kind) | kHopFormat << 8 |
             static_cast<std::uint64_t>(cause) << 16;
  words[2] = static_cast<std::uint64_t>(sim_ms);
  words[3] = trace_id;
  words[4] = from | std::uint64_t{to} << 32;
  words[5] = 0;
  pack_text(message_kind, words + kWords - kTextWords);
  publish(words);
#else
  (void)kind; (void)sim_ms; (void)trace_id; (void)from; (void)to;
  (void)message_kind; (void)cause;
#endif
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(capacity_);
  HopLabelTable& labels = hop_labels();
  const auto lock = labels.lock();
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before == 0) continue;  // never written
    std::uint64_t words[kWords];
    for (std::size_t w = 0; w < kWords; ++w)
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    const std::uint64_t after = slot.stamp.load(std::memory_order_acquire);
    if (after != before) continue;  // writer raced past mid-copy
    if (words[0] + 1 != before) continue;  // stamp/payload mismatch
    FlightEvent event;
    event.seq = words[0];
    event.kind = static_cast<FlightEventKind>(words[1] & 0xff);
    event.sim_ms = static_cast<std::int64_t>(words[2]);
    event.trace_id = words[3];
    char text[FlightEvent::kDetailCapacity];
    std::memcpy(text, words + kWords - kTextWords, sizeof(text));
    text[sizeof(text) - 1] = '\0';
    if ((words[1] >> 8 & 0xff) == kHopFormat) {
      const auto from = static_cast<HopLabel>(words[4]);
      const auto to = static_cast<HopLabel>(words[4] >> 32);
      const auto cause = static_cast<DropCause>(words[1] >> 16 & 0xff);
      if (from >= labels.size() || to >= labels.size() ||
          cause > DropCause::kQueueFull)
        continue;  // torn by a colliding writer
      event.node = labels.node(from);
      event.peer = labels.node(to);
      render_hop(cause, text, labels.text(from), labels.text(to),
                 event.detail);
    } else {
      event.node = static_cast<std::int32_t>(words[4]);
      event.peer = static_cast<std::int32_t>(words[4] >> 32);
      event.value = std::bit_cast<double>(words[5]);
      std::memcpy(event.detail, text, sizeof(text));
    }
    out.push_back(event);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  std::vector<FlightEvent> all = snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
}

void FlightRecorder::clear() noexcept {
  for (std::size_t i = 0; i < capacity_; ++i)
    slots_[i].stamp.store(0, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void write_flight_text(const std::vector<FlightEvent>& events,
                       std::ostream& os) {
  for (const FlightEvent& event : events) {
    os << '#' << event.seq << " t=";
    if (event.sim_ms >= 0)
      os << event.sim_ms << "ms";
    else
      os << '?';
    os << ' ' << to_string(event.kind);
    if (event.detail[0] != '\0') os << " [" << event.detail << ']';
    if (event.node != FlightEvent::kNoNode) {
      os << " node=" << event.node;
      if (event.peer != FlightEvent::kNoNode) os << " peer=" << event.peer;
    }
    if (event.value != 0.0) os << " value=" << event.value;
    if (event.trace_id != 0) os << " trace=" << event.trace_id;
    os << '\n';
  }
}

std::string flight_text(const std::vector<FlightEvent>& events) {
  std::ostringstream os;
  write_flight_text(events, os);
  return os.str();
}

}  // namespace dust::obs
