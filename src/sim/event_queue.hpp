// Discrete-event simulation core.
//
// A Simulator owns virtual time (milliseconds) and a calendar of callbacks.
// Everything in the testbed simulation — traffic ticks, agent sampling,
// protocol timers (STAT, Keepalive) — is scheduled here, so experiments are
// deterministic and run at CPU speed, not wall-clock speed.
//
// Events run in (time, scheduling order). The calendar (DESIGN.md §17) is a
// ring of per-millisecond FIFO slots covering the next kHorizonMs, plus an
// ordered overflow for later events that is moved into the ring as time
// reaches it. Scheduling and running an event inside the ring cost O(1); one
// beyond it pays an ordered-map lookup per distinct time. Once the stores
// have grown to the peak number pending, nothing allocates beyond the
// callback itself.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"

namespace dust::sim {

using TimeMs = std::int64_t;

class Simulator {
 public:
  Simulator();

  [[nodiscard]] TimeMs now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay_ms >= 0` after the current time.
  void schedule(TimeMs delay_ms, std::function<void()> fn);
  /// Schedule at an absolute time >= now().
  void schedule_at(TimeMs when_ms, std::function<void()> fn);

  /// Run events until the queue is empty or `until_ms` is passed
  /// (events exactly at until_ms are executed). Returns events executed.
  /// This and run() add to dust_sim_events_total and set
  /// dust_sim_pending_events once per call.
  std::size_t run_until(TimeMs until_ms);

  /// Run until the queue drains. Returns events executed.
  std::size_t run();

  /// Cancel everything not yet executed.
  void clear();

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  /// Number of clear() calls so far. A component that keeps state for its
  /// own pending events (sim::Transport's in-flight slots) compares it to
  /// the value it last saw to learn that those events were dropped.
  [[nodiscard]] std::uint64_t clears() const noexcept { return clears_; }

 private:
  friend class PeriodicTask;

  /// Called from inside a running event: once its callback returns, schedule
  /// that same callback again at `when_ms` >= now(), exactly as if the
  /// callback had ended with schedule_at(when_ms, <itself>). The callback is
  /// moved, not copied, so a repeating timer re-arms without allocating.
  void repeat_at(TimeMs when_ms) noexcept {
    repeat_ = true;
    repeat_at_ = when_ms;
  }

  /// Ring span: an event less than this far ahead goes straight into its
  /// millisecond slot; a later one waits in the overflow.
  static constexpr TimeMs kHorizonMs = 4096;
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// A singly linked FIFO of event nodes (indices into nodes_).
  struct Fifo {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct Node {
    std::function<void()> fn;
    std::uint32_t next = kNil;
  };
  /// Later events: one FIFO per time, in scheduling order.
  using Overflow = std::map<TimeMs, Fifo>;

  [[nodiscard]] static std::size_t slot_of(TimeMs when) noexcept {
    return static_cast<std::size_t>(when) & (kHorizonMs - 1);
  }
  void append(Fifo& fifo, std::uint32_t node) noexcept;
  /// Earliest pending event time; false when nothing is pending.
  [[nodiscard]] bool next_time(TimeMs& when) const noexcept;
  /// Move the clock to `to` and pull every overflow time now inside the
  /// ring's span into its slot.
  void advance(TimeMs to);
  std::size_t drain(TimeMs until_ms);

  TimeMs now_ = 0;
  std::size_t pending_ = 0;  ///< ring + overflow
  std::uint64_t clears_ = 0;
  std::vector<Node> nodes_;  ///< event store; free nodes chain from free_
  std::uint32_t free_ = kNil;
  std::vector<Fifo> ring_;  ///< kHorizonMs slots, one per millisecond
  std::array<std::uint64_t, kHorizonMs / 64> occupied_{};  ///< non-empty slots
  Overflow overflow_;
  std::vector<Overflow::node_type> spare_buckets_;  ///< recycled map nodes
  bool repeat_ = false;
  TimeMs repeat_at_ = 0;
  obs::Counter* events_total_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
};

/// Repeating timer helper: schedules `fn(now)` every `period_ms` starting at
/// `start_ms`, until cancel() or the simulator is cleared. Re-arming moves
/// the one callback built at construction (Simulator::repeat_at), so a
/// running timer never allocates.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, TimeMs start_ms, TimeMs period_ms,
               std::function<void(TimeMs)> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void cancel() noexcept;
  [[nodiscard]] bool active() const noexcept;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace dust::sim
