#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace dust::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&order] { order.push_back(3); });
  sim.schedule(10, [&order] { order.push_back(1); });
  sim.schedule(20, [&order] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule(100, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int ran = 0;
  sim.schedule(10, [&ran] { ++ran; });
  sim.schedule(20, [&ran] { ++ran; });
  sim.schedule(21, [&ran] { ++ran; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<TimeMs> fired;
  sim.schedule(10, [&] {
    fired.push_back(sim.now());
    sim.schedule(5, [&] { fired.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<TimeMs>{10, 15}));
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleInPastThrows) {
  Simulator sim;
  sim.schedule(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  int ran = 0;
  sim.schedule(10, [&ran] { ++ran; });
  sim.clear();
  sim.run();
  EXPECT_EQ(ran, 0);
}

// The event core publishes dust_sim_events_total and dust_sim_pending_events
// once per run_until()/run() call, not per event.
TEST(SimulatorMetrics, EventsAndPendingReadBackFromRegistry) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  registry.reset();
  Simulator sim;
  for (TimeMs t = 0; t < 5; ++t) sim.schedule(t * 10, [] {});
  sim.schedule(9000, [] {});  // beyond the ring's span
  EXPECT_EQ(registry.counter("dust_sim_events_total").value(), 0u);
  EXPECT_EQ(sim.run_until(25), 3u);
  {
    const obs::RegistrySnapshot snap = registry.snapshot();
    ASSERT_NE(snap.find_counter("dust_sim_events_total"), nullptr);
    EXPECT_EQ(snap.find_counter("dust_sim_events_total")->value, 3u);
    ASSERT_NE(snap.find_gauge("dust_sim_pending_events"), nullptr);
    EXPECT_DOUBLE_EQ(snap.find_gauge("dust_sim_pending_events")->value, 3.0);
  }
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(registry.counter("dust_sim_events_total").value(), 6u);
  EXPECT_DOUBLE_EQ(registry.gauge("dust_sim_pending_events").value(), 0.0);
  registry.reset();
}

TEST(PeriodicTask, FiresOnPeriod) {
  Simulator sim;
  std::vector<TimeMs> fired;
  PeriodicTask task(sim, 100, 50, [&fired](TimeMs t) { fired.push_back(t); });
  sim.run_until(300);
  EXPECT_EQ(fired, (std::vector<TimeMs>{100, 150, 200, 250, 300}));
}

TEST(PeriodicTask, CancelStopsFiring) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 0, 10, [&count](TimeMs) { ++count; });
  sim.run_until(35);
  EXPECT_EQ(count, 4);  // t = 0, 10, 20, 30
  task.cancel();
  EXPECT_FALSE(task.active());
  sim.run_until(100);
  EXPECT_EQ(count, 4);
}

TEST(PeriodicTask, DestructionCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, 0, 10, [&count](TimeMs) { ++count; });
    sim.run_until(15);
  }
  sim.run_until(200);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, CancelFromInsideCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(sim, 0, 10, [&](TimeMs) {
    if (++count == 3) handle->cancel();
  });
  handle = &task;
  sim.run_until(1000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, ZeroPeriodThrows) {
  Simulator sim;
  EXPECT_THROW(PeriodicTask(sim, 0, 0, [](TimeMs) {}), std::invalid_argument);
}

// --- Differential test against the (when, seq) binary heap -----------------
//
// The calendar queue must run events in exactly the order of a binary heap
// keyed on (time, scheduling sequence). HeapSim is that heap, kept here as
// the reference model; HeapPeriodic is the shared-state repeating timer that
// re-arms by scheduling a fresh callback. ScheduleRunner runs seeded random
// schedules through both and the logs (event ids, times, executed counts,
// pending() counts) must match entry for entry.

class HeapSim {
 public:
  [[nodiscard]] TimeMs now() const { return now_; }
  void schedule(TimeMs delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  void schedule_at(TimeMs when, std::function<void()> fn) {
    queue_.push(Event{when, next_seq_++, std::move(fn)});
  }
  std::size_t run_until(TimeMs until) {
    std::size_t executed = 0;
    while (!queue_.empty() && queue_.top().when <= until) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.when;
      event.fn();
      ++executed;
    }
    if (now_ < until) now_ = until;
    return executed;
  }
  std::size_t run() {
    std::size_t executed = 0;
    while (!queue_.empty()) executed += run_until(queue_.top().when);
    return executed;
  }
  void clear() {
    while (!queue_.empty()) queue_.pop();
  }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    TimeMs when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  TimeMs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

class HeapPeriodic {
 public:
  HeapPeriodic(HeapSim& sim, TimeMs start, TimeMs period,
               std::function<void(TimeMs)> fn)
      : state_(std::make_shared<State>()) {
    state_->sim = &sim;
    state_->period = period;
    state_->fn = std::move(fn);
    arm(state_, start);
  }
  ~HeapPeriodic() { cancel(); }
  HeapPeriodic(const HeapPeriodic&) = delete;
  HeapPeriodic& operator=(const HeapPeriodic&) = delete;
  void cancel() { state_->cancelled = true; }

 private:
  struct State {
    HeapSim* sim = nullptr;
    TimeMs period = 0;
    std::function<void(TimeMs)> fn;
    bool cancelled = false;
  };
  static void arm(const std::shared_ptr<State>& state, TimeMs when) {
    state->sim->schedule_at(when, [state] {
      if (state->cancelled) return;
      state->fn(state->sim->now());
      if (!state->cancelled) arm(state, state->sim->now() + state->period);
    });
  }
  std::shared_ptr<State> state_;
};

/// Delays span delay-0 re-entry, same-ms bursts, the ring, and more than
/// twice its 4096 ms span (the overflow and its migration).
TimeMs draw_delay(util::Rng& rng) {
  const std::uint64_t pick = rng.below(100);
  if (pick < 20) return 0;
  if (pick < 40) return rng.range(1, 5);
  if (pick < 60) return 100 * rng.range(1, 3);  // bursts in one ms
  if (pick < 80) return rng.range(1, 5000);
  return rng.range(4000, 10000);
}

template <typename Sim, typename Periodic>
class ScheduleRunner {
 public:
  explicit ScheduleRunner(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  std::vector<std::int64_t> run() {
    for (int i = 0; i < 30; ++i) spawn(draw_delay(rng_), 0);

    // A: cancels itself from its callback after a few firings.
    const int a_fires = static_cast<int>(rng_.range(1, 8));
    a_ = std::make_unique<Periodic>(
        sim_, rng_.range(0, 300), rng_.range(1, 700), [this, a_fires](TimeMs t) {
          note(-1, t);
          if (++a_count_ == a_fires) a_->cancel();
        });
    // B: period beyond the ring, destroyed between runs with a re-arm
    // pending.
    b_ = std::make_unique<Periodic>(sim_, rng_.range(0, 5000),
                                    rng_.range(4100, 9000),
                                    [this](TimeMs t) { note(-2, t); });
    // C: schedules a one-shot at exactly its own next firing time, so the
    // child must run before the re-arm (it was scheduled first).
    const TimeMs c_period = rng_.range(1, 300);
    c_ = std::make_unique<Periodic>(
        sim_, rng_.range(0, 100), c_period, [this, c_period](TimeMs t) {
          note(-3, t);
          spawn(c_period, 3);
        });

    const int steps = static_cast<int>(rng_.range(10, 40));
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t pick = rng_.below(100);
      TimeMs until = sim_.now();
      if (pick < 40 && !scheduled_.empty()) {
        until = std::max(sim_.now(), scheduled_[rng_.below(scheduled_.size())]);
      } else if (pick < 80) {
        until = sim_.now() + rng_.range(0, 3000);
      } else if (pick < 90) {
        until = sim_.now() + rng_.range(8000, 20000);
      }
      const std::size_t executed = sim_.run_until(until);
      note(-10, static_cast<std::int64_t>(executed));
      note(-11, sim_.now());
      note(-12, static_cast<std::int64_t>(sim_.pending()));

      const std::uint64_t between = rng_.below(100);
      if (between < 5) {
        sim_.clear();
        note(-13, static_cast<std::int64_t>(sim_.pending()));
      } else if (between < 15) {
        b_.reset();
      } else if (between < 50) {
        for (int i = rng_.range(1, 10); i > 0; --i) spawn(draw_delay(rng_), 0);
      }
    }
    a_.reset();
    b_.reset();
    c_.reset();
    note(-20, static_cast<std::int64_t>(sim_.run()));
    note(-21, sim_.now());
    note(-22, static_cast<std::int64_t>(sim_.pending()));
    return log_;
  }

 private:
  void note(std::int64_t tag, std::int64_t value) {
    log_.push_back(tag);
    log_.push_back(value);
  }

  /// Schedule one event whose behaviour depends only on its id, so both
  /// simulators take the same actions as long as they run the same order.
  void spawn(TimeMs delay, int depth) {
    if (events_ >= kMaxEvents) return;
    const std::uint64_t id = events_++;
    scheduled_.push_back(sim_.now() + delay);
    sim_.schedule(delay, [this, id, depth] {
      note(static_cast<std::int64_t>(id), sim_.now());
      note(-4, static_cast<std::int64_t>(sim_.pending()));
      util::Rng rng(seed_ * 1000003 + id);
      if (rng.below(400) == 0) {
        sim_.clear();  // mid-run, from inside an event
        note(-5, static_cast<std::int64_t>(sim_.pending()));
      }
      if (depth >= 4) return;
      for (int i = static_cast<int>(rng.below(3)); i > 0; --i)
        spawn(draw_delay(rng), depth + 1);
    });
  }

  static constexpr std::uint64_t kMaxEvents = 4000;
  std::uint64_t seed_;
  util::Rng rng_;
  Sim sim_;
  std::vector<std::int64_t> log_;
  std::vector<TimeMs> scheduled_;
  std::uint64_t events_ = 0;
  std::unique_ptr<Periodic> a_;
  std::unique_ptr<Periodic> b_;
  std::unique_ptr<Periodic> c_;
  int a_count_ = 0;
};

TEST(SimulatorDifferential, MatchesBinaryHeapOnRandomSchedules) {
  std::size_t entries = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    const std::vector<std::int64_t> want =
        ScheduleRunner<HeapSim, HeapPeriodic>(seed).run();
    const std::vector<std::int64_t> got =
        ScheduleRunner<Simulator, PeriodicTask>(seed).run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " log entry " << i;
    entries += want.size();
  }
  EXPECT_GT(entries, 250u * 100u);
}

}  // namespace
}  // namespace dust::sim
