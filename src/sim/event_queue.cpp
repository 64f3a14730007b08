#include "sim/event_queue.hpp"

#include <bit>
#include <limits>
#include <stdexcept>

namespace dust::sim {

Simulator::Simulator() : ring_(kHorizonMs) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  events_total_ = &registry.counter("dust_sim_events_total");
  pending_gauge_ = &registry.gauge("dust_sim_pending_events");
}

void Simulator::schedule(TimeMs delay_ms, std::function<void()> fn) {
  if (delay_ms < 0) throw std::invalid_argument("Simulator: negative delay");
  schedule_at(now_ + delay_ms, std::move(fn));
}

void Simulator::schedule_at(TimeMs when_ms, std::function<void()> fn) {
  if (when_ms < now_)
    throw std::invalid_argument("Simulator: schedule in the past");
  std::uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
    nodes_[node].fn = std::move(fn);
    nodes_[node].next = kNil;
  } else {
    if (nodes_.size() >= kNil)
      throw std::length_error("Simulator: too many pending events");
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{std::move(fn), kNil});
  }
  ++pending_;
  if (when_ms - now_ < kHorizonMs) {
    const std::size_t slot = slot_of(when_ms);
    append(ring_[slot], node);
    occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    return;
  }
  // Beyond the ring: FIFO per overflow time, recycling map nodes.
  auto it = overflow_.lower_bound(when_ms);
  if (it == overflow_.end() || it->first != when_ms) {
    if (spare_buckets_.empty()) {
      it = overflow_.emplace_hint(it, when_ms, Fifo{});
    } else {
      Overflow::node_type spare = std::move(spare_buckets_.back());
      spare_buckets_.pop_back();
      spare.key() = when_ms;
      spare.mapped() = Fifo{};
      it = overflow_.insert(it, std::move(spare));
    }
  }
  append(it->second, node);
}

void Simulator::append(Fifo& fifo, std::uint32_t node) noexcept {
  if (fifo.tail == kNil)
    fifo.head = node;
  else
    nodes_[fifo.tail].next = node;
  fifo.tail = node;
}

bool Simulator::next_time(TimeMs& when) const noexcept {
  // Ring events all lie in [now_, now_ + kHorizonMs), so the first occupied
  // slot at or cyclically after now_'s holds the earliest one; every
  // overflow event is later than all of them.
  constexpr std::size_t kWords = kHorizonMs / 64;
  const std::size_t start = slot_of(now_);
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t scanned = 0; bits == 0 && scanned < kWords; ++scanned) {
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  if (bits != 0) {
    const std::size_t slot =
        word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    when = now_ + static_cast<TimeMs>((slot - start) & (kHorizonMs - 1));
    return true;
  }
  if (overflow_.empty()) return false;
  when = overflow_.begin()->first;
  return true;
}

void Simulator::advance(TimeMs to) {
  now_ = to;
  // Migration rule: an overflow time must be in its slot before anything
  // else can be scheduled there, so its (earlier-scheduled) events keep
  // their place ahead of later ones. Every time < now_ + kHorizonMs is
  // moved here, the moment now_ brings it inside the span; its slot is
  // empty, since anything scheduled there so far went to the overflow.
  while (!overflow_.empty() && overflow_.begin()->first - now_ < kHorizonMs) {
    Overflow::node_type bucket = overflow_.extract(overflow_.begin());
    const std::size_t slot = slot_of(bucket.key());
    ring_[slot] = bucket.mapped();
    occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    spare_buckets_.push_back(std::move(bucket));
  }
}

std::size_t Simulator::drain(TimeMs until_ms) {
  std::size_t executed = 0;
  TimeMs when = 0;
  while (next_time(when) && when <= until_ms) {
    if (when != now_) advance(when);
    const std::size_t slot = slot_of(when);
    Fifo& fifo = ring_[slot];
    const std::uint32_t node = fifo.head;
    fifo.head = nodes_[node].next;
    if (fifo.head == kNil) {
      fifo.tail = kNil;
      occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    // Move the callback out and free its node first: it may schedule
    // events, which can grow (and move) the node store.
    std::function<void()> fn = std::move(nodes_[node].fn);
    nodes_[node].next = free_;
    free_ = node;
    --pending_;
    fn();
    ++executed;
    if (repeat_) {
      repeat_ = false;
      schedule_at(repeat_at_, std::move(fn));
    }
  }
  events_total_->inc(executed);
  pending_gauge_->set(static_cast<double>(pending_));
  return executed;
}

std::size_t Simulator::run_until(TimeMs until_ms) {
  const std::size_t executed = drain(until_ms);
  if (now_ < until_ms) advance(until_ms);
  return executed;
}

std::size_t Simulator::run() {
  return drain(std::numeric_limits<TimeMs>::max());
}

void Simulator::clear() {
  for (Fifo& fifo : ring_) fifo = Fifo{};
  occupied_.fill(0);
  while (!overflow_.empty())
    spare_buckets_.push_back(overflow_.extract(overflow_.begin()));
  // Rebuild the free list over every node, dropping the callbacks (and
  // whatever they captured) now, as destroying the old queue did.
  free_ = kNil;
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    nodes_[i].fn = nullptr;
    nodes_[i].next = free_;
    free_ = static_cast<std::uint32_t>(i);
  }
  pending_ = 0;
  ++clears_;
}

struct PeriodicTask::State {
  Simulator* sim = nullptr;
  TimeMs period = 0;
  std::function<void(TimeMs)> fn;
  bool cancelled = false;
};

PeriodicTask::PeriodicTask(Simulator& sim, TimeMs start_ms, TimeMs period_ms,
                           std::function<void(TimeMs)> fn)
    : state_(std::make_shared<State>()) {
  if (period_ms <= 0) throw std::invalid_argument("PeriodicTask: period <= 0");
  state_->sim = &sim;
  state_->period = period_ms;
  state_->fn = std::move(fn);
  // The one callback this task ever builds. The shared state outlives the
  // task while an arm is pending (a destroyed task's pending arm runs as a
  // no-op); each firing re-arms by moving this callback back into the queue.
  sim.schedule_at(start_ms, [state = state_] {
    if (state->cancelled) return;
    Simulator& sim = *state->sim;
    state->fn(sim.now());
    if (!state->cancelled) sim.repeat_at(sim.now() + state->period);
  });
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::cancel() noexcept {
  if (state_) state_->cancelled = true;
}

bool PeriodicTask::active() const noexcept {
  return state_ && !state_->cancelled;
}

}  // namespace dust::sim
