// Deterministic discrete-event simulation core.
//
// Substitutes for the paper's 9-server physical testbed (DESIGN.md §2):
// a single virtual clock in microseconds, a seeded RNG, and an event queue
// with stable FIFO ordering among same-time events so runs replay
// bit-identically.
//
// Engine layout (DESIGN.md §2a): callbacks live in a slab of slots reused
// through a free list; the priority queue is a binary heap of 24-byte POD
// events {at, seq, slot} that index the slab. Scheduling allocates nothing
// beyond what the callback's own captures need, and popping moves the
// callback out instead of copying it. Each slot carries a generation that
// is bumped whenever the slot is released, so a TimerHandle is just
// {simulation, slot, generation} and a stale handle is a harmless no-op.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "common/types.h"

namespace sedna::sim {

class Simulation;

/// Handle for a scheduled event; cancel() prevents execution. Copies refer
/// to the same event. A handle is only a reference: it does not keep the
/// event alive, and the Simulation that issued it must outlive every call
/// made through it.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Cancels the event (every future firing, for a periodic timer). A
  /// no-op on a default handle, on an event that already fired, and on a
  /// handle whose slot has since been reused by another event.
  void cancel();
  /// True while the event is still due to fire: scheduled, not cancelled,
  /// and — for a one-shot — not yet fired. A periodic timer stays active
  /// until it is cancelled.
  [[nodiscard]] bool active() const;

 private:
  friend class Simulation;
  TimerHandle(Simulation* sim, std::uint32_t slot, std::uint64_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 2012) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Per-simulation span collector (disabled by default; see trace.h).
  [[nodiscard]] Tracer& tracer() { return tracer_; }

  /// Schedules fn to run `delay` microseconds from now. Returns a handle
  /// that can cancel the event before it fires.
  TimerHandle schedule(SimDuration delay, std::function<void()> fn) {
    return arm(delay, 0, std::move(fn));
  }

  /// Schedules fn to run every `interval`, first firing after `interval`.
  /// Cancel via the returned handle (cancels all future firings).
  TimerHandle schedule_periodic(SimDuration interval,
                                std::function<void()> fn) {
    return arm(interval, interval, std::move(fn));
  }

  /// Runs a single event. Returns false when the queue is empty.
  bool step() {
    while (!heap_.empty()) {
      const Event ev = pop();
      now_ = ev.at;
      if (slots_[ev.slot].cancelled) {
        release(ev.slot);
        continue;
      }
      fire(ev.slot);
      return true;
    }
    return false;
  }

  /// Runs until the queue drains or `max_events` fire (runaway guard).
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  /// Runs events with timestamps <= deadline; clock lands on `deadline`
  /// afterwards (even if the queue drained earlier).
  void run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().at <= deadline) {
      const Event ev = pop();
      now_ = ev.at;
      if (slots_[ev.slot].cancelled) {
        release(ev.slot);
      } else {
        fire(ev.slot);
      }
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Runs until `pred()` turns true or the queue drains. Returns pred().
  bool run_while_pending(const std::function<bool()>& pred) {
    while (!pred()) {
      if (!step()) break;
    }
    return pred();
  }

  /// Queued events, including cancelled ones not yet popped (cancellation
  /// is lazy: a cancelled event leaves the heap only when its time comes,
  /// and still advances the clock then).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

 private:
  friend class TimerHandle;

  struct Event {
    SimTime at;
    std::uint64_t seq;  // FIFO tiebreak for same-time events
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// One scheduled callback. A slot is owned by exactly one queued event
  /// from arm() until that event pops as a one-shot or as cancelled.
  struct Slot {
    std::function<void()> fn;
    /// Bumped on release; handles carrying an older value are stale.
    std::uint64_t generation = 0;
    /// 0 = one-shot; otherwise re-queued this far ahead after each firing.
    SimDuration interval = 0;
    std::uint32_t next_free = 0;
    bool cancelled = false;
  };
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  TimerHandle arm(SimDuration delay, SimDuration interval,
                  std::function<void()> fn) {
    std::uint32_t slot = free_;
    if (slot != kNoSlot) {
      free_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.interval = interval;
    s.cancelled = false;
    push(now_ + delay, slot);
    return TimerHandle{this, slot, s.generation};
  }

  void push(SimTime at, std::uint32_t slot) {
    heap_.push_back(Event{at, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn = nullptr;
    ++s.generation;
    s.next_free = free_;
    free_ = slot;
  }

  /// Runs the callback in `slot`. The callback is moved out first: it may
  /// schedule events, which can grow the slab and move every slot.
  void fire(std::uint32_t slot) {
    std::function<void()> fn = std::move(slots_[slot].fn);
    if (slots_[slot].interval == 0) {
      release(slot);
      fn();
      return;
    }
    fn();
    // Re-queued even when the callback cancelled its own timer: the next
    // firing still takes a sequence number and, when it pops as cancelled,
    // still advances the clock, exactly as in the replayed timeline.
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    push(now_ + s.interval, slot);
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  Rng rng_;
  Tracer tracer_;
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNoSlot;
};

inline void TimerHandle::cancel() {
  if (sim_ == nullptr) return;
  Simulation::Slot& s = sim_->slots_[slot_];
  if (s.generation == generation_) s.cancelled = true;
}

inline bool TimerHandle::active() const {
  if (sim_ == nullptr) return false;
  const Simulation::Slot& s = sim_->slots_[slot_];
  return s.generation == generation_ && !s.cancelled;
}

}  // namespace sedna::sim
