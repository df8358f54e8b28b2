// Discrete-event simulator driver.
//
// Owns the clock and the event queue. Components schedule callbacks either
// at absolute times (schedule_at) or relative delays (schedule_after), and
// move a pending one to a new time in place (reschedule_at) instead of
// cancelling it and scheduling a copy; run_until() / run_to_completion()
// pop and dispatch one event at a time, in deterministic (time, insertion)
// order. Single-threaded by design: an
// HPC storage server simulation at this granularity is dominated by event
// dispatch, and determinism is worth more than parallel speedup for
// reproducing figures.
//
// Periodic timers live in their own slot pool: each tick re-arms through a
// tiny {index, generation} trampoline and calls the stored callback in
// place, so a periodic costs zero heap allocations per period — the old
// design copied a std::function every tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace adaptbf {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when`; `when` must not be in the past.
  EventHandle schedule_at(SimTime when, EventCallback fn);

  /// Schedules `fn` after a non-negative delay from now().
  EventHandle schedule_after(SimDuration delay, EventCallback fn);

  /// Schedules `fn` every `period` (must be strictly positive — a zero
  /// period would re-arm at the same timestamp forever), first firing at
  /// now() + period, until the returned handle is cancelled via
  /// cancel_periodic(). The callback runs before the next period is armed,
  /// so a callback may cancel itself.
  struct PeriodicHandle {
    std::uint32_t index = EventHandle::kInvalidIndex;
    std::uint64_t generation = 0;
  };
  PeriodicHandle schedule_periodic(SimDuration period, EventCallback fn);
  void cancel_periodic(PeriodicHandle handle);

  bool cancel(EventHandle handle) { return queue_.cancel(handle); }

  /// Moves a pending one-shot event to absolute time `when` (not in the
  /// past) in place, keeping its handle; the event draws a fresh sequence
  /// number, so dispatch order is that of cancel() plus schedule_at().
  /// Returns false, changing nothing, for a stale handle.
  bool reschedule_at(EventHandle handle, SimTime when);

  /// True while the referenced one-shot event is still pending; stale
  /// handles (fired/cancelled) answer false in O(1).
  [[nodiscard]] bool pending(EventHandle handle) const {
    return queue_.pending(handle);
  }

  /// Runs all events with time <= deadline; clock ends at exactly deadline.
  void run_until(SimTime deadline);

  /// Runs until no events remain.
  void run_to_completion();

  /// Rewinds the simulator to its freshly-constructed state — clock at
  /// zero, no pending events or periodics, counters zeroed, dispatch hook
  /// cleared — while keeping every arena (event slots, heap,
  /// periodic pool) warm at capacity. Handles from before the reset stay
  /// safely stale. This is what lets a sweep worker run every trial of a
  /// lease on one simulator instead of rebuilding the pools per trial.
  void reset();

  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Pre-sizes the event arena: a workload with at most `events` concurrent
  /// pending events then runs allocation-free for the simulator's lifetime.
  void reserve_events(std::size_t events) { queue_.reserve(events); }

  [[nodiscard]] const EventQueue::Stats& queue_stats() const {
    return queue_.stats();
  }
  [[nodiscard]] std::size_t event_pool_slots() const {
    return queue_.pool_slots();
  }

  /// Observer called once per dispatched event with (fire time, sequence
  /// number), before the callback runs. The sequence number is assigned in
  /// schedule order, so the stream of (time, seq) pairs pins the exact
  /// dispatch order — the determinism contract the golden-trace tests hash.
  using DispatchHook = std::function<void(SimTime, std::uint64_t)>;
  void set_dispatch_hook(DispatchHook hook) { dispatch_hook_ = std::move(hook); }

 private:
  struct PeriodicSlot {
    SimDuration period;
    EventCallback fn;
    EventHandle armed;  ///< The pending tick event (stale while firing).
    std::uint64_t generation = 0;
    std::uint32_t next_free = EventHandle::kInvalidIndex;
    bool live = false;
  };

  void arm_periodic(std::uint32_t index, std::uint64_t generation);
  void fire_periodic(std::uint32_t index, std::uint64_t generation);
  void dispatch(EventQueue::Fired& fired);

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t dispatched_ = 0;
  DispatchHook dispatch_hook_;
  std::vector<PeriodicSlot> periodics_;
  std::uint32_t periodic_free_head_ = EventHandle::kInvalidIndex;
};

}  // namespace adaptbf
