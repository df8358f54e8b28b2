#include "sim/simulator.h"

#include <utility>

#include "support/check.h"

namespace adaptbf {

EventHandle Simulator::schedule_at(SimTime when, EventCallback fn) {
  ADAPTBF_CHECK_MSG(when >= now_, "cannot schedule into the past");
  return queue_.schedule(when, std::move(fn));
}

EventHandle Simulator::schedule_after(SimDuration delay, EventCallback fn) {
  ADAPTBF_CHECK_MSG(delay >= SimDuration(0), "negative delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

bool Simulator::reschedule_at(EventHandle handle, SimTime when) {
  ADAPTBF_CHECK_MSG(when >= now_, "cannot schedule into the past");
  return queue_.reschedule(handle, when);
}

Simulator::PeriodicHandle Simulator::schedule_periodic(SimDuration period,
                                                       EventCallback fn) {
  ADAPTBF_CHECK_MSG(period > SimDuration(0), "period must be positive");
  ADAPTBF_CHECK_MSG(static_cast<bool>(fn), "cannot schedule a null periodic");
  std::uint32_t index;
  if (periodic_free_head_ != EventHandle::kInvalidIndex) {
    index = periodic_free_head_;
    periodic_free_head_ = periodics_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(periodics_.size());
    periodics_.emplace_back();
  }
  PeriodicSlot& slot = periodics_[index];
  slot.period = period;
  slot.fn = std::move(fn);
  slot.live = true;
  const std::uint64_t generation = slot.generation;
  arm_periodic(index, generation);
  return PeriodicHandle{index, generation};
}

void Simulator::arm_periodic(std::uint32_t index, std::uint64_t generation) {
  // The armed event captures only {this, index, generation} (24 bytes):
  // it stays inline in the event slot, and the slot pair (periodic +
  // event) is reused every period — zero allocations per tick.
  const EventHandle armed = schedule_after(
      periodics_[index].period,
      [this, index, generation] { fire_periodic(index, generation); });
  periodics_[index].armed = armed;
}

void Simulator::fire_periodic(std::uint32_t index, std::uint64_t generation) {
  {
    const PeriodicSlot& slot = periodics_[index];
    if (!slot.live || slot.generation != generation) return;
  }
  // Run the callback from a local: the body may cancel this periodic
  // (releasing the slot) or register new periodics (growing the pool and
  // relocating every slot). The move is an inline relocation, not a copy.
  EventCallback fn = std::move(periodics_[index].fn);
  fn();
  PeriodicSlot& slot = periodics_[index];
  if (!slot.live || slot.generation != generation) return;  // cancelled itself
  slot.fn = std::move(fn);
  arm_periodic(index, generation);
}

void Simulator::cancel_periodic(PeriodicHandle handle) {
  if (handle.index >= periodics_.size()) return;
  PeriodicSlot& slot = periodics_[handle.index];
  if (!slot.live || slot.generation != handle.generation) return;
  // Harmless no-op when called from inside the tick itself: the armed
  // handle went stale the moment the tick was popped for dispatch.
  queue_.cancel(slot.armed);
  slot.live = false;
  ++slot.generation;  // stale-ify the handle and any in-flight tick
  slot.fn = EventCallback();
  slot.next_free = periodic_free_head_;
  periodic_free_head_ = handle.index;
}

void Simulator::dispatch(EventQueue::Fired& fired) {
  ADAPTBF_CHECK(fired.time >= now_);
  now_ = fired.time;
  ++dispatched_;
  if (dispatch_hook_) [[unlikely]] dispatch_hook_(fired.time, fired.seq);
  fired.fn();
}

void Simulator::run_until(SimTime deadline) {
  ADAPTBF_CHECK(deadline >= now_);
  EventQueue::Fired fired;
  while (queue_.next_time() <= deadline && queue_.pop(fired)) dispatch(fired);
  now_ = deadline;
}

void Simulator::run_to_completion() {
  EventQueue::Fired fired;
  while (queue_.pop(fired)) dispatch(fired);
}

void Simulator::reset() {
  queue_.reset();
  now_ = SimTime::zero();
  dispatched_ = 0;
  dispatch_hook_ = nullptr;
  // Keep the periodic pool's storage but stale-ify every slot, exactly as
  // the event slab does: generations only ever move forward, so periodic
  // handles from before the reset can never alias a new registration.
  for (PeriodicSlot& slot : periodics_) {
    if (slot.live) {
      slot.live = false;
      ++slot.generation;
    }
    slot.fn = EventCallback();
    slot.armed = EventHandle{};
  }
  periodic_free_head_ = EventHandle::kInvalidIndex;
  for (std::size_t i = periodics_.size(); i-- > 0;) {
    periodics_[i].next_free = periodic_free_head_;
    periodic_free_head_ = static_cast<std::uint32_t>(i);
  }
}

}  // namespace adaptbf
