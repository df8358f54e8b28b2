#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace adaptbf {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].pos_or_next;
    return index;
  }
  ADAPTBF_CHECK_MSG(slots_.size() < kStaged, "event slot pool exhausted");
  if (slots_.size() == slots_.capacity()) ++stats_.pool_reallocations;
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  ++slot.generation;  // stale-ify every outstanding handle
  slot.fn = EventCallback();
  slot.pos_or_next = free_head_;
  free_head_ = index;
}

EventHandle EventQueue::schedule(SimTime when, EventCallback fn) {
  ADAPTBF_CHECK_MSG(static_cast<bool>(fn), "cannot schedule a null event");
  if (fn.heap_allocated()) ++stats_.callback_heap_spills;
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.time = when;
  slot.seq = next_seq_++;
  slot.fn = std::move(fn);
  heap_insert(index);
  ++stats_.scheduled;
  return EventHandle{index, slot.generation};
}

bool EventQueue::cancel(EventHandle handle) {
  if (!pending(handle)) return false;
  Slot& slot = slots_[handle.index];
  if (slot.pos_or_next == kStaged) {
    // Staged by pop_batch but not collected yet: releasing the slot bumps
    // its generation, so collect_staged() skips the entry — the event never
    // fires, exactly as if it had been cancelled while still queued.
    release_slot(handle.index);
    --staged_live_;
    ++stats_.cancelled;
    return true;
  }
  remove_heap_at(slot.pos_or_next);
  release_slot(handle.index);
  ++stats_.cancelled;
  return true;
}

std::size_t EventQueue::pop_batch() {
  ADAPTBF_CHECK_MSG(!staging(), "pop_batch() while a batch is staged");
  ADAPTBF_CHECK_MSG(!empty(), "pop_batch() on empty event queue");
  staged_.clear();
  staged_next_ = 0;
  heap_collect_cohort(slots_[heap_[0]].time);
  heap_bulk_remove();
  std::sort(staged_.begin(), staged_.end(),
            [](const StagedEntry& a, const StagedEntry& b) {
              return a.seq < b.seq;
            });
  staged_live_ = staged_.size();
  return staged_.size();
}

bool EventQueue::collect_staged(Fired& out) {
  while (staged_next_ < staged_.size()) {
    const StagedEntry entry = staged_[staged_next_++];
    Slot& slot = slots_[entry.index];
    if (slot.generation != entry.generation) continue;  // cancelled mid-batch
    out.time = slot.time;
    out.seq = slot.seq;
    out.fn = std::move(slot.fn);
    release_slot(entry.index);
    --staged_live_;
    ++stats_.fired;
    return true;
  }
  staged_.clear();
  staged_next_ = 0;
  return false;
}

void EventQueue::reset() {
  for (const std::uint32_t index : heap_) release_slot(index);
  heap_.clear();
  for (std::size_t i = staged_next_; i < staged_.size(); ++i) {
    const StagedEntry& entry = staged_[i];
    if (slots_[entry.index].generation == entry.generation)
      release_slot(entry.index);
  }
  staged_.clear();
  staged_next_ = 0;
  staged_live_ = 0;
  next_seq_ = 0;
  stats_ = Stats{};
}

void EventQueue::reserve(std::size_t events) {
  slots_.reserve(events);
  staged_.reserve(events);
  heap_.reserve(events);
  cohort_.reserve(events);
}

void EventQueue::heap_insert(std::uint32_t index) {
  if (heap_.size() == heap_.capacity()) ++stats_.pool_reallocations;
  heap_.push_back(index);
  slots_[index].pos_or_next = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

void EventQueue::remove_heap_at(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
  }
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The relocated element may belong either direction; one of these
    // no-ops immediately.
    sift_down(pos);
    sift_up(pos);
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const std::uint32_t moving = heap_[pos];
  const Slot& slot = slots_[moving];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (earlier(slots_[heap_[parent]], slot)) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving].pos_or_next = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const std::uint32_t moving = heap_[pos];
  const Slot& slot = slots_[moving];
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::size_t limit = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    const Slot* best_slot = &slots_[heap_[first]];
    for (std::size_t child = first + 1; child < limit; ++child) {
      const Slot* child_slot = &slots_[heap_[child]];
      if (earlier(*child_slot, *best_slot)) {
        best = child;
        best_slot = child_slot;
      }
    }
    if (!earlier(*best_slot, slot)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = moving;
  slots_[moving].pos_or_next = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_collect_cohort(SimTime when) {
  // The earliest-time cohort is ancestor-closed: `when` is the heap
  // minimum, so every ancestor of an equal-time node also carries `when`.
  // A worklist scan from the root that only descends into equal-time
  // children therefore visits exactly the cohort — O(m) for a cohort of m,
  // independent of the heap size.
  cohort_.clear();
  cohort_.push_back(0);
  for (std::size_t i = 0; i < cohort_.size(); ++i) {
    const std::size_t pos = cohort_[i];
    const std::size_t first = 4 * pos + 1;
    const std::size_t limit = std::min(first + 4, heap_.size());
    for (std::size_t child = first; child < limit; ++child) {
      if (slots_[heap_[child]].time == when) {
        if (cohort_.size() == cohort_.capacity()) ++stats_.pool_reallocations;
        cohort_.push_back(static_cast<std::uint32_t>(child));
      }
    }
  }
  for (const std::size_t pos : cohort_) {
    Slot& slot = slots_[heap_[pos]];
    if (staged_.size() == staged_.capacity()) ++stats_.pool_reallocations;
    staged_.push_back({slot.seq, heap_[pos], slot.generation});
    slot.pos_or_next = kStaged;
  }
}

void EventQueue::heap_bulk_remove() {
  // Removes every cohort position in one repair pass. Holes are filled
  // from the heap tail, then sifted deepest-first: a hole's children are
  // always repaired before the hole itself, and every hole's parent is
  // itself a hole (the cohort is ancestor-closed), so sift_down alone
  // restores the invariant. The filled elements sink only into the
  // cohort-sized top region — O(log m) per event instead of the O(log n)
  // a root-replacement pop pays.
  const std::size_t m = cohort_.size();
  const std::size_t new_size = heap_.size() - m;
  std::sort(cohort_.begin(), cohort_.end());
  const auto is_hole = [this](std::size_t pos) {
    return slots_[heap_[pos]].pos_or_next == kStaged;
  };
  std::size_t spare = heap_.size();
  for (const std::size_t pos : cohort_) {
    if (pos >= new_size) break;
    do {
      --spare;
    } while (is_hole(spare));
    ADAPTBF_CHECK(spare >= new_size);
    heap_[pos] = heap_[spare];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
  }
  heap_.resize(new_size);
  for (std::size_t i = cohort_.size(); i-- > 0;) {
    if (cohort_[i] < new_size) sift_down(cohort_[i]);
  }
  cohort_.clear();
}

}  // namespace adaptbf
