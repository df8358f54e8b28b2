// Pending-event set for the discrete-event simulator.
//
// Allocation-free core: events live in a slab of pooled slots addressed by
// {index, generation} handles, ordered by (time, sequence) in a 4-ary
// implicit min-heap with heap back-pointers — O(log4 n) schedule and
// cancel. The sequence number breaks time ties in insertion order, which
// makes event processing fully deterministic regardless of heap internals
// — a requirement for reproducible experiments and for the golden-trace
// tests that assert bit-identical dispatch streams.
//
// Cancellation is eager with no hash sets: the slot's back-pointer locates
// the heap entry directly, and the slot's generation counter is bumped on
// release so stale handles (fired or already-cancelled events) are
// rejected in O(1). The same back-pointer lets reschedule() move a pending
// event to a new time in place, under a fresh sequence number, where a
// cancel plus a schedule would release and re-acquire its slot.
// Steady-state scheduling performs zero heap allocations: slots are
// recycled through a free list, and EventCallback stores small callables
// inline (see kInlineCapacity), falling back to the heap only for
// oversized captures (counted per queue in Stats::callback_heap_spills).
//
// Dispatch pops one event at a time (pop): the heap root leaves the heap
// and its slot is released before the callback runs, so the callback sees
// its own handle as stale. The dispatch order is exactly the (time, seq)
// order: a same-time event scheduled from a callback draws a larger
// sequence number than every pending one, and cancel() unlinks eagerly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace adaptbf {

/// Move-only callable with small-buffer optimization. Replaces
/// std::function in the event hot path: any callable whose captures fit
/// kInlineCapacity bytes (and is nothrow-movable) is stored inline in the
/// event slot, so scheduling it allocates nothing.
class EventCallback {
 public:
  /// Sized to hold every steady-state callback in the simulator inline
  /// (the largest is an RPC completion: Rpc + two SimTimes + a pointer).
  static constexpr std::size_t kInlineCapacity = 80;

  EventCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like std::function.
  EventCallback(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      if (ops_ != nullptr) ops_->destroy(storage_);
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() {
    if (ops_ != nullptr) ops_->destroy(storage_);
  }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable's captures exceeded kInlineCapacity and
  /// spilled to the heap. EventQueue::schedule counts spills per queue
  /// (Stats::callback_heap_spills), so parallel sweep workers each see
  /// their own numbers.
  [[nodiscard]] bool heap_allocated() const {
    return ops_ != nullptr && ops_->on_heap;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs dst from src, then destroys src (nothrow).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool on_heap;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); },
      false};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* storage) { (**std::launder(reinterpret_cast<Fn**>(storage)))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* storage) { delete *std::launder(reinterpret_cast<Fn**>(storage)); },
      true};

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// Generation-tagged reference to a pending event. Handles become stale the
/// moment the event fires or is cancelled (the slot's generation is bumped
/// on release), so holding one past its event's lifetime is always safe:
/// cancel()/pending() on a stale handle are harmless O(1) no-ops.
struct EventHandle {
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  std::uint32_t index = kInvalidIndex;
  /// 64-bit so a recycled slot can never wrap back to a stale handle's
  /// generation, even over arbitrarily deep simulation horizons.
  std::uint64_t generation = 0;

  [[nodiscard]] constexpr bool valid() const { return index != kInvalidIndex; }
};

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`. Returns a handle usable by
  /// cancel()/pending(); the handle goes stale once the event fires.
  EventHandle schedule(SimTime when, EventCallback fn);

  /// Cancels a pending event with no hashing, in O(log4 n). Returns false
  /// if the handle is stale (event already fired or already cancelled).
  bool cancel(EventHandle handle);

  /// Moves a pending event to time `when` under a fresh sequence number,
  /// in place: it keeps its slot, callback and handle, in O(log4 n). The
  /// sequence number is drawn exactly as schedule() draws one, so a
  /// reschedule dispatches in the (time, seq) order that cancel() followed
  /// by schedule() of the same callback would give. Returns false, changing
  /// nothing, if the handle is stale.
  bool reschedule(EventHandle handle, SimTime when);

  /// True while the referenced event is still pending.
  [[nodiscard]] bool pending(EventHandle handle) const {
    return handle.valid() && handle.index < slots_.size() &&
           slots_[handle.index].generation == handle.generation;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Pending events.
  [[nodiscard]] std::size_t live() const { return heap_.size(); }

  /// Time of the earliest pending event, in O(1); SimTime::max() when the
  /// queue is empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? SimTime::max() : slots_[heap_[0]].time;
  }

  struct Fired {
    SimTime time;
    std::uint64_t seq = 0;  ///< Schedule-order sequence number (tie-break key).
    EventCallback fn;
  };

  /// Moves the earliest pending event — least (time, seq) — into `out` and
  /// releases its slot, so its handle is stale before the callback runs.
  /// Returns false, leaving `out` untouched, when the queue is empty.
  bool pop(Fired& out);

  /// Drops every pending event (destroying its callback state) and rewinds
  /// the sequence counter, but keeps all storage — slot slab and heap
  /// array — at capacity. A reset queue is observationally identical to a
  /// freshly constructed one (same (time, seq) dispatch order for any
  /// subsequent operation sequence), except that old handles stay safely
  /// stale: slot generations are never rewound. This is what lets one
  /// sweep worker reuse a single warmed arena across every trial of a
  /// lease.
  void reset();

  /// Pre-sizes the slot pool and heap so a workload of up to `events`
  /// concurrent events runs without any further allocation.
  void reserve(std::size_t events);

  /// scheduled == fired + cancelled + live() at all times: a reschedule
  /// moves an event without scheduling or cancelling one.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rescheduled = 0;
    /// Times the slot pool or heap had to grow. Flat in steady state:
    /// slots are recycled through the free list.
    std::uint64_t pool_reallocations = 0;
    /// Scheduled callbacks whose captures exceeded
    /// EventCallback::kInlineCapacity and spilled to the heap. Per queue,
    /// so parallel sweep workers never alias each other's counts.
    std::uint64_t callback_heap_spills = 0;
  };
  /// Per-queue operation counters. reset() zeroes them: stats are
  /// per-trial when the arena is reused.
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pool_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNil = EventHandle::kInvalidIndex;

  struct Slot {
    SimTime time;
    std::uint64_t seq = 0;
    EventCallback fn;
    std::uint64_t generation = 0;
    /// Heap position while pending; next free slot index while free.
    std::uint32_t pos_or_next = kNil;
  };

  /// True when event `a` must fire strictly before `b`.
  [[nodiscard]] bool earlier(const Slot& a, const Slot& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  void heap_insert(std::uint32_t index);
  void remove_heap_at(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
  std::vector<std::uint32_t> heap_;  ///< 4-ary implicit heap of slot indices.
};

}  // namespace adaptbf
