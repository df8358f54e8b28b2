// EventQueue API tests: fire order, cancel verdicts, handle staleness and
// counts, then same-time callbacks and reset()-reuse in their own
// sections. Every test fires events the way Simulator does, one pop() per
// event.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "support/random.h"

namespace adaptbf {
namespace {

using Trace = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Pops up to `events` events (all of them by default), running each
/// callback, and returns the (time, seq) of every event fired in dispatch
/// order.
Trace drain(EventQueue& queue,
            std::size_t events = std::numeric_limits<std::size_t>::max()) {
  Trace fired;
  EventQueue::Fired out;
  for (; events > 0 && queue.pop(out); --events) {
    fired.emplace_back(out.time.ns(), out.seq);
    out.fn();
  }
  return fired;
}

TEST(EventQueue, EmptyAtStart) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), SimTime::max());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime(30), [&] { fired.push_back(3); });
  queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  queue.schedule(SimTime(20), [&] { fired.push_back(2); });
  drain(queue);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i)
    queue.schedule(SimTime(5), [&fired, i] { fired.push_back(i); });
  drain(queue);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventHandle handle = queue.schedule(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(10), [] {});
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(10), [] {});
  drain(queue);
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, CancelMiddleKeepsOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime(1), [&] { fired.push_back(1); });
  const EventHandle handle =
      queue.schedule(SimTime(2), [&] { fired.push_back(2); });
  queue.schedule(SimTime(3), [&] { fired.push_back(3); });
  queue.cancel(handle);
  drain(queue);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(1), [] {});
  queue.schedule(SimTime(5), [] {});
  queue.cancel(handle);
  EXPECT_EQ(queue.next_time(), SimTime(5));
}

TEST(EventQueue, LiveCountTracksCancellations) {
  EventQueue queue;
  const EventHandle a = queue.schedule(SimTime(1), [] {});
  queue.schedule(SimTime(2), [] {});
  EXPECT_EQ(queue.live(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.live(), 1u);
}

TEST(EventQueue, DefaultHandleIsInvalid) {
  EventQueue queue;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(queue.pending(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, PendingTracksLifecycle) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(10), [] {});
  EXPECT_TRUE(queue.pending(handle));
  drain(queue);
  EXPECT_FALSE(queue.pending(handle));
}

TEST(EventQueue, StaleHandleAgainstReusedSlotFails) {
  EventQueue queue;
  const EventHandle first = queue.schedule(SimTime(10), [] {});
  drain(queue);
  // The pool reuses the released slot; the old handle's generation is
  // behind, so it must not cancel the new occupant.
  const EventHandle second = queue.schedule(SimTime(20), [] {});
  ASSERT_EQ(second.index, first.index);
  EXPECT_NE(second.generation, first.generation);
  EXPECT_FALSE(queue.pending(first));
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_TRUE(queue.pending(second));
  EXPECT_TRUE(queue.cancel(second));
}

TEST(EventQueue, SequencesAssignedInScheduleOrder) {
  EventQueue queue;
  queue.schedule(SimTime(30), [] {});
  queue.schedule(SimTime(10), [] {});
  queue.schedule(SimTime(20), [] {});
  EXPECT_EQ(drain(queue), (Trace{{10, 1}, {20, 2}, {30, 0}}));
}

TEST(EventQueue, StatsCountOperations) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime(1), [] {});
  queue.schedule(SimTime(2), [] {});
  queue.cancel(handle);
  drain(queue);
  EXPECT_EQ(queue.stats().scheduled, 2u);
  EXPECT_EQ(queue.stats().cancelled, 1u);
  EXPECT_EQ(queue.stats().fired, 1u);
}

// Two queues take the same seeded script; one moves events with cancel()
// plus schedule() of the same callback, the other with reschedule(). Both
// must fire the same callbacks at the same (time, seq), and the moving
// queue must count moves, not schedules and cancels.
TEST(EventQueue, RescheduleTracesLikeCancelThenSchedule) {
  EventQueue paired;
  EventQueue moved;
  std::vector<int> paired_fired;
  std::vector<int> moved_fired;
  std::vector<EventHandle> paired_handles;
  std::vector<EventHandle> moved_handles;
  const auto record = [](std::vector<int>& fired, int id) {
    return [&fired, id] { fired.push_back(id); };
  };
  Xoshiro256 rng(0x7e5c);
  for (int id = 0; id < 64; ++id) {
    const SimTime when(static_cast<std::int64_t>(rng.next_in(0, 99)));
    paired_handles.push_back(paired.schedule(when, record(paired_fired, id)));
    moved_handles.push_back(moved.schedule(when, record(moved_fired, id)));
  }
  Trace paired_trace;
  Trace moved_trace;
  int moves = 0;
  for (int step = 0; step < 400; ++step) {
    if (rng.next_in(0, 7) == 0) {
      paired_trace.insert(paired_trace.end(), drain(paired, 1).front());
      moved_trace.insert(moved_trace.end(), drain(moved, 1).front());
      if (paired.empty()) break;
      continue;
    }
    const auto id = static_cast<int>(rng.next_in(0, 63));
    const SimTime when(static_cast<std::int64_t>(rng.next_in(100, 199)) + step);
    ASSERT_EQ(paired.pending(paired_handles[id]),
              moved.pending(moved_handles[id]));
    if (!paired.pending(paired_handles[id])) {
      EXPECT_FALSE(moved.reschedule(moved_handles[id], when));
      continue;
    }
    paired.cancel(paired_handles[id]);
    paired_handles[id] = paired.schedule(when, record(paired_fired, id));
    const EventHandle before = moved_handles[id];
    ASSERT_TRUE(moved.reschedule(moved_handles[id], when));
    EXPECT_TRUE(moved.pending(before));  // the handle survives the move
    ++moves;
  }
  const Trace paired_rest = drain(paired);
  const Trace moved_rest = drain(moved);
  paired_trace.insert(paired_trace.end(), paired_rest.begin(),
                      paired_rest.end());
  moved_trace.insert(moved_trace.end(), moved_rest.begin(), moved_rest.end());
  EXPECT_EQ(moved_trace, paired_trace);
  EXPECT_EQ(moved_fired, paired_fired);
  EXPECT_EQ(moved_fired.size(), 64u);
  EXPECT_GT(moves, 100);
  EXPECT_EQ(moved.stats().rescheduled, static_cast<std::uint64_t>(moves));
  EXPECT_EQ(moved.stats().scheduled, 64u);
  EXPECT_EQ(moved.stats().cancelled, 0u);
  EXPECT_EQ(paired.stats().cancelled, static_cast<std::uint64_t>(moves));
  EXPECT_EQ(paired.stats().rescheduled, 0u);
}

TEST(EventQueue, ReserveMakesSteadyStateAllocationFree) {
  EventQueue queue;
  queue.reserve(64);
  const auto churn_round = [&queue] {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 64; ++i)
      handles.push_back(queue.schedule(SimTime(i), [] {}));
    for (int i = 0; i < 32; ++i) queue.cancel(handles[static_cast<size_t>(i)]);
    drain(queue);
  };
  // Churn far more events than the reservation, never exceeding 64 live.
  for (int round = 0; round < 101; ++round) churn_round();
  EXPECT_EQ(queue.stats().pool_reallocations, 0u);
  EXPECT_LE(queue.pool_slots(), 64u);
}

TEST(EventQueue, OversizedCaptureStillWorksViaHeapFallback) {
  EventQueue queue;
  // > kInlineCapacity bytes of captured state must still fire correctly.
  std::array<std::uint64_t, 32> big{};
  big[0] = 7;
  big[31] = 9;
  std::uint64_t sum = 0;
  queue.schedule(SimTime(1), [big, &sum] { sum = big[0] + big[31]; });
  drain(queue);
  EXPECT_EQ(sum, 16u);
}

TEST(EventQueue, HeapSpillsCountedPerQueue) {
  // The spill counter sees only this queue's oversized captures.
  EventQueue queue;
  EventQueue other;
  std::array<std::uint64_t, 32> big{};
  queue.schedule(SimTime(1), [] {});  // inline: no spill
  EXPECT_EQ(queue.stats().callback_heap_spills, 0u);
  queue.schedule(SimTime(2), [big] { (void)big; });
  EXPECT_EQ(queue.stats().callback_heap_spills, 1u);
  EXPECT_EQ(other.stats().callback_heap_spills, 0u);
}

TEST(EventQueue, CancelledCallbackStateIsReleased) {
  EventQueue queue;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventHandle handle = queue.schedule(SimTime(1), [token] {});
  token.reset();
  EXPECT_FALSE(watch.expired());  // kept alive by the pending event
  queue.cancel(handle);
  EXPECT_TRUE(watch.expired());  // cancel destroys the captured state
}

TEST(EventQueue, StressManyRandomOrderings) {
  EventQueue queue;
  std::vector<std::int64_t> fired;
  // Insert with a scrambled deterministic pattern.
  for (std::int64_t i = 0; i < 1000; ++i) {
    const std::int64_t t = (i * 7919) % 1000;
    queue.schedule(SimTime(t), [&fired, t] { fired.push_back(t); });
  }
  const Trace trace = drain(queue);
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end()));
  EXPECT_EQ(fired.size(), 1000u);
}

// ------------------------------------------------- same-time callbacks

TEST(EventQueue, PopOnEmptyQueueReturnsFalse) {
  EventQueue queue;
  EventQueue::Fired out;
  EXPECT_FALSE(queue.pop(out));
  EXPECT_FALSE(static_cast<bool>(out.fn));
}

TEST(EventQueue, PoppedEventIsStaleBeforeItsCallbackRuns) {
  EventQueue queue;
  EventHandle self;
  bool ran = false;
  self = queue.schedule(SimTime(3), [&] {
    ran = true;
    EXPECT_FALSE(queue.pending(self));
    EXPECT_FALSE(queue.cancel(self));
  });
  EXPECT_EQ(drain(queue), (Trace{{3, 0}}));
  EXPECT_TRUE(ran);
  EXPECT_EQ(queue.stats().cancelled, 0u);
}

TEST(EventQueue, SameTimeCancelFromACallbackPreventsFiring) {
  // A callback cancels a same-timestamp event scheduled behind it: that
  // event must not fire, and the one after it still does.
  EventQueue queue;
  std::vector<int> fired;
  EventHandle second;
  queue.schedule(SimTime(10), [&] {
    fired.push_back(0);
    EXPECT_TRUE(queue.cancel(second));
  });
  second = queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  queue.schedule(SimTime(10), [&] { fired.push_back(2); });
  EXPECT_EQ(drain(queue), (Trace{{10, 0}, {10, 2}}));
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(queue.stats().cancelled, 1u);
  EXPECT_EQ(queue.stats().fired, 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SameTimeScheduleFromACallbackFiresAfterEveryPendingEvent) {
  // A same-time event scheduled from a callback draws a later sequence
  // number than every pending event, so it fires after all of them: plain
  // (time, seq) order.
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime(10), [&] {
    fired.push_back(0);
    queue.schedule(SimTime(10), [&] { fired.push_back(9); });
  });
  queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  EXPECT_EQ(drain(queue), (Trace{{10, 0}, {10, 1}, {10, 2}}));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 9}));
}

// ----------------------------------------------------------- reset reuse

TEST(EventQueue, ResetDropsPendingAndRewindsSequences) {
  EventQueue queue;
  bool fired = false;
  const EventHandle handle = queue.schedule(SimTime(5), [&] { fired = true; });
  queue.schedule(SimTime(6), [] {});
  queue.reset();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.pending(handle));
  EXPECT_FALSE(queue.cancel(handle));  // stale, not aliased
  EXPECT_FALSE(fired);
  EXPECT_EQ(queue.stats().scheduled, 0u);
  // Sequences restart at zero, exactly like a fresh queue.
  queue.schedule(SimTime(1), [] {});
  EXPECT_EQ(drain(queue), (Trace{{1, 0}}));
}

TEST(EventQueue, ResetReleasesPendingCallbackState) {
  EventQueue queue;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  queue.schedule(SimTime(5), [token] {});
  token.reset();
  ASSERT_FALSE(watch.expired());
  queue.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, ResetKeepsStorageWarm) {
  EventQueue queue;
  const auto fill_and_drain = [&queue] {
    for (int i = 0; i < 200; ++i) queue.schedule(SimTime(i % 17), [] {});
    drain(queue);
  };
  fill_and_drain();
  queue.reset();
  // The second identical round must not grow any storage: the slab and
  // the heap both survived the reset.
  fill_and_drain();
  EXPECT_EQ(queue.stats().pool_reallocations, 0u);
}

/// Randomized property: a reset queue is observationally identical to a
/// fresh one — the same operation sequence produces the same (time, seq)
/// fire trace, cancel verdicts, and counts, no matter what ran before the
/// reset.
TEST(EventQueue, ResetQueueTracesIdenticallyToFreshQueue) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EventQueue reused;
    // Arbitrary pre-history, abandoned mid-flight (pending events left).
    Xoshiro256 pre(seed * 977);
    std::vector<EventHandle> pre_handles;
    for (int i = 0; i < 300; ++i) {
      pre_handles.push_back(reused.schedule(
          SimTime(static_cast<std::int64_t>(pre.next_in(0, 99))), [] {}));
      if (pre.next_in(0, 2) == 0) drain(reused, 1);
      if (pre.next_in(0, 3) == 0)
        reused.cancel(pre_handles[pre.next_in(0, pre_handles.size() - 1)]);
    }
    reused.reset();

    EventQueue fresh;
    const auto run_ops = [](EventQueue& queue, std::uint64_t op_seed) {
      // (time, seq) trace plus verdict/count observations.
      Trace trace;
      Xoshiro256 rng(op_seed);
      std::vector<EventHandle> handles;
      for (int op = 0; op < 500; ++op) {
        const std::uint64_t roll = rng.next_in(0, 9);
        if (roll < 6 || queue.empty()) {
          handles.push_back(queue.schedule(
              SimTime(static_cast<std::int64_t>(rng.next_in(0, 49))), [] {}));
        } else if (roll < 8) {
          const bool verdict =
              queue.cancel(handles[rng.next_in(0, handles.size() - 1)]);
          trace.emplace_back(-1, verdict ? 1 : 0);
        } else {
          const Trace popped = drain(queue, 1);
          trace.insert(trace.end(), popped.begin(), popped.end());
        }
        trace.emplace_back(-2, queue.live());
      }
      const Trace rest = drain(queue);
      trace.insert(trace.end(), rest.begin(), rest.end());
      return trace;
    };
    EXPECT_EQ(run_ops(reused, seed), run_ops(fresh, seed))
        << "reset()-reuse trace diverged from fresh queue, seed " << seed;
  }
}

}  // namespace
}  // namespace adaptbf
