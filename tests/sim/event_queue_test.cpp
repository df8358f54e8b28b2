// EventQueue API tests: fire order, cancel verdicts, handle staleness and
// counts, then batch staging and reset()-reuse in their own sections.
// Every test fires events the way Simulator does, through pop_batch() and
// collect_staged().
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

/// Fires up to `cohorts` same-time cohorts (all of them by default),
/// running each callback, and returns the (time, seq) of every event fired
/// in dispatch order.
Trace drain(EventQueue& queue,
            std::size_t cohorts = std::numeric_limits<std::size_t>::max()) {
  Trace fired;
  EventQueue::Fired out;
  for (; cohorts > 0 && !queue.empty(); --cohorts) {
    queue.pop_batch();
    while (queue.collect_staged(out)) {
      fired.emplace_back(out.time.ns(), out.seq);
      out.fn();
    }
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

// ---------------------------------------------------------- batch staging

TEST(EventQueue, PopBatchDrainsExactlyTheEarliestCohort) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i)
    queue.schedule(SimTime(10), [&fired, i] { fired.push_back(i); });
  queue.schedule(SimTime(20), [&fired] { fired.push_back(99); });
  ASSERT_EQ(queue.pop_batch(), 5u);
  EXPECT_EQ(queue.live(), 6u);  // staged events are still pending
  EventQueue::Fired out;
  while (queue.collect_staged(out)) out.fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.live(), 1u);
  EXPECT_EQ(queue.next_time(), SimTime(20));
}

TEST(EventQueue, PopBatchOfOneStagesThatEvent) {
  EventQueue queue;
  queue.schedule(SimTime(7), [] {});
  ASSERT_EQ(queue.pop_batch(), 1u);
  EventQueue::Fired out;
  ASSERT_TRUE(queue.collect_staged(out));
  EXPECT_EQ(out.time, SimTime(7));
  EXPECT_EQ(out.seq, 0u);
  EXPECT_FALSE(queue.collect_staged(out));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelDuringBatchPreventsStagedEventFromFiring) {
  // An event dispatched early in a batch cancels a same-timestamp event
  // staged behind it — the staged event must not fire, exactly as if it
  // were still queued.
  EventQueue queue;
  std::vector<int> fired;
  EventHandle second;
  queue.schedule(SimTime(10), [&] {
    fired.push_back(0);
    EXPECT_TRUE(queue.cancel(second));
  });
  second = queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  queue.schedule(SimTime(10), [&] { fired.push_back(2); });
  ASSERT_EQ(queue.pop_batch(), 3u);
  EventQueue::Fired out;
  while (queue.collect_staged(out)) out.fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(queue.stats().cancelled, 1u);
  EXPECT_EQ(queue.stats().fired, 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ScheduleDuringBatchJoinsTheStructureNotTheBatch) {
  // A same-time event scheduled while collecting lands in the heap (it has
  // a later sequence number than everything staged), so it fires in the
  // NEXT batch, after every staged event: plain (time, seq) order.
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime(10), [&] {
    fired.push_back(0);
    queue.schedule(SimTime(10), [&] { fired.push_back(9); });
  });
  queue.schedule(SimTime(10), [&] { fired.push_back(1); });
  ASSERT_EQ(queue.pop_batch(), 2u);
  EventQueue::Fired out;
  while (queue.collect_staged(out)) out.fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  ASSERT_EQ(queue.pop_batch(), 1u);
  while (queue.collect_staged(out)) out.fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 9}));
}

TEST(EventQueue, CancelledStagedCallbackStateIsReleased) {
  EventQueue queue;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventHandle handle = queue.schedule(SimTime(1), [token] {});
  token.reset();
  ASSERT_EQ(queue.pop_batch(), 1u);
  EXPECT_TRUE(queue.pending(handle));  // staged, not yet collected
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_TRUE(watch.expired());  // cancel destroys the staged state
  EventQueue::Fired out;
  EXPECT_FALSE(queue.collect_staged(out));
  EXPECT_TRUE(queue.empty());
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

TEST(EventQueue, ResetReleasesUncollectedStagedEvents) {
  EventQueue queue;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  queue.schedule(SimTime(5), [token] {});
  queue.schedule(SimTime(5), [] {});
  token.reset();
  ASSERT_EQ(queue.pop_batch(), 2u);
  queue.reset();  // mid-batch reset: staged events are dropped too
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(queue.empty());
  EventQueue::Fired out;
  EXPECT_FALSE(queue.collect_staged(out));
}

TEST(EventQueue, ResetKeepsStorageWarm) {
  EventQueue queue;
  const auto fill_and_drain = [&queue] {
    for (int i = 0; i < 200; ++i) queue.schedule(SimTime(i % 17), [] {});
    drain(queue);
  };
  fill_and_drain();
  queue.reset();
  // The second identical round must not grow any storage: the slab, the
  // heap, and the staging scratch all survived the reset.
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
          const Trace cohort = drain(queue, 1);
          trace.insert(trace.end(), cohort.begin(), cohort.end());
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
