// Randomized model test: the pooled/generation-tagged EventQueue must be
// observationally identical to a trivial reference implementation — a
// std::multimap keyed on fire time, which (since C++11) preserves insertion
// order among equal keys, i.e. exactly the (time, sequence) contract.
//
// 10k mixed schedule/cancel/reschedule/pop operations per seed, asserting
// identical fire order, live() counts, cancel() and reschedule() verdicts,
// and the scheduled == fired + cancelled + live() identity throughout. In
// the oracle a reschedule is an erase plus an insert under a fresh
// sequence (the new entry lands after every equal key); moves go earlier,
// later, to the same time, and to the heap root. Pop rounds drain the
// earliest timestamp one event at a time, with cancels, reschedules and
// same-time schedules made between callbacks, as a callback makes them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/event_queue.h"
#include "support/random.h"

namespace adaptbf {
namespace {

struct ModelEvent {
  EventHandle handle;
  std::multimap<std::int64_t, std::uint64_t>::iterator oracle_it;
  bool alive = false;
};

void run_model(std::uint64_t seed, int operations) {
  Xoshiro256 rng(seed);
  EventQueue queue;
  std::multimap<std::int64_t, std::uint64_t> oracle;  // time -> token
  std::vector<ModelEvent> events;  // every event ever scheduled
  std::vector<std::uint64_t> fired;
  std::uint64_t next_token = 0;

  const auto schedule_one = [&](std::int64_t when) {
    const std::uint64_t token = next_token++;
    ModelEvent event;
    event.handle = queue.schedule(SimTime(when),
                                  [&fired, token] { fired.push_back(token); });
    event.oracle_it = oracle.emplace(when, token);
    event.alive = true;
    events.push_back(event);
  };

  const auto cancel_random = [&](int op) {
    ModelEvent& event = events[rng.next_in(0, events.size() - 1)];
    const bool cancelled = queue.cancel(event.handle);
    ASSERT_EQ(cancelled, event.alive) << "cancel verdict diverged at op " << op;
    if (event.alive) {
      oracle.erase(event.oracle_it);
      event.alive = false;
    }
  };

  // A stale handle must answer false and change nothing.
  const auto reschedule_event = [&](ModelEvent& event, std::int64_t when,
                                    int op) {
    const EventQueue::Stats before = queue.stats();
    const SimTime next_before = queue.next_time();
    const bool moved = queue.reschedule(event.handle, SimTime(when));
    ASSERT_EQ(moved, event.alive) << "reschedule verdict diverged at op "
                                  << op;
    if (!event.alive) {
      ASSERT_EQ(queue.stats().rescheduled, before.rescheduled);
      ASSERT_EQ(queue.next_time(), next_before);
      return;
    }
    ASSERT_EQ(queue.stats().rescheduled, before.rescheduled + 1);
    ASSERT_TRUE(queue.pending(event.handle)) << "a move keeps the handle";
    const std::uint64_t token = event.oracle_it->second;
    oracle.erase(event.oracle_it);
    event.oracle_it = oracle.emplace(when, token);
  };

  // Earlier, later or at the same time as the event's own time.
  const auto reschedule_random = [&](int op, std::int64_t floor) {
    ModelEvent& event = events[rng.next_in(0, events.size() - 1)];
    const std::int64_t own = event.alive ? event.oracle_it->first : floor;
    std::int64_t when = own;
    switch (rng.next_in(0, 2)) {
      case 0:
        when = std::max(floor, own - static_cast<std::int64_t>(
                                         rng.next_in(1, 300)));
        break;
      case 1:
        when = own + static_cast<std::int64_t>(rng.next_in(1, 300));
        break;
      default: break;
    }
    reschedule_event(event, when, op);
  };

  const auto check_counts = [&](int op) {
    const EventQueue::Stats& stats = queue.stats();
    ASSERT_EQ(queue.live(), oracle.size()) << "live() diverged at op " << op;
    ASSERT_EQ(stats.scheduled, stats.fired + stats.cancelled + queue.live())
        << "op " << op;
  };

  const auto check_fired_front = [&](EventQueue::Fired& popped, int op) {
    ASSERT_FALSE(oracle.empty())
        << "fired an event the oracle lacks at op " << op;
    const auto expected = oracle.begin();
    ASSERT_EQ(popped.time.ns(), expected->first)
        << "fire time diverged at op " << op;
    const std::size_t before = fired.size();
    popped.fn();
    ASSERT_EQ(fired.size(), before + 1);
    ASSERT_EQ(fired.back(), expected->second)
        << "fire order diverged at op " << op;
    for (auto& event : events) {
      if (event.alive && event.oracle_it == expected) {
        event.alive = false;
        ASSERT_FALSE(queue.pending(event.handle));
        break;
      }
    }
    oracle.erase(expected);
  };

  for (int op = 0; op < operations; ++op) {
    const std::uint64_t roll = rng.next_in(0, 99);
    if (roll < 40 || queue.empty()) {
      // Schedule at a clustered time so ties are frequent.
      schedule_one(static_cast<std::int64_t>(rng.next_in(0, 499)));
    } else if (roll < 52) {
      // Move a random historical event; stale handles are common.
      reschedule_random(op, 0);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (roll < 57) {
      // Move the root: later, to its own time, or earlier still.
      ModelEvent& root = events[oracle.begin()->second];
      ASSERT_TRUE(root.alive);
      const std::int64_t own = oracle.begin()->first;
      const std::int64_t when =
          own + static_cast<std::int64_t>(rng.next_in(0, 400)) - 100;
      reschedule_event(root, std::max<std::int64_t>(0, when), op);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (roll < 75) {
      // Cancel a random historical event — often already fired or already
      // cancelled, so stale-handle rejection is exercised constantly.
      cancel_random(op);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      // Drain the earliest timestamp, one pop per event. Each pop must fire
      // the oracle's front (its equal-key runs keep insertion order), while
      // cancels and same-time schedules made after a callback take effect
      // in (time, seq) order (the simulator forbids scheduling before the
      // current dispatch time, so their times are >= t).
      ASSERT_FALSE(oracle.empty());
      const std::int64_t t = oracle.begin()->first;
      EventQueue::Fired out;
      while (queue.next_time() == SimTime(t) && queue.pop(out)) {
        check_fired_front(out, op);
        if (::testing::Test::HasFatalFailure()) return;
        check_counts(op);
        if (::testing::Test::HasFatalFailure()) return;
        const std::uint64_t mid = rng.next_in(0, 4);
        if (mid == 0) {
          cancel_random(op);
          if (::testing::Test::HasFatalFailure()) return;
        } else if (mid == 1) {
          schedule_one(t + static_cast<std::int64_t>(rng.next_in(0, 499)));
        } else if (mid == 2) {
          // From inside a callback: never before the dispatch time t.
          reschedule_random(op, t);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
    check_counts(op);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(queue.empty(), oracle.empty());
    ASSERT_EQ(queue.next_time(),
              oracle.empty() ? SimTime::max() : SimTime(oracle.begin()->first));
  }

  // Drain: the remaining fire order must match the oracle exactly.
  EventQueue::Fired out;
  while (queue.pop(out)) {
    check_fired_front(out, operations);
    if (::testing::Test::HasFatalFailure()) return;
    check_counts(operations);
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(oracle.empty());
  ASSERT_TRUE(queue.empty());
}

TEST(EventQueueModel, TenThousandMixedOperations) {
  run_model(0x5eed, 10000);
}

TEST(EventQueueModel, MoreSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_model(seed, 2000);
}

}  // namespace
}  // namespace adaptbf
