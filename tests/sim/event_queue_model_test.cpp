// Randomized model test: the pooled/generation-tagged EventQueue must be
// observationally identical to a trivial reference implementation — a
// std::multimap keyed on fire time, which (since C++11) preserves insertion
// order among equal keys, i.e. exactly the (time, sequence) contract.
//
// 10k mixed schedule/cancel/batch operations per seed, asserting identical
// fire order, live() counts, and cancel() verdicts throughout. Batch rounds
// exercise the staged-cohort semantics, including cancels and same-time
// schedules issued mid-batch.
#include <gtest/gtest.h>

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

  const auto check_fired_front = [&](EventQueue::Fired& popped, int op) {
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
    if (roll < 50 || queue.empty()) {
      // Schedule at a clustered time so ties are frequent.
      schedule_one(static_cast<std::int64_t>(rng.next_in(0, 499)));
    } else if (roll < 75) {
      // Cancel a random historical event — often already fired or already
      // cancelled, so stale-handle rejection is exercised constantly.
      cancel_random(op);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      // Batched drain of the earliest-time cohort. The staged batch must
      // fire exactly the oracle's equal-key run, in insertion order, while
      // cancels and same-time schedules issued mid-batch take effect in
      // (time, seq) order (the simulator forbids scheduling before the
      // current dispatch time, so mid-batch times are >= t).
      ASSERT_FALSE(oracle.empty());
      const std::int64_t t = oracle.begin()->first;
      ASSERT_EQ(queue.pop_batch(), oracle.count(t))
          << "cohort size diverged at op " << op;
      ASSERT_EQ(queue.live(), oracle.size());  // staged events still pending
      EventQueue::Fired out;
      while (queue.collect_staged(out)) {
        check_fired_front(out, op);
        if (::testing::Test::HasFatalFailure()) return;
        const std::uint64_t mid = rng.next_in(0, 3);
        if (mid == 0) {
          cancel_random(op);
          if (::testing::Test::HasFatalFailure()) return;
        } else if (mid == 1) {
          schedule_one(t + static_cast<std::int64_t>(rng.next_in(0, 499)));
        }
      }
    }
    ASSERT_EQ(queue.live(), oracle.size()) << "live() diverged at op " << op;
    ASSERT_EQ(queue.empty(), oracle.empty());
    ASSERT_EQ(queue.next_time(),
              oracle.empty() ? SimTime::max() : SimTime(oracle.begin()->first));
  }

  // Drain: the remaining fire order must match the oracle exactly.
  while (!oracle.empty()) {
    queue.pop_batch();
    EventQueue::Fired out;
    while (queue.collect_staged(out)) {
      check_fired_front(out, operations);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
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
