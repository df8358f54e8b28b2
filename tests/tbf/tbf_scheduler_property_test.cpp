// Randomized model test of the NRS-TBF scheduler: thousands of interleaved
// enqueue / dequeue / rule-management operations against invariant checks.
// The operations are driven by a seeded PRNG, so failures replay exactly.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "support/random.h"
#include "tbf/tbf_scheduler.h"

namespace adaptbf {
namespace {

struct SchedulerFuzzParam {
  std::uint64_t seed;
  int operations;
  std::uint32_t max_jobs;
};

class TbfSchedulerPropertyTest
    : public ::testing::TestWithParam<SchedulerFuzzParam> {};

TEST_P(TbfSchedulerPropertyTest, NoRpcLostOrDuplicated) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  TbfScheduler scheduler;
  SimTime now = SimTime::zero();
  std::uint64_t next_rpc_id = 1;
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::map<std::uint64_t, bool> seen;  // id -> dequeued?
  std::uint64_t rule_counter = 0;
  std::vector<std::string> live_rules;

  for (int op = 0; op < param.operations; ++op) {
    // Time moves forward in random small hops.
    now += SimDuration::micros(
        static_cast<std::int64_t>(rng.next_in(0, 2000)));
    const double dice = rng.next_double();
    if (dice < 0.45) {
      // Enqueue a random job's RPC.
      Rpc rpc;
      rpc.id = next_rpc_id++;
      rpc.job = JobId(static_cast<std::uint32_t>(
          rng.next_in(1, param.max_jobs)));
      rpc.size_bytes = 4096;
      scheduler.enqueue(rpc, now);
      seen.emplace(rpc.id, false);
      ++enqueued;
    } else if (dice < 0.80) {
      // Drain whatever is eligible right now.
      while (auto rpc = scheduler.dequeue(now)) {
        auto it = seen.find(rpc->id);
        ASSERT_NE(it, seen.end()) << "dequeued an RPC never enqueued";
        ASSERT_FALSE(it->second) << "RPC " << rpc->id << " served twice";
        it->second = true;
        ++dequeued;
      }
    } else if (dice < 0.90) {
      // Start a rule for a random job with a random rate.
      RuleSpec spec;
      spec.name = "r" + std::to_string(rule_counter++);
      spec.matcher = RpcMatcher::for_job(JobId(
          static_cast<std::uint32_t>(rng.next_in(1, param.max_jobs))));
      spec.rate = 1.0 + rng.next_double() * 10000.0;
      spec.rank = static_cast<std::int32_t>(rng.next_in(0, 100)) - 50;
      scheduler.start_rule(spec);
      live_rules.push_back(spec.name);
    } else if (dice < 0.95 && !live_rules.empty()) {
      // Re-rate a random live rule.
      const auto index = rng.next_in(0, live_rules.size() - 1);
      EXPECT_TRUE(scheduler.change_rule(live_rules[index],
                                        1.0 + rng.next_double() * 5000.0,
                                        0, now));
    } else if (!live_rules.empty()) {
      // Stop a random live rule.
      const auto index = rng.next_in(0, live_rules.size() - 1);
      EXPECT_TRUE(scheduler.stop_rule(live_rules[index], now));
      live_rules.erase(live_rules.begin() +
                       static_cast<std::ptrdiff_t>(index));
    }
    // Invariant: backlog accounting is exact.
    ASSERT_EQ(scheduler.backlog(), enqueued - dequeued) << "op " << op;
  }

  // Drain to empty: everything enqueued must eventually come out exactly
  // once. Stop all rules first so nothing is token-blocked forever.
  for (const auto& name : live_rules) scheduler.stop_rule(name, now);
  while (scheduler.backlog() > 0) {
    const SimTime ready = scheduler.next_ready_time(now);
    ASSERT_NE(ready, SimTime::max()) << "backlog with no future service";
    now = std::max(now, ready);
    auto rpc = scheduler.dequeue(now);
    if (!rpc.has_value()) {
      now += SimDuration::millis(1);
      continue;
    }
    auto it = seen.find(rpc->id);
    ASSERT_NE(it, seen.end());
    ASSERT_FALSE(it->second);
    it->second = true;
    ++dequeued;
  }
  EXPECT_EQ(dequeued, enqueued);
  for (const auto& [id, was_served] : seen) EXPECT_TRUE(was_served) << id;
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, TbfSchedulerPropertyTest,
    ::testing::Values(SchedulerFuzzParam{101, 4000, 4},
                      SchedulerFuzzParam{202, 4000, 16},
                      SchedulerFuzzParam{303, 2000, 64},
                      SchedulerFuzzParam{404, 8000, 8},
                      SchedulerFuzzParam{505, 1000, 2}),
    [](const ::testing::TestParamInfo<SchedulerFuzzParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

// Classification against a reference: a linear scan of the live rules in
// start order that keeps the first lowest rank. Rules name several jobs
// (with repeats), nids and opcodes, or no job at all; ranks collide often,
// change at runtime, and rules stop and restart under their old names.
// After every enqueue exactly the reference pick's `arrived` must rise, or
// the fallback backlog when no rule matches.
struct ClassifyParam {
  std::uint64_t seed;
  int operations;
  std::uint32_t max_jobs;
};

class TbfClassificationTest : public ::testing::TestWithParam<ClassifyParam> {
};

TEST_P(TbfClassificationTest, PicksLowestRankThenEarliestStart) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  TbfScheduler scheduler;
  struct LiveRule {
    std::string name;
    RpcMatcher matcher;
    std::int32_t rank;
    std::uint64_t arrived = 0;
  };
  std::vector<LiveRule> live;  // start order
  std::vector<std::string> stopped_names;
  std::uint64_t rule_counter = 0;
  std::uint64_t next_rpc_id = 1;
  SimTime now = SimTime::zero();
  auto random_job = [&] {
    return JobId(static_cast<std::uint32_t>(rng.next_in(1, param.max_jobs)));
  };
  auto random_opcode = [&] {
    return rng.next_in(0, 1) == 0 ? Opcode::kOstRead : Opcode::kOstWrite;
  };
  // A small rank range makes equal ranks common.
  auto random_rank = [&] {
    return static_cast<std::int32_t>(rng.next_in(0, 3)) - 1;
  };

  for (int op = 0; op < param.operations; ++op) {
    now += SimDuration::micros(static_cast<std::int64_t>(rng.next_in(0, 500)));
    const double dice = rng.next_double();
    if (dice < 0.55) {
      Rpc rpc;
      rpc.id = next_rpc_id++;
      rpc.job = random_job();
      rpc.nid = Nid(static_cast<std::uint32_t>(rng.next_in(0, 3)));
      rpc.opcode = random_opcode();
      rpc.size_bytes = 4096;
      LiveRule* expected = nullptr;
      for (auto& rule : live)
        if (rule.matcher.matches(rpc) &&
            (expected == nullptr || rule.rank < expected->rank))
          expected = &rule;
      const std::size_t fallback_before = scheduler.fallback_backlog();
      scheduler.enqueue(rpc, now);
      if (expected != nullptr) ++expected->arrived;
      EXPECT_EQ(scheduler.fallback_backlog(),
                fallback_before + (expected == nullptr ? 1 : 0))
          << "op " << op;
      for (const auto& rule : live) {
        const RuleStats* stats = scheduler.rule_stats(rule.name);
        ASSERT_NE(stats, nullptr) << rule.name;
        ASSERT_EQ(stats->arrived, rule.arrived)
            << "op " << op << ": job " << rpc.job.value() << " classified "
            << (&rule == expected ? "away from" : "to") << " rule "
            << rule.name;
      }
    } else if (dice < 0.70) {
      while (scheduler.dequeue(now).has_value()) {
      }
    } else if (dice < 0.82) {
      RpcMatcher matcher;
      const auto jobs = rng.next_in(0, 3);  // 0: no job clause
      for (std::uint64_t i = 0; i < jobs; ++i) {
        const JobId job = random_job();
        matcher.add_job(job);
        if (rng.next_in(0, 4) == 0) matcher.add_job(job);  // repeated id
      }
      if (rng.next_in(0, 3) == 0)
        matcher.add_nid(Nid(static_cast<std::uint32_t>(rng.next_in(0, 3))));
      if (rng.next_in(0, 3) == 0) matcher.add_opcode(random_opcode());
      RuleSpec spec;
      if (!stopped_names.empty() && rng.next_in(0, 2) == 0) {
        const auto index = rng.next_in(0, stopped_names.size() - 1);
        spec.name = stopped_names[index];  // restart under the same name
        stopped_names.erase(stopped_names.begin() +
                            static_cast<std::ptrdiff_t>(index));
      } else {
        spec.name = "r" + std::to_string(rule_counter++);
      }
      spec.matcher = matcher;
      spec.rate = 1.0 + rng.next_double() * 1000.0;
      spec.rank = random_rank();
      scheduler.start_rule(spec);
      live.push_back({spec.name, matcher, spec.rank});
    } else if (dice < 0.91 && !live.empty()) {
      auto& rule = live[rng.next_in(0, live.size() - 1)];
      rule.rank = random_rank();
      ASSERT_TRUE(scheduler.change_rule(
          rule.name, 1.0 + rng.next_double() * 1000.0, rule.rank, now));
    } else if (!live.empty()) {
      const auto index = rng.next_in(0, live.size() - 1);
      ASSERT_TRUE(scheduler.stop_rule(live[index].name, now));
      stopped_names.push_back(live[index].name);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TbfClassificationTest,
    ::testing::Values(ClassifyParam{11, 6000, 3}, ClassifyParam{22, 6000, 8},
                      ClassifyParam{33, 4000, 32}),
    [](const ::testing::TestParamInfo<ClassifyParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

TEST(TbfSchedulerRateConformance, ServedCountBoundedByRatePlusDepth) {
  // Under continuous backlog, a queue must never exceed rate*T + depth
  // services over any horizon T — the hard TBF guarantee.
  for (const double rate : {3.0, 17.0, 250.0}) {
    TbfScheduler scheduler;
    RuleSpec spec;
    spec.name = "limit";
    spec.matcher = RpcMatcher::for_job(JobId(1));
    spec.rate = rate;
    scheduler.start_rule(spec);
    for (std::uint64_t i = 0; i < 100000; ++i) {
      Rpc rpc;
      rpc.id = i;
      rpc.job = JobId(1);
      scheduler.enqueue(rpc, SimTime::zero());
      if (scheduler.backlog() > 50000) break;  // plenty of backlog
    }
    std::uint64_t served = 0;
    SimTime now = SimTime::zero();
    const SimTime end = SimTime::zero() + SimDuration::seconds(5);
    while (now <= end) {
      if (scheduler.dequeue(now).has_value()) {
        ++served;
        continue;
      }
      const SimTime ready = scheduler.next_ready_time(now);
      if (ready > end) break;
      now = ready;
    }
    const double bound = rate * 5.0 + 3.0 /*depth*/ + 1.0 /*edge*/;
    EXPECT_LE(static_cast<double>(served), bound) << "rate " << rate;
    EXPECT_GE(static_cast<double>(served), rate * 5.0 - 1.0) << "rate "
                                                             << rate;
  }
}

}  // namespace
}  // namespace adaptbf
