#include "tbf/tbf_scheduler.h"

#include <gtest/gtest.h>

namespace adaptbf {
namespace {

SimTime at_ms(std::int64_t ms) {
  return SimTime::zero() + SimDuration::millis(ms);
}

Rpc make_rpc(std::uint32_t job, std::uint64_t id) {
  Rpc rpc;
  rpc.id = id;
  rpc.job = JobId(job);
  rpc.size_bytes = 1024 * 1024;
  return rpc;
}

RuleSpec job_rule(std::uint32_t job, double rate, std::int32_t rank = 0,
                  double depth = 3.0) {
  RuleSpec spec;
  spec.name = "job_" + std::to_string(job);
  spec.matcher = RpcMatcher::for_job(JobId(job));
  spec.rate = rate;
  spec.depth = depth;
  spec.rank = rank;
  return spec;
}

TEST(TbfScheduler, UnmatchedRpcsGoToFallback) {
  TbfScheduler scheduler;
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  EXPECT_EQ(scheduler.fallback_backlog(), 1u);
  EXPECT_EQ(scheduler.backlog(), 1u);
}

TEST(TbfScheduler, FallbackServedImmediately) {
  TbfScheduler scheduler;
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  auto rpc = scheduler.dequeue(SimTime::zero());
  ASSERT_TRUE(rpc.has_value());
  EXPECT_EQ(rpc->id, 1u);
  EXPECT_EQ(scheduler.backlog(), 0u);
}

TEST(TbfScheduler, FallbackIsFcfs) {
  TbfScheduler scheduler;
  for (std::uint64_t i = 1; i <= 5; ++i)
    scheduler.enqueue(make_rpc(1, i), SimTime::zero());
  for (std::uint64_t i = 1; i <= 5; ++i)
    EXPECT_EQ(scheduler.dequeue(SimTime::zero())->id, i);
}

TEST(TbfScheduler, MatchedRpcConsumesToken) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 10.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  EXPECT_EQ(scheduler.fallback_backlog(), 0u);
  auto rpc = scheduler.dequeue(SimTime::zero());
  ASSERT_TRUE(rpc.has_value());
  // Started full with depth 3: one consumed.
  EXPECT_NEAR(scheduler.queue_tokens(JobId(1), SimTime::zero()), 2.0, 1e-9);
}

TEST(TbfScheduler, RateGatesDequeue) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 10.0));  // 10 RPC/s, depth 3, starts full
  for (std::uint64_t i = 1; i <= 5; ++i)
    scheduler.enqueue(make_rpc(1, i), SimTime::zero());
  // Burst of 3 passes at t=0 (full bucket)...
  EXPECT_TRUE(scheduler.dequeue(SimTime::zero()).has_value());
  EXPECT_TRUE(scheduler.dequeue(SimTime::zero()).has_value());
  EXPECT_TRUE(scheduler.dequeue(SimTime::zero()).has_value());
  // ...the fourth is token-blocked.
  EXPECT_FALSE(scheduler.dequeue(SimTime::zero()).has_value());
  EXPECT_EQ(scheduler.next_ready_time(SimTime::zero()), at_ms(100));
  EXPECT_TRUE(scheduler.dequeue(at_ms(100)).has_value());
  EXPECT_FALSE(scheduler.dequeue(at_ms(100)).has_value());
  EXPECT_TRUE(scheduler.dequeue(at_ms(200)).has_value());
}

TEST(TbfScheduler, LongRunThroughputMatchesRate) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 50.0));
  for (std::uint64_t i = 0; i < 1000; ++i)
    scheduler.enqueue(make_rpc(1, i), SimTime::zero());
  // Greedily drain for 10 s.
  int served = 0;
  SimTime now = SimTime::zero();
  const SimTime end = at_ms(10'000);
  while (now <= end) {
    if (scheduler.dequeue(now).has_value()) {
      ++served;
      continue;
    }
    const SimTime ready = scheduler.next_ready_time(now);
    if (ready > end) break;
    now = ready;
  }
  // 50/s x 10 s = 500 plus the initial burst of <= 3.
  EXPECT_GE(served, 500);
  EXPECT_LE(served, 504);
}

TEST(TbfScheduler, EarliestDeadlineQueueServedFirst) {
  TbfScheduler scheduler;
  TbfScheduler::Config config;
  config.start_full = false;  // force both queues to wait for tokens
  scheduler = TbfScheduler(config);
  scheduler.start_rule(job_rule(1, 10.0));  // token at t=100ms
  scheduler.start_rule(job_rule(2, 20.0));  // token at t=50ms
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  scheduler.enqueue(make_rpc(2, 2), SimTime::zero());
  EXPECT_EQ(scheduler.next_ready_time(SimTime::zero()), at_ms(50));
  auto first = scheduler.dequeue(at_ms(100));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->job, JobId(2));  // earlier deadline wins
  auto second = scheduler.dequeue(at_ms(100));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->job, JobId(1));
}

TEST(TbfScheduler, RankBreaksDeadlineTies) {
  TbfScheduler::Config config;
  config.start_full = false;
  TbfScheduler scheduler(config);
  scheduler.start_rule(job_rule(1, 10.0, /*rank=*/5));
  scheduler.start_rule(job_rule(2, 10.0, /*rank=*/-5));  // higher priority
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  scheduler.enqueue(make_rpc(2, 2), SimTime::zero());
  auto first = scheduler.dequeue(at_ms(100));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->job, JobId(2));
}

TEST(TbfScheduler, ChangeRuleTakesEffect) {
  TbfScheduler::Config config;
  config.start_full = false;
  TbfScheduler scheduler(config);
  scheduler.start_rule(job_rule(1, 10.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  // Raise the rate tenfold: the deadline moves from 100ms to 10ms.
  EXPECT_TRUE(scheduler.change_rule("job_1", 100.0, 0, SimTime::zero()));
  EXPECT_EQ(scheduler.next_ready_time(SimTime::zero()), at_ms(10));
  EXPECT_TRUE(scheduler.dequeue(at_ms(10)).has_value());
}

TEST(TbfScheduler, ChangeRuleLoweringRateDefersService) {
  TbfScheduler::Config config;
  config.start_full = false;
  TbfScheduler scheduler(config);
  scheduler.start_rule(job_rule(1, 100.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  EXPECT_TRUE(scheduler.change_rule("job_1", 1.0, 0, SimTime::zero()));
  EXPECT_FALSE(scheduler.dequeue(at_ms(10)).has_value());
  EXPECT_TRUE(scheduler.dequeue(at_ms(1000)).has_value());
}

TEST(TbfScheduler, ChangeUnknownRuleFails) {
  TbfScheduler scheduler;
  EXPECT_FALSE(scheduler.change_rule("nope", 1.0, 0, SimTime::zero()));
}

TEST(TbfScheduler, StopRuleDrainsQueueThroughFallback) {
  TbfScheduler::Config config;
  config.start_full = false;
  TbfScheduler scheduler(config);
  scheduler.start_rule(job_rule(1, 0.5));  // very slow
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  scheduler.enqueue(make_rpc(1, 2), SimTime::zero());
  EXPECT_FALSE(scheduler.dequeue(SimTime::zero()).has_value());
  EXPECT_TRUE(scheduler.stop_rule("job_1", SimTime::zero()));
  // Both pending RPCs are now unthrottled.
  EXPECT_TRUE(scheduler.dequeue(SimTime::zero()).has_value());
  EXPECT_TRUE(scheduler.dequeue(SimTime::zero()).has_value());
  EXPECT_EQ(scheduler.backlog(), 0u);
}

TEST(TbfScheduler, StopUnknownRuleFails) {
  TbfScheduler scheduler;
  EXPECT_FALSE(scheduler.stop_rule("nope", SimTime::zero()));
}

TEST(TbfScheduler, NewArrivalsAfterStopAreReclassified) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 10.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  (void)scheduler.dequeue(SimTime::zero());
  scheduler.stop_rule("job_1", SimTime::zero());
  scheduler.enqueue(make_rpc(1, 2), SimTime::zero());
  EXPECT_EQ(scheduler.fallback_backlog(), 1u);
}

TEST(TbfScheduler, RuleStatsCountArrivalsAndService) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 100.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  scheduler.enqueue(make_rpc(1, 2), SimTime::zero());
  (void)scheduler.dequeue(SimTime::zero());
  const RuleStats* stats = scheduler.rule_stats("job_1");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->arrived, 2u);
  EXPECT_EQ(stats->served, 1u);
}

TEST(TbfScheduler, LowerRankRuleWinsClassification) {
  TbfScheduler scheduler;
  RuleSpec wildcard;
  wildcard.name = "catch_all";
  wildcard.rate = 1.0;
  wildcard.rank = 100;
  scheduler.start_rule(wildcard);
  scheduler.start_rule(job_rule(1, 50.0, /*rank=*/-1));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  (void)scheduler.dequeue(SimTime::zero());
  EXPECT_EQ(scheduler.rule_stats("job_1")->arrived, 1u);
  EXPECT_EQ(scheduler.rule_stats("catch_all")->arrived, 0u);
}

TEST(TbfScheduler, ActiveRulesListsNames) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 1.0));
  scheduler.start_rule(job_rule(2, 1.0));
  const auto names = scheduler.active_rules();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "job_1");
  EXPECT_EQ(names[1], "job_2");
  EXPECT_TRUE(scheduler.has_rule("job_1"));
  EXPECT_FALSE(scheduler.has_rule("job_9"));
}

TEST(TbfScheduler, FallbackOnlyServedWhenNoRuleQueueEligible) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 100.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());   // rule queue, token ready
  scheduler.enqueue(make_rpc(9, 2), SimTime::zero());   // fallback
  auto first = scheduler.dequeue(SimTime::zero());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->job, JobId(1));  // eligible rule queue preferred
  auto second = scheduler.dequeue(SimTime::zero());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->job, JobId(9));
}

TEST(TbfScheduler, TokenBlockedRuleQueueLetsFallbackProceed) {
  TbfScheduler::Config config;
  config.start_full = false;
  TbfScheduler scheduler(config);
  scheduler.start_rule(job_rule(1, 1.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());  // blocked ~1s
  scheduler.enqueue(make_rpc(9, 2), SimTime::zero());  // fallback
  auto rpc = scheduler.dequeue(SimTime::zero());
  ASSERT_TRUE(rpc.has_value());
  EXPECT_EQ(rpc->job, JobId(9));  // fallback never starves behind tokens
}

TEST(TbfScheduler, FallbackNotStarvedBySaturatedRules) {
  // Regression: with Σ rule rates ≈ service capacity, fallback RPCs must
  // still be served (they compete in arrival order with due rule queues).
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 1000.0));
  // Older fallback RPC (job 9, no rule), then a stream of rule traffic.
  scheduler.enqueue(make_rpc(9, 1), SimTime::zero());
  for (std::uint64_t i = 2; i < 50; ++i)
    scheduler.enqueue(make_rpc(1, i), at_ms(static_cast<std::int64_t>(i)));
  // Drain a few: the fallback RPC arrived first, so it must come out
  // within the first couple of dequeues, not after all 48 rule RPCs.
  auto first = scheduler.dequeue(at_ms(100));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->job, JobId(9));
}

TEST(TbfScheduler, QueueBacklogPerJob) {
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 1.0));
  EXPECT_EQ(scheduler.queue_backlog(JobId(1)), 0u);
  for (std::uint64_t i = 0; i < 5; ++i)
    scheduler.enqueue(make_rpc(1, i), SimTime::zero());
  EXPECT_EQ(scheduler.queue_backlog(JobId(1)), 5u);
  (void)scheduler.dequeue(SimTime::zero());
  EXPECT_EQ(scheduler.queue_backlog(JobId(1)), 4u);
  EXPECT_EQ(scheduler.queue_backlog(JobId(2)), 0u);  // unknown job
}

TEST(TbfScheduler, NextReadyTimeMaxWhenEmpty) {
  TbfScheduler scheduler;
  EXPECT_EQ(scheduler.next_ready_time(SimTime::zero()), SimTime::max());
}

TEST(TbfScheduler, PerJobQueuesIsolateRates) {
  // Two jobs under one shared-rate world: each job has its own bucket, so
  // a backlog in job 1 does not consume job 2's tokens.
  TbfScheduler::Config config;
  config.start_full = false;
  TbfScheduler scheduler(config);
  scheduler.start_rule(job_rule(1, 10.0));
  scheduler.start_rule(job_rule(2, 10.0));
  for (std::uint64_t i = 0; i < 10; ++i)
    scheduler.enqueue(make_rpc(1, i), SimTime::zero());
  scheduler.enqueue(make_rpc(2, 100), SimTime::zero());
  int job1 = 0, job2 = 0;
  SimTime now = SimTime::zero();
  const SimTime end = at_ms(1000);
  while (now <= end) {
    auto rpc = scheduler.dequeue(now);
    if (rpc.has_value()) {
      (rpc->job == JobId(1) ? job1 : job2)++;
      continue;
    }
    const SimTime ready = scheduler.next_ready_time(now);
    if (ready > end) break;
    now = ready;
  }
  EXPECT_EQ(job2, 1);           // served at its own pace
  EXPECT_GE(job1, 9);           // 10/s for 1s (+ rounding)
  EXPECT_LE(job1, 10);
}

TEST(TbfScheduler, RestartedRuleNeverRevivesStaleDeadlineEntry) {
  // Stopping a rule erases its job's queue while the queue's deadline
  // entry (due at t=1 s) is still in the heap. The queue re-created when
  // the rule restarts must never take that entry for its own: once it has
  // drained, a dequeue past the old deadline finds nothing to serve.
  TbfScheduler scheduler;
  scheduler.start_rule(job_rule(1, 1.0, 0, 1.0));
  scheduler.enqueue(make_rpc(1, 1), SimTime::zero());
  scheduler.enqueue(make_rpc(1, 2), SimTime::zero());
  EXPECT_EQ(scheduler.dequeue(SimTime::zero())->id, 1u);
  ASSERT_TRUE(scheduler.stop_rule("job_1", SimTime::zero()));
  scheduler.start_rule(job_rule(1, 1000.0, 0, 1.0));
  scheduler.enqueue(make_rpc(1, 3), SimTime::zero());
  EXPECT_EQ(scheduler.dequeue(SimTime::zero())->id, 2u);
  EXPECT_EQ(scheduler.dequeue(SimTime::zero())->id, 3u);
  EXPECT_FALSE(scheduler.dequeue(at_ms(2000)).has_value());
  EXPECT_EQ(scheduler.backlog(), 0u);
}

}  // namespace
}  // namespace adaptbf
