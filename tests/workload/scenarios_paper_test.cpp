#include "workload/scenarios_paper.h"

#include <gtest/gtest.h>

namespace adaptbf {
namespace {

std::uint64_t total_nodes(const ScenarioSpec& spec) {
  std::uint64_t total = 0;
  for (const auto& job : spec.jobs) total += job.nodes;
  return total;
}

/// The paper's Static BW priority: a job's node count over all nodes.
double node_share(const ScenarioSpec& spec, JobId job) {
  for (const auto& entry : spec.jobs)
    if (entry.id == job)
      return static_cast<double>(entry.nodes) /
             static_cast<double>(total_nodes(spec));
  return 0.0;
}

TEST(PaperScenarios, TokenAllocationMatchesSectionIvD) {
  const auto spec = scenario_token_allocation(BwControl::kAdaptive);
  ASSERT_EQ(spec.jobs.size(), 4u);
  // Priorities 10/10/30/50 % from node counts 1/1/3/5.
  EXPECT_DOUBLE_EQ(node_share(spec, JobId(1)), 0.1);
  EXPECT_DOUBLE_EQ(node_share(spec, JobId(2)), 0.1);
  EXPECT_DOUBLE_EQ(node_share(spec, JobId(3)), 0.3);
  EXPECT_DOUBLE_EQ(node_share(spec, JobId(4)), 0.5);
  for (const auto& job : spec.jobs) {
    EXPECT_EQ(job.processes.size(), 16u) << job.name;
    for (const auto& process : job.processes) {
      EXPECT_EQ(process.kind, ProcessPattern::Kind::kContinuous);
      EXPECT_EQ(process.total_rpcs, 1024u);  // 1 GiB at 1 MiB RPCs
    }
  }
  EXPECT_TRUE(spec.stop_when_idle);
}

TEST(PaperScenarios, RedistributionMatchesSectionIvE) {
  const auto spec = scenario_token_redistribution(BwControl::kAdaptive);
  ASSERT_EQ(spec.jobs.size(), 4u);
  // Jobs 1-3 high priority (30%), job 4 low (10%).
  EXPECT_DOUBLE_EQ(node_share(spec, JobId(1)), 0.3);
  EXPECT_DOUBLE_EQ(node_share(spec, JobId(4)), 0.1);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(spec.jobs[j].processes.size(), 2u);
    for (const auto& process : spec.jobs[j].processes)
      EXPECT_EQ(process.kind, ProcessPattern::Kind::kPeriodicBurst);
  }
  EXPECT_EQ(spec.jobs[3].processes.size(), 16u);
  for (const auto& process : spec.jobs[3].processes)
    EXPECT_EQ(process.kind, ProcessPattern::Kind::kContinuous);
  // Burst shapes differ across the three bursty jobs (interleaving).
  EXPECT_NE(spec.jobs[0].processes[0].burst_rpcs,
            spec.jobs[1].processes[0].burst_rpcs);
  EXPECT_NE(spec.jobs[1].processes[0].period.ns(),
            spec.jobs[2].processes[0].period.ns());
}

TEST(PaperScenarios, RecompensationMatchesSectionIvF) {
  const auto spec = scenario_token_recompensation(BwControl::kAdaptive);
  ASSERT_EQ(spec.jobs.size(), 4u);
  // Equal 25% priority everywhere.
  for (std::uint32_t id = 1; id <= 4; ++id)
    EXPECT_DOUBLE_EQ(node_share(spec, JobId(id)), 0.25);
  // Jobs 1-3: one bursty process + one delayed continuous process, with
  // delays 20/50/80 s.
  const double delays[] = {20.0, 50.0, 80.0};
  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_EQ(spec.jobs[j].processes.size(), 2u);
    EXPECT_EQ(spec.jobs[j].processes[0].kind,
              ProcessPattern::Kind::kPeriodicBurst);
    EXPECT_EQ(spec.jobs[j].processes[1].kind,
              ProcessPattern::Kind::kContinuous);
    EXPECT_DOUBLE_EQ(spec.jobs[j].processes[1].start_delay.to_seconds(),
                     delays[j]);
  }
  // Job 3 has the smallest burst (the paper's biggest lender).
  EXPECT_LT(spec.jobs[2].processes[0].burst_rpcs,
            spec.jobs[0].processes[0].burst_rpcs);
  EXPECT_LT(spec.jobs[2].processes[0].burst_rpcs,
            spec.jobs[1].processes[0].burst_rpcs);
}

TEST(PaperScenarios, ControlKnobPropagates) {
  EXPECT_EQ(scenario_token_allocation(BwControl::kNone).control,
            BwControl::kNone);
  EXPECT_EQ(scenario_token_redistribution(BwControl::kStatic).control,
            BwControl::kStatic);
}

TEST(PaperScenarios, ObservationPeriodIsHundredMs) {
  // §IV-H selects 100 ms for all experiments.
  for (const auto& spec :
       {scenario_token_allocation(BwControl::kAdaptive),
        scenario_token_redistribution(BwControl::kAdaptive),
        scenario_token_recompensation(BwControl::kAdaptive)}) {
    EXPECT_EQ(spec.observation_period.ns(),
              SimDuration::millis(100).ns());
  }
}

TEST(PaperScenarios, TotalNodesSumsJobAllocations) {
  const auto spec = scenario_token_allocation(BwControl::kAdaptive);
  EXPECT_EQ(total_nodes(spec), 10u);
  EXPECT_DOUBLE_EQ(node_share(spec, JobId(99)), 0.0);  // unknown job
}

}  // namespace
}  // namespace adaptbf
