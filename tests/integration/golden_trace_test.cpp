// Golden dispatch-order traces for the paper scenarios.
//
// Each entry pins the FNV-1a hash over the exact (fire time, schedule
// sequence) stream of every event the simulator dispatches for one
// scenario x policy run. The values were recorded with the pre-pool event
// queue (std::function + dual unordered_set + binary heap); the pooled
// slot/generation core must reproduce them bit-for-bit — this is the
// determinism contract that keeps figure benches and regression baselines
// byte-identical across event-core rewrites.
//
// If a deliberate semantic change to the simulator breaks these values,
// regenerate them from the *old* core first to prove the change is
// intended, then update the table in the same commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "cluster/experiment.h"
#include "support/random.h"
#include "workload/scenario.h"
#include "workload/scenarios_paper.h"

namespace adaptbf {
namespace {

struct GoldenCase {
  const char* scenario;
  const char* policy;  ///< bw_control_config_name token.
  std::uint64_t trace_hash;
};

// Recorded at PR 5 from the pre-refactor event core.
constexpr GoldenCase kGolden[] = {
    {"token_allocation", "none", 0x2af929689f36872bULL},
    {"token_allocation", "static", 0x74e42b6c348635e7ULL},
    {"token_allocation", "adaptive", 0x86b824f68c9eb647ULL},
    {"token_allocation", "gift", 0x74d8d182b4e21c1eULL},
    {"token_redistribution", "none", 0xbffead9dad0605f6ULL},
    {"token_redistribution", "static", 0x9b3c01c5343b7a9fULL},
    {"token_redistribution", "adaptive", 0x7b6d9ad42c45faefULL},
    {"token_redistribution", "gift", 0xb542ab7c738d3bc9ULL},
    {"token_recompensation", "none", 0xcd7634bdc48c3eb2ULL},
    {"token_recompensation", "static", 0x09311dbccb545120ULL},
    {"token_recompensation", "adaptive", 0xac5ba86fcf3bc1c0ULL},
    {"token_recompensation", "gift", 0xf67a1b14d62bdc38ULL},
};

ScenarioSpec make_scenario(const std::string& name, BwControl control) {
  if (name == "token_allocation") return scenario_token_allocation(control);
  if (name == "token_redistribution")
    return scenario_token_redistribution(control);
  return scenario_token_recompensation(control);
}

// A generated many-job mix: 40 jobs with seeded node counts and sparse
// ids, each with one continuous and one Poisson stream, on 4 OSTs at
// Δt = 10 ms. The paper scenarios run 4 jobs, so they never classify over
// dozens of rules, churn rules window to window (sporadic Poisson jobs go
// idle and come back), or fill many-entry per-job tables; this one does.
ScenarioSpec many_jobs_scenario(BwControl control) {
  Xoshiro256 rng(0x6d616e795f6a6f62ULL);
  ScenarioSpec spec;
  spec.name = "many_jobs";
  spec.control = control;
  spec.num_osts = 4;
  spec.observation_period = SimDuration::millis(10);
  spec.duration = SimDuration::millis(400);
  spec.rpc_size_bytes = 64 * 1024;
  std::uint32_t id = 0;
  for (int i = 0; i < 40; ++i) {
    id += static_cast<std::uint32_t>(rng.next_in(1, 9));
    JobSpec job;
    job.id = JobId(id);
    job.name = "tenant" + std::to_string(id);
    job.nodes = static_cast<std::uint32_t>(rng.next_in(1, 16));
    const std::uint64_t continuous_total = rng.next_in(40, 120);
    const auto continuous_delay =
        SimDuration::millis(static_cast<std::int64_t>(rng.next_in(0, 49)));
    job.processes.push_back(
        continuous_pattern(continuous_total, continuous_delay));
    const std::uint64_t poisson_total = rng.next_in(20, 60);
    const double poisson_rate = static_cast<double>(rng.next_in(50, 300));
    const std::uint64_t poisson_seed = rng.next();
    const auto poisson_delay =
        SimDuration::millis(static_cast<std::int64_t>(rng.next_in(0, 99)));
    job.processes.push_back(poisson_pattern(poisson_total, poisson_rate,
                                            poisson_seed, poisson_delay));
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

// Recorded from the linear-scan classifier and map-based per-job tables,
// before job-indexed classification replaced them.
constexpr GoldenCase kManyJobsGolden[] = {
    {"many_jobs", "static", 0xe4dd93257be68927ULL},
    {"many_jobs", "adaptive", 0x09675952669acbfeULL},
    {"many_jobs", "gift", 0x5e2a8133bef4cae6ULL},
};

struct TraceRun {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  ExperimentResult result;
};

TraceRun run_with_trace(const ScenarioSpec& spec, Simulator* reuse = nullptr) {
  TraceRun run;
  auto mix = [&run](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      run.hash ^= (v >> (8 * i)) & 0xff;
      run.hash *= 0x100000001b3ULL;  // FNV prime
    }
  };
  ExperimentOptions options;
  options.capture_allocation_trace = false;
  options.simulator = reuse;
  options.dispatch_hook = [&mix](SimTime t, std::uint64_t seq) {
    mix(static_cast<std::uint64_t>(t.ns()));
    mix(seq);
  };
  run.result = run_experiment(spec, options);
  return run;
}

TEST(GoldenTrace, PaperScenarioDispatchOrderIsPinned) {
  for (const auto& golden : kGolden) {
    const auto control = bw_control_from_name(golden.policy);
    ASSERT_TRUE(control.has_value()) << golden.policy;
    const auto run = run_with_trace(make_scenario(golden.scenario, *control));
    EXPECT_EQ(run.hash, golden.trace_hash)
        << golden.scenario << " / " << golden.policy
        << ": dispatch order changed — the determinism contract is broken";
  }
}

TEST(GoldenTrace, ManyJobsDispatchOrderIsPinned) {
  for (const auto& golden : kManyJobsGolden) {
    const auto control = bw_control_from_name(golden.policy);
    ASSERT_TRUE(control.has_value()) << golden.policy;
    const auto run = run_with_trace(many_jobs_scenario(*control));
    EXPECT_EQ(run.hash, golden.trace_hash)
        << golden.scenario << " / " << golden.policy
        << ": dispatch order changed — the determinism contract is broken";
  }
}

TEST(GoldenTraceArenaReuse, OneSimulatorAcrossAllRunsReproducesHashes) {
  // Exactly what a sweep worker does: one simulator, reset() between
  // trials, pools warm from the previous run. Every run must still hash to
  // its golden value — reuse may never leak state across trials.
  Simulator sim;
  for (const auto& golden : kGolden) {
    const auto control = bw_control_from_name(golden.policy);
    ASSERT_TRUE(control.has_value()) << golden.policy;
    const auto run =
        run_with_trace(make_scenario(golden.scenario, *control), &sim);
    EXPECT_EQ(run.hash, golden.trace_hash)
        << golden.scenario << " / " << golden.policy
        << ": reused-arena dispatch order diverged from a fresh simulator";
  }
  for (const auto& golden : kManyJobsGolden) {
    const auto control = bw_control_from_name(golden.policy);
    ASSERT_TRUE(control.has_value()) << golden.policy;
    const auto run = run_with_trace(many_jobs_scenario(*control), &sim);
    EXPECT_EQ(run.hash, golden.trace_hash)
        << golden.scenario << " / " << golden.policy
        << ": reused-arena dispatch order diverged from a fresh simulator";
  }
}

TEST(GoldenTrace, PreSizedArenaNeverGrows) {
  // run_experiment reserves estimate_peak_events(spec) events up front, so a
  // fresh simulator finishes every golden case without growing its slot
  // pool or heap, and every callback fits inline.
  const auto expect_presized = [](const ScenarioSpec& spec,
                                  const char* policy) {
    const ExperimentResult result =
        run_experiment(spec, ExperimentOptions::without_trace());
    EXPECT_EQ(result.queue_stats.pool_reallocations, 0u)
        << spec.name << " / " << policy;
    EXPECT_EQ(result.queue_stats.callback_heap_spills, 0u)
        << spec.name << " / " << policy;
    EXPECT_LE(result.event_pool_slots, estimate_peak_events(spec))
        << spec.name << " / " << policy;
  };
  for (const auto& golden : kGolden) {
    const auto control = bw_control_from_name(golden.policy);
    ASSERT_TRUE(control.has_value()) << golden.policy;
    expect_presized(make_scenario(golden.scenario, *control), golden.policy);
  }
  for (const auto& golden : kManyJobsGolden) {
    const auto control = bw_control_from_name(golden.policy);
    ASSERT_TRUE(control.has_value()) << golden.policy;
    expect_presized(many_jobs_scenario(*control), golden.policy);
  }
}

TEST(GoldenTrace, JobSummariesAreSortedAndFindable) {
  for (const char* scenario :
       {"token_allocation", "token_redistribution", "token_recompensation"}) {
    const auto result =
        run_experiment(make_scenario(scenario, BwControl::kAdaptive),
                       ExperimentOptions::without_trace());
    // find_job binary-searches, so the documented "ascending JobId"
    // invariant must actually hold.
    ASSERT_TRUE(std::is_sorted(
        result.jobs.begin(), result.jobs.end(),
        [](const JobSummary& a, const JobSummary& b) { return a.id < b.id; }))
        << scenario;
    for (const auto& job : result.jobs) {
      const JobSummary* found = result.find_job(job.id);
      ASSERT_NE(found, nullptr) << scenario;
      EXPECT_EQ(found->id, job.id);
      EXPECT_EQ(found->name, job.name);
    }
    EXPECT_EQ(result.find_job(JobId(0xfffffff0u)), nullptr);
  }
}

}  // namespace
}  // namespace adaptbf
