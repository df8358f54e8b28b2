#include "workload/scenario_io.h"

#include <gtest/gtest.h>

namespace adaptbf {
namespace {

constexpr const char* kValid = R"ini(
[scenario]
name = demo
control = adaptive
duration_s = 30
observation_ms = 50
stop_when_idle = true

[server]
osts = 2
threads = 8
seq_bandwidth_mibps = 800
rand_bandwidth_mibps = 200
overhead_us = 25

[client]
rpc_size_kib = 512
max_inflight = 4

[job.1]
name = small
nodes = 1
process = continuous total=1024 count=4

[job.2]
name = bursty
nodes = 3
process = burst total=640 burst=64 period_s=5 delay_s=2 count=2 random=true
)ini";

TEST(ScenarioIo, LoadsValidFile) {
  const auto result = load_scenario(kValid);
  ASSERT_TRUE(result.ok()) << result.error;
  const ScenarioSpec& spec = *result.spec;
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.control, BwControl::kAdaptive);
  EXPECT_DOUBLE_EQ(spec.duration.to_seconds(), 30.0);
  EXPECT_DOUBLE_EQ(spec.observation_period.to_seconds(), 0.05);
  EXPECT_TRUE(spec.stop_when_idle);
  EXPECT_EQ(spec.num_osts, 2u);
  EXPECT_EQ(spec.num_threads, 8u);
  EXPECT_DOUBLE_EQ(spec.disk.seq_bandwidth, 800.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(spec.disk.per_rpc_overhead.to_seconds(), 25e-6);
  EXPECT_EQ(spec.rpc_size_bytes, 512u * 1024);
  EXPECT_EQ(spec.max_inflight_per_process, 4u);
  ASSERT_EQ(spec.jobs.size(), 2u);
  EXPECT_EQ(spec.jobs[0].name, "small");
  EXPECT_EQ(spec.jobs[0].nodes, 1u);
  EXPECT_EQ(spec.jobs[0].processes.size(), 4u);
  EXPECT_EQ(spec.jobs[0].processes[0].kind,
            ProcessPattern::Kind::kContinuous);
  EXPECT_EQ(spec.jobs[1].processes.size(), 2u);
  const auto& burst = spec.jobs[1].processes[0];
  EXPECT_EQ(burst.kind, ProcessPattern::Kind::kPeriodicBurst);
  EXPECT_EQ(burst.total_rpcs, 640u);
  EXPECT_EQ(burst.burst_rpcs, 64u);
  EXPECT_DOUBLE_EQ(burst.period.to_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(burst.start_delay.to_seconds(), 2.0);
  EXPECT_EQ(burst.locality, Locality::kRandom);
}

TEST(ScenarioIo, DefaultsApplyWhenKeysOmitted) {
  const auto result = load_scenario(
      "[job.1]\nprocess = continuous total=10\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec->control, BwControl::kAdaptive);
  EXPECT_EQ(result.spec->num_osts, 1u);
  EXPECT_EQ(result.spec->jobs[0].name, "Job1");  // derived from section id
  EXPECT_EQ(result.spec->jobs[0].nodes, 1u);
}

TEST(ScenarioIo, RejectsUnknownSection) {
  const auto result =
      load_scenario("[serverz]\nthreads = 2\n[job.1]\nprocess = continuous "
                    "total=1\n");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("serverz"), std::string::npos);
}

TEST(ScenarioIo, RejectsUnknownKeys) {
  EXPECT_FALSE(load_scenario("[scenario]\nspeed = 9\n[job.1]\nprocess = "
                             "continuous total=1\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = continuous total=1 "
                             "warp=9\n")
                   .ok());
}

TEST(ScenarioIo, RejectsBadValues) {
  EXPECT_FALSE(
      load_scenario("[scenario]\ncontrol = chaotic\n[job.1]\nprocess = "
                    "continuous total=1\n")
          .ok());
  EXPECT_FALSE(load_scenario("[scenario]\nduration_s = -3\n[job.1]\n"
                             "process = continuous total=1\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[server]\nosts = 0\n[job.1]\nprocess = "
                             "continuous total=1\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[job.0]\nprocess = continuous total=1\n").ok());
  EXPECT_FALSE(load_scenario("[job.abc]\nprocess = continuous total=1\n").ok());
}

/// Loads a one-job scenario with `lines` prepended; the load must fail
/// with an error that names `key`.
void expect_rejected(const std::string& lines, const std::string& key) {
  const auto result =
      load_scenario(lines + "\n[job.1]\nprocess = continuous total=1\n");
  EXPECT_FALSE(result.ok()) << "accepted: " << lines;
  EXPECT_NE(result.error.find(key), std::string::npos) << result.error;
}

// Malformed values are errors, one case per value kind. Earlier loaders
// fell back to the default for each of these.
TEST(ScenarioIo, MalformedDurationIsAnError) {
  expect_rejected("[scenario]\nobservation_ms = 10ms", "observation_ms");
  expect_rejected("[server]\noverhead_us = fast", "overhead_us");
}

TEST(ScenarioIo, MalformedFlagIsAnError) {
  expect_rejected("[scenario]\nredistribution = maybe", "redistribution");
  expect_rejected("[scenario]\nstop_when_idle = 2", "stop_when_idle");
}

TEST(ScenarioIo, MalformedCountIsAnError) {
  expect_rejected("[server]\nthreads = 8x", "threads");
  expect_rejected("[client]\nmax_inflight = 4.5", "max_inflight");
  const auto nodes = load_scenario(
      "[job.1]\nnodes = 2.5\nprocess = continuous total=1\n");
  EXPECT_FALSE(nodes.ok());
  EXPECT_NE(nodes.error.find("nodes"), std::string::npos) << nodes.error;
}

TEST(ScenarioIo, MalformedNumberIsAnError) {
  expect_rejected("[scenario]\nbucket_depth = three", "bucket_depth");
  expect_rejected("[server]\nseq_bandwidth_mibps = 1e999",
                  "seq_bandwidth_mibps");
}

TEST(ScenarioIo, OutOfRangeValuesAreErrorsNotAborts) {
  // Each of these once wrapped or reached an ADAPTBF_CHECK at run time.
  expect_rejected("[server]\nosts = 4294967296", "osts");
  expect_rejected("[server]\nosts = 4294967297", "osts");
  expect_rejected("[server]\nthreads = 4294967296", "threads");
  expect_rejected("[client]\nmax_inflight = 4294967296", "max_inflight");
  expect_rejected("[client]\nrpc_size_kib = 4194304", "rpc_size_kib");
  expect_rejected("[scenario]\ntimeline_bin_ms = 0", "timeline_bin_ms");
  expect_rejected("[scenario]\ntimeline_bin_ms = 1e-9", "timeline_bin_ms");
  expect_rejected("[scenario]\nduration_s = 1e300", "duration_s");
  expect_rejected("[scenario]\napply_latency_ms = -5", "apply_latency_ms");
  expect_rejected("[scenario]\nmax_token_rate = 0", "max_token_rate");
  expect_rejected("[scenario]\nmax_token_rate = -1", "max_token_rate");
  expect_rejected("[scenario]\newma_alpha = 1.5", "ewma_alpha");
  expect_rejected("[scenario]\nbucket_depth = 0.5", "bucket_depth");
}

TEST(ScenarioIo, RangeEdgesAreAccepted) {
  const auto result = load_scenario(
      "[scenario]\napply_latency_ms = 0\newma_alpha = 1\n"
      "bucket_depth = 1\nmax_token_rate = 0.5\n"
      "[client]\nrpc_size_kib = 4194303\n"
      "[job.1]\nprocess = continuous total=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec->rpc_size_bytes, 4194303u * 1024);
  EXPECT_EQ(result.spec->max_token_rate, 0.5);
}

TEST(ScenarioIo, DuplicateKeysAreErrors) {
  expect_rejected("[scenario]\nbucket_depth = 2\nbucket_depth = 4",
                  "duplicate key 'bucket_depth'");
}

TEST(ScenarioIo, ApplyScenarioKeyParsesLikeAFile) {
  ScenarioSpec spec;
  EXPECT_EQ(apply_scenario_key(spec, "observation_ms", "250"), "");
  EXPECT_EQ(spec.observation_period, SimDuration::millis(250));
  // Flags read true/yes/on/1 and false/no/off/0, in any case.
  for (const char* word : {"off", "0", "No", "FALSE"}) {
    spec.enable_redistribution = true;
    EXPECT_EQ(apply_scenario_key(spec, "redistribution", word), "") << word;
    EXPECT_FALSE(spec.enable_redistribution) << word;
  }
  for (const char* word : {"yes", "on", "1", "TRUE", "On"}) {
    spec.enable_redistribution = false;
    EXPECT_EQ(apply_scenario_key(spec, "redistribution", word), "") << word;
    EXPECT_TRUE(spec.enable_redistribution) << word;
  }
  EXPECT_EQ(apply_scenario_key(spec, "rpc_size_kib", "64"), "");
  EXPECT_EQ(spec.rpc_size_bytes, 64u * 1024);

  // A rejected value names the key and leaves the spec unchanged.
  const std::string error = apply_scenario_key(spec, "ewma_alpha", "0");
  EXPECT_NE(error.find("ewma_alpha"), std::string::npos) << error;
  EXPECT_EQ(spec.ewma_alpha, ScenarioSpec{}.ewma_alpha);
  EXPECT_NE(apply_scenario_key(spec, "speed", "9").find("speed"),
            std::string::npos);
}

TEST(ScenarioIo, RejectsBadProcessLines) {
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = burst total=10\n").ok());
  EXPECT_FALSE(
      load_scenario("[job.1]\nprocess = burst total=10 burst=0 period_s=1\n")
          .ok());
  EXPECT_FALSE(
      load_scenario("[job.1]\nprocess = continuous total=10 burst=5\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = teleport total=10\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = continuous total=10 "
                             "count=0\n")
                   .ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess =\n").ok());
}

TEST(ScenarioIo, RejectsJoblessScenario) {
  EXPECT_FALSE(load_scenario("[scenario]\nname = empty\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nname = noproc\n").ok());
}

TEST(ScenarioIo, RoundTripsThroughIni) {
  const auto first = load_scenario(kValid);
  ASSERT_TRUE(first.ok());
  const std::string rendered = scenario_to_ini(*first.spec);
  const auto second = load_scenario(rendered);
  ASSERT_TRUE(second.ok()) << second.error << "\n" << rendered;
  const ScenarioSpec& a = *first.spec;
  const ScenarioSpec& b = *second.spec;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.control, b.control);
  EXPECT_EQ(a.duration.ns(), b.duration.ns());
  EXPECT_EQ(a.observation_period.ns(), b.observation_period.ns());
  EXPECT_EQ(a.num_osts, b.num_osts);
  EXPECT_EQ(a.rpc_size_bytes, b.rpc_size_bytes);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].id, b.jobs[j].id);
    EXPECT_EQ(a.jobs[j].nodes, b.jobs[j].nodes);
    ASSERT_EQ(a.jobs[j].processes.size(), b.jobs[j].processes.size());
    for (std::size_t p = 0; p < a.jobs[j].processes.size(); ++p) {
      EXPECT_EQ(a.jobs[j].processes[p].kind, b.jobs[j].processes[p].kind);
      EXPECT_EQ(a.jobs[j].processes[p].total_rpcs,
                b.jobs[j].processes[p].total_rpcs);
      EXPECT_EQ(a.jobs[j].processes[p].period.ns(),
                b.jobs[j].processes[p].period.ns());
      EXPECT_EQ(a.jobs[j].processes[p].locality,
                b.jobs[j].processes[p].locality);
    }
  }
}

TEST(ScenarioIo, PoissonProcessParses) {
  const auto result = load_scenario(
      "[job.1]\nprocess = poisson total=500 rate=25.5 seed=9 delay_s=2\n");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& process = result.spec->jobs[0].processes[0];
  EXPECT_EQ(process.kind, ProcessPattern::Kind::kPoisson);
  EXPECT_EQ(process.total_rpcs, 500u);
  EXPECT_DOUBLE_EQ(process.poisson_rate, 25.5);
  EXPECT_EQ(process.seed, 9u);
  EXPECT_DOUBLE_EQ(process.start_delay.to_seconds(), 2.0);
}

TEST(ScenarioIo, PoissonRejectsBadShapes) {
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = poisson total=10\n").ok());
  EXPECT_FALSE(
      load_scenario("[job.1]\nprocess = poisson total=10 rate=0\n").ok());
  EXPECT_FALSE(load_scenario("[job.1]\nprocess = poisson total=10 rate=5 "
                             "burst=4\n")
                   .ok());
}

TEST(ScenarioIo, PoissonRoundTrips) {
  ScenarioSpec spec;
  JobSpec job;
  job.id = JobId(1);
  job.processes.push_back(poisson_pattern(500, 25.5, 9));
  spec.jobs.push_back(job);
  const auto reloaded = load_scenario(scenario_to_ini(spec));
  ASSERT_TRUE(reloaded.ok()) << reloaded.error;
  const auto& process = reloaded.spec->jobs[0].processes[0];
  EXPECT_EQ(process.kind, ProcessPattern::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(process.poisson_rate, 25.5);
  EXPECT_EQ(process.seed, 9u);
}

TEST(ScenarioIo, GiftControlParses) {
  const auto result = load_scenario(
      "[scenario]\ncontrol = gift\n[job.1]\nprocess = continuous "
      "total=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spec->control, BwControl::kGift);
}

TEST(ScenarioIo, MissingFileReportsError) {
  const auto result = load_scenario_file("/nonexistent/path.ini");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace adaptbf
