// Search over TCP workers: the adaptive dispatch executor must produce a
// journal byte-identical to the single-process run — with a healthy
// 2-worker fleet, and with one worker hard-killed mid-lease.
#include "search/driver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "search/spec.h"
#include "sweep/dispatch.h"
#include "sweep/sweep_runner.h"

namespace adaptbf {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

SweepSpec base_sweep() {
  ScenarioSpec scenario;
  scenario.name = "fanout";
  for (std::uint32_t j = 1; j <= 2; ++j) {
    JobSpec job;
    job.id = JobId(j);
    job.name = "J";
    job.name += std::to_string(j);
    job.nodes = j;
    job.processes.push_back(continuous_pattern(5000));
    scenario.jobs.push_back(std::move(job));
  }
  scenario.duration = SimDuration::seconds(2);

  SweepSpec sweep;
  sweep.name = "fanout_search";
  sweep.scenarios.push_back({"fanout", std::move(scenario)});
  sweep.policies = {BwControl::kAdaptive};
  sweep.base_seed = 29;
  return sweep;
}

/// Two repetitions per adjusting probe, so every controller step leases a
/// 2-trial batch — large enough for a worker to die between its rows.
SearchSpec bisect_spec(double mibps_bound) {
  SearchSpec spec;
  spec.controller = SearchControllerKind::kBisect;
  spec.input = "token_rate";
  spec.ladder = {50.0, 100.0, 200.0, 400.0};
  Threshold cap;
  cap.metric = SearchMetric::kMibps;
  cap.cmp = Threshold::Cmp::kLe;
  cap.bound = mibps_bound;
  spec.slo = {cap};
  spec.objective = MetricSpec{SearchMetric::kMibps};
  spec.budget = 16;
  spec.probe_repetitions = 2;
  spec.test_repetitions = 3;
  return spec;
}

SearchDriverOptions test_options() {
  SearchDriverOptions options;
  options.sink.fsync = false;
  return options;
}

struct FanoutSetup {
  SweepSpec sweep = base_sweep();
  SearchSpec spec;
  std::vector<TrialSpec> trials;

  FanoutSetup() {
    trials = bisect_spec(0.0).probe_sweep(sweep).expand();
    // Place the SLO bound between the measured rung-1 and rung-2 means,
    // so rung 1 is the largest feasible rate whatever the calibration.
    const std::uint32_t reps = bisect_spec(0.0).grid_repetitions();
    std::vector<TrialSpec> subset;
    for (std::size_t k = 1; k <= 2; ++k) {
      subset.push_back(trials[k * reps]);
      subset.push_back(trials[k * reps + 1]);
    }
    SweepRunner::Options options;
    options.threads = 2;
    const std::vector<TrialResult> rows = SweepRunner(options).run(subset);
    const double rung1 = (rows[0].aggregate_mibps + rows[1].aggregate_mibps) / 2.0;
    const double rung2 = (rows[2].aggregate_mibps + rows[3].aggregate_mibps) / 2.0;
    EXPECT_LT(rung1, rung2);
    spec = bisect_spec((rung1 + rung2) / 2.0);
    EXPECT_EQ(spec.validate(sweep), "");
  }

  /// The single-process golden run.
  std::string local_bytes(SearchOutcome& outcome_out) {
    const std::string path = testing::TempDir() + "/fanout_local.jsonl";
    std::remove(path.c_str());
    auto executor = make_local_probe_executor(trials, 2, nullptr);
    outcome_out = run_search(spec, sweep.name, trials, path, /*resume=*/false,
                             *executor, test_options());
    EXPECT_TRUE(outcome_out.ok()) << outcome_out.error;
    return read_file(path);
  }

  /// Runs the search through an adaptive coordinator with two workers,
  /// the second optionally aborting (hard socket close) after its first
  /// streamed row of a lease.
  SearchOutcome dispatch_run(const std::string& path, bool kill_one_worker) {
    std::remove(path.c_str());
    DispatchCoordinatorOptions coord_options;
    coord_options.port = 0;
    coord_options.lease_size = 2;
    coord_options.lease_timeout_s = kill_one_worker ? 1.0 : 10.0;
    coord_options.sink.fsync = false;
    auto opened =
        DispatchCoordinator::open_adaptive(sweep.name, trials, coord_options);
    if (!opened.ok()) {
      SearchOutcome failed;
      failed.error = opened.error;
      return failed;
    }
    DispatchCoordinator& coordinator = *opened.coordinator;
    const std::uint16_t port = coordinator.port();

    DispatchWorkerOptions worker_options;
    worker_options.threads = 1;
    worker_options.heartbeat_interval_s = 0.2;
    worker_options.connect_wait_s = 10.0;
    DispatchWorkerOptions victim_options = worker_options;
    victim_options.abort_after_rows = 1;

    std::thread steady([&] {
      (void)run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                worker_options);
    });
    std::thread second([&, kill_one_worker] {
      (void)run_dispatch_worker(
          "127.0.0.1", port, sweep.name, trials,
          kill_one_worker ? victim_options : worker_options);
    });

    auto executor = make_dispatch_probe_executor(coordinator);
    SearchDriverOptions options = test_options();
    options.metrics = &coordinator.registry();
    const SearchOutcome outcome = run_search(
        spec, sweep.name, trials, path, /*resume=*/false, *executor, options);
    coordinator.finish();
    steady.join();
    second.join();

    // Live search progress rides the coordinator's stats registry.
    EXPECT_EQ(coordinator.registry().gauge(kMetricSearchConverged).value(),
              outcome.converged ? 1.0 : 0.0);
    EXPECT_EQ(coordinator.registry().counter(kMetricSearchSteps).value(),
              outcome.steps);
    return outcome;
  }
};

TEST(SearchDispatch, TwoWorkerFleetReproducesTheLocalJournalBytes) {
  FanoutSetup setup;
  SearchOutcome local;
  const std::string golden = setup.local_bytes(local);
  ASSERT_TRUE(local.ok()) << local.error;
  ASSERT_TRUE(local.best_index.has_value());
  EXPECT_EQ(*local.best_index, 1u);

  const std::string path = testing::TempDir() + "/fanout_fleet.jsonl";
  const SearchOutcome outcome = setup.dispatch_run(path, false);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_TRUE(outcome.converged);
  ASSERT_TRUE(outcome.best_index.has_value());
  EXPECT_EQ(*outcome.best_index, *local.best_index);
  EXPECT_EQ(outcome.best_input, local.best_input);
  EXPECT_EQ(outcome.steps, local.steps);
  EXPECT_EQ(outcome.trials_run, local.trials_run);
  EXPECT_EQ(read_file(path), golden);
}

TEST(SearchDispatch, WorkerKilledMidLeaseStillConvergesByteIdentically) {
  FanoutSetup setup;
  SearchOutcome local;
  const std::string golden = setup.local_bytes(local);
  ASSERT_TRUE(local.ok()) << local.error;

  const std::string path = testing::TempDir() + "/fanout_victim.jsonl";
  const SearchOutcome outcome = setup.dispatch_run(path, true);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_TRUE(outcome.converged);
  ASSERT_TRUE(outcome.best_index.has_value());
  EXPECT_EQ(*outcome.best_index, *local.best_index);
  EXPECT_EQ(outcome.best_input, local.best_input);
  EXPECT_EQ(read_file(path), golden);
}

}  // namespace
}  // namespace adaptbf
