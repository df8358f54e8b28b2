// End-to-end search driver: a real bisection over token_rate on a small
// simulated workload, plus the golden determinism property — a search
// killed at ANY byte boundary and resumed must reproduce the
// uninterrupted journal byte for byte and converge to the same answer.
#include "search/driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "search/journal.h"
#include "search/spec.h"
#include "sweep/resume.h"
#include "sweep/sweep_runner.h"

namespace adaptbf {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream file(path, std::ios::binary);
  file << contents;
}

/// Continuous backlogged demand, so aggregate throughput is pinned to the
/// token-rate cap and rises monotonically along the ladder.
SweepSpec base_sweep() {
  ScenarioSpec scenario;
  scenario.name = "driver";
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
  sweep.name = "driver_search";
  sweep.scenarios.push_back({"driver", std::move(scenario)});
  sweep.policies = {BwControl::kAdaptive};
  sweep.base_seed = 17;
  return sweep;
}

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
  spec.probe_repetitions = 1;
  spec.test_repetitions = 2;
  return spec;
}

SearchDriverOptions test_options() {
  SearchDriverOptions options;
  options.sink.fsync = false;
  return options;
}

/// Measured throughput of each ladder rung's repetition 0 — the SLO bound
/// is placed between two measured rungs so the test is robust to
/// simulator calibration changes, as long as the response is monotone.
std::vector<double> rung_mibps(const std::vector<TrialSpec>& trials,
                               std::uint32_t reps, std::size_t rungs) {
  std::vector<TrialSpec> subset;
  for (std::size_t k = 0; k < rungs; ++k) subset.push_back(trials[k * reps]);
  SweepRunner::Options options;
  options.threads = 2;
  const std::vector<TrialResult> results = SweepRunner(options).run(subset);
  std::vector<double> mibps;
  for (const TrialResult& result : results)
    mibps.push_back(result.aggregate_mibps);
  return mibps;
}

struct SearchSetup {
  SweepSpec sweep = base_sweep();
  SearchSpec spec;
  std::vector<TrialSpec> trials;

  SearchSetup() {
    // Probe grid shape does not depend on the SLO, so measure first and
    // pick the bound afterwards.
    trials = bisect_spec(0.0).probe_sweep(sweep).expand();
    const std::vector<double> mibps =
        rung_mibps(trials, bisect_spec(0.0).grid_repetitions(), 4);
    // Feasibility (mibps <= bound) must fall as the rate cap rises.
    for (std::size_t k = 1; k < mibps.size(); ++k)
      EXPECT_LT(mibps[k - 1], mibps[k])
        << "throughput is not monotone in token_rate; rung " << k;
    spec = bisect_spec((mibps[1] + mibps[2]) / 2.0);
    EXPECT_EQ(spec.validate(sweep), "");
  }

  SearchOutcome run(const std::string& path, bool resume) {
    auto executor = make_local_probe_executor(trials, 2, nullptr);
    return run_search(spec, sweep.name, trials, path, resume, *executor,
                      test_options());
  }
};

TEST(SearchDriver, BisectionConvergesToTheBoundaryRungWithMemoizedProbes) {
  SearchSetup setup;
  const std::string path = testing::TempDir() + "/driver_full.jsonl";
  std::remove(path.c_str());
  const SearchOutcome outcome = setup.run(path, /*resume=*/false);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_TRUE(outcome.converged);
  EXPECT_FALSE(outcome.resumed);
  ASSERT_TRUE(outcome.best_index.has_value());
  // Bound sits between rungs 1 and 2: rung 1 is the largest feasible.
  EXPECT_EQ(*outcome.best_index, 1u);
  EXPECT_EQ(outcome.best_input, 100.0);
  EXPECT_TRUE(outcome.feasible);
  EXPECT_NE(outcome.test_verdict, Verdict::kLower);
  // lo, hi, two midpoints, then the testing stage.
  EXPECT_EQ(outcome.steps, 5u);
  EXPECT_EQ(outcome.steps_replayed, 0u);
  // 4 adjusting probes at 1 rep each + ONE new testing-stage repetition:
  // the test stage's first repetition is memoized from the adjust probe,
  // not re-run.
  EXPECT_EQ(outcome.trials_run, 5u);

  // The finished journal carries the testing-stage row.
  const SearchScan scan = scan_search_file(path, setup.sweep.name,
                                           setup.trials,
                                           setup.spec.search_hash());
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.test_complete());
}

TEST(SearchDriver, KillAndResumeIsByteIdenticalAtEveryTruncation) {
  SearchSetup setup;
  const std::string golden_path = testing::TempDir() + "/driver_golden.jsonl";
  std::remove(golden_path.c_str());
  const SearchOutcome golden = setup.run(golden_path, /*resume=*/false);
  ASSERT_TRUE(golden.ok()) << golden.error;
  const std::string golden_bytes = read_file(golden_path);
  ASSERT_FALSE(golden_bytes.empty());

  const std::string path = testing::TempDir() + "/driver_resume.jsonl";
  // ~13 cut points spanning torn header, mid-row, between-rows, and the
  // complete journal (a resume with nothing left to do).
  const std::size_t step = golden_bytes.size() / 12 + 1;
  for (std::size_t cut = 7; cut <= golden_bytes.size(); cut += step) {
    const std::size_t keep = std::min(cut, golden_bytes.size());
    write_file(path, golden_bytes.substr(0, keep));
    const SearchOutcome resumed = setup.run(path, /*resume=*/true);
    ASSERT_TRUE(resumed.ok()) << "cut at " << keep << ": " << resumed.error;
    EXPECT_EQ(read_file(path), golden_bytes) << "cut at " << keep;
    EXPECT_TRUE(resumed.converged);
    ASSERT_TRUE(resumed.best_index.has_value());
    EXPECT_EQ(*resumed.best_index, *golden.best_index);
    EXPECT_EQ(resumed.best_input, golden.best_input);
    EXPECT_EQ(resumed.steps, golden.steps);
  }

  // Resuming the complete journal replays every step and runs nothing.
  write_file(path, golden_bytes);
  const SearchOutcome replayed = setup.run(path, /*resume=*/true);
  ASSERT_TRUE(replayed.ok()) << replayed.error;
  EXPECT_TRUE(replayed.resumed);
  EXPECT_EQ(replayed.trials_run, 0u);
  EXPECT_EQ(replayed.steps_replayed, golden.steps);
  EXPECT_EQ(read_file(path), golden_bytes);
}

TEST(SearchDriver, RefusesStaleJournalsByName) {
  SearchSetup setup;
  const std::string path = testing::TempDir() + "/driver_refuse.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(setup.run(path, /*resume=*/false).ok());

  // Same search, no --resume: refuse rather than clobber.
  SearchOutcome outcome = setup.run(path, /*resume=*/false);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error.find("--resume"), std::string::npos)
      << outcome.error;

  // A different SLO is a different search: the journal's recorded steps
  // would replay divergently, so the hash gate refuses it up front.
  SearchSpec changed = setup.spec;
  changed.slo[0].bound += 1.0;
  auto executor = make_local_probe_executor(setup.trials, 2, nullptr);
  outcome = run_search(changed, setup.sweep.name, setup.trials, path,
                       /*resume=*/true, *executor, test_options());
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error.find("different search"), std::string::npos)
      << outcome.error;
}

}  // namespace
}  // namespace adaptbf
