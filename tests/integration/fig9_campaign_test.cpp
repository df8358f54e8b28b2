// §IV-H as a campaign: examples/sweeps/paper/fig9_frequency.ini must
// reproduce bench/fig9_frequency.cpp's hand-built runs exactly, one trial
// per observation period Δt.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"
#include "workload/scenarios_paper.h"

namespace adaptbf {
namespace {

TEST(Fig9Campaign, EachTrialMatchesTheHandBuiltRun) {
  const SweepLoadResult loaded = load_sweep_file(
      ADAPTBF_SOURCE_DIR "/examples/sweeps/paper/fig9_frequency.ini");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const std::vector<TrialSpec> trials = loaded.spec->expand();
  const std::int64_t periods[] = {25, 50, 100, 200, 400, 800, 1600};
  ASSERT_EQ(trials.size(), std::size(periods));

  SweepRunner::Options options;
  options.threads = 2;
  const std::vector<TrialResult> results = SweepRunner(options).run(trials);
  ASSERT_EQ(results.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].scenario, "recompensation@observation_ms=" +
                                      std::to_string(periods[i]) +
                                      "@apply_latency_ms=25");
    // bench/fig9_frequency.cpp's spec for this Δt.
    ScenarioSpec spec = scenario_token_recompensation(BwControl::kAdaptive);
    spec.observation_period = SimDuration::millis(periods[i]);
    spec.controller_apply_latency = SimDuration::millis(25);
    const ExperimentResult reference =
        run_experiment(spec, ExperimentOptions::without_trace());
    EXPECT_EQ(results[i].aggregate_mibps, reference.aggregate_mibps)
        << "Δt = " << periods[i] << " ms";
  }
}

}  // namespace
}  // namespace adaptbf
