#include "sweep/sweep_io.h"

#include <gtest/gtest.h>

namespace adaptbf {
namespace {

constexpr const char* kMinimal = R"(
[sweep]
policies = static, adaptive
scenario = token_allocation
)";

TEST(SweepIo, MinimalSweepParses) {
  const auto loaded = load_sweep(kMinimal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const SweepSpec& spec = *loaded.spec;
  EXPECT_EQ(spec.name, "sweep");  // Default.
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0], BwControl::kStatic);
  EXPECT_EQ(spec.policies[1], BwControl::kAdaptive);
  ASSERT_EQ(spec.scenarios.size(), 1u);
  EXPECT_EQ(spec.scenarios[0].label, "token_allocation");
  EXPECT_FALSE(spec.scenarios[0].spec.jobs.empty());
  EXPECT_EQ(spec.repetitions, 1u);
  EXPECT_TRUE(loaded.csv_path.empty());
}

TEST(SweepIo, FullSweepParses) {
  const auto loaded = load_sweep(R"(
[sweep]
name = campaign
policies = none, gift
scenario = token_allocation
scenario = redistribution
scenario = recompensation
repetitions = 4
base_seed = 42
start_jitter_ms = 250
duration_s = 30

[grid]
osts = 1, 2, 4
token_rate = 1200, 1600

[output]
csv = out.csv
json = out.json
)");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const SweepSpec& spec = *loaded.spec;
  EXPECT_EQ(spec.name, "campaign");
  EXPECT_EQ(spec.scenarios.size(), 3u);
  EXPECT_EQ(spec.repetitions, 4u);
  EXPECT_EQ(spec.base_seed, 42u);
  EXPECT_EQ(spec.start_jitter, SimDuration::millis(250));
  // [sweep] duration_s is a one-value axis ahead of the [grid] axes.
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes[0].key, "duration_s");
  EXPECT_EQ(spec.axes[0].values, std::vector<std::string>{"30"});
  EXPECT_EQ(spec.axes[1].key, "osts");
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::string>{"1", "2", "4"}));
  EXPECT_EQ(spec.axes[2].key, "token_rate");
  EXPECT_EQ(spec.axes[2].values, (std::vector<std::string>{"1200", "1600"}));
  EXPECT_EQ(loaded.csv_path, "out.csv");
  EXPECT_EQ(loaded.json_path, "out.json");
  // 3 scenarios x 2 policies x 3 osts x 2 rates x 4 reps.
  EXPECT_EQ(spec.trial_count(), 144u);
}

TEST(SweepIo, GridAxesExpandOutermostFirstWithStableCellIds) {
  // Pinned: trial order and cell ids of an osts x token_rate grid. The
  // policy axis is outermost, then the [grid] axes in file order, then
  // the repetitions; both axes have their own cell-id fields.
  const auto loaded = load_sweep(R"(
[sweep]
policies = static, adaptive
scenario = token_allocation
repetitions = 2

[grid]
osts = 1, 2, 4
token_rate = 1200, 1600
)");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const char* const cells[] = {
      "token_allocation|Static BW|1|1200", "token_allocation|Static BW|1|1600",
      "token_allocation|Static BW|2|1200", "token_allocation|Static BW|2|1600",
      "token_allocation|Static BW|4|1200", "token_allocation|Static BW|4|1600",
      "token_allocation|AdapTBF|1|1200",   "token_allocation|AdapTBF|1|1600",
      "token_allocation|AdapTBF|2|1200",   "token_allocation|AdapTBF|2|1600",
      "token_allocation|AdapTBF|4|1200",   "token_allocation|AdapTBF|4|1600",
  };
  const std::vector<TrialSpec> trials = loaded.spec->expand();
  ASSERT_EQ(trials.size(), 24u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialSpec& trial = trials[i];
    EXPECT_EQ(trial.index, i);
    EXPECT_EQ(trial.cell_id(), cells[i / 2]) << "trial " << i;
    EXPECT_EQ(trial.repetition, i % 2);
    EXPECT_EQ(trial.scenario, "token_allocation");
    EXPECT_EQ(trial.spec.name, "token_allocation");
    EXPECT_EQ(trial.spec.num_osts, trial.num_osts);
    EXPECT_EQ(trial.spec.max_token_rate, trial.max_token_rate);
  }
}

TEST(SweepIo, GridTakesAnyScenarioKeyAndLabelsItsCells) {
  const auto loaded = load_sweep(R"(
[sweep]
policies = adaptive
scenario = recompensation
duration_s = 20
repetitions = 2

[grid]
redistribution = true, false
observation_ms = 50, 200
apply_latency_ms = 25
)");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const std::vector<TrialSpec> trials = loaded.spec->expand();
  ASSERT_EQ(trials.size(), 8u);
  // File order, outermost first. A one-value axis labels too, so that
  // editing it changes the grid hash; [sweep] duration_s is hashed as the
  // spec's duration instead.
  const char* const labels[] = {
      "recompensation@redistribution=true@observation_ms=50"
      "@apply_latency_ms=25",
      "recompensation@redistribution=true@observation_ms=200"
      "@apply_latency_ms=25",
      "recompensation@redistribution=false@observation_ms=50"
      "@apply_latency_ms=25",
      "recompensation@redistribution=false@observation_ms=200"
      "@apply_latency_ms=25",
  };
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialSpec& trial = trials[i];
    EXPECT_EQ(trial.scenario, labels[i / 2]);
    EXPECT_EQ(trial.spec.name, labels[i / 2]);
    EXPECT_EQ(trial.cell_id(), std::string(labels[i / 2]) + "|AdapTBF|1|-1");
    EXPECT_EQ(trial.repetition, i % 2);
    EXPECT_EQ(trial.spec.enable_redistribution, i < 4);
    EXPECT_EQ(trial.spec.observation_period,
              SimDuration::millis(i % 4 < 2 ? 50 : 200));
    EXPECT_EQ(trial.spec.controller_apply_latency, SimDuration::millis(25));
    EXPECT_EQ(trial.spec.duration, SimDuration::seconds(20));
  }
}

TEST(SweepIo, BadAxesFailNamingTheKey) {
  const struct {
    const char* sweep;
    const char* grid;
    const char* needle;
  } cases[] = {
      {"", "osts = 4294967296", "osts"},
      {"", "osts = 2, 2.5", "osts"},
      {"", "bucket_depth = 0.5", "bucket_depth"},
      {"", "timeline_bin_ms = 0", "timeline_bin_ms"},
      {"", "token_rate = 0", "token_rate"},
      {"", "observation_ms =", "observation_ms"},
      {"", "name = a, b", "name"},
      {"", "control = static", "control"},
      {"", "speed = 1, 2", "speed"},
      {"", "max_token_rate = 900", "'max_token_rate' is the token_rate axis"},
      {"", "osts = 1\nosts = 2", "osts is set twice"},
      {"duration_s = 0\n", "", "duration_s"},
      {"duration_s = 10\n", "duration_s = 5, 20", "duration_s"},
  };
  for (const auto& bad : cases) {
    const auto loaded = load_sweep(
        std::string("[sweep]\npolicies = none\nscenario = token_allocation\n") +
        bad.sweep + "[grid]\n" + bad.grid + "\n");
    EXPECT_FALSE(loaded.ok()) << "accepted " << bad.sweep << bad.grid;
    EXPECT_NE(loaded.error.find(bad.needle), std::string::npos)
        << loaded.error;
  }
}

TEST(SweepIo, StartJitterIsBoundedLikeEveryDuration) {
  const auto with_jitter = [](const char* jitter_ms) {
    return load_sweep(
        std::string("[sweep]\npolicies = none\nscenario = token_allocation\n"
                    "start_jitter_ms = ") +
        jitter_ms + "\n");
  };
  // At most 1e9 s; 1e300 ms used to overflow SimDuration's int64 ns.
  EXPECT_EQ(with_jitter("1e12").spec.value().start_jitter,
            SimDuration::seconds(1000000000));
  for (const char* bad : {"1e300", "1.000001e12", "-1", "inf", "soon"}) {
    const SweepLoadResult loaded = with_jitter(bad);
    EXPECT_FALSE(loaded.ok()) << bad;
    EXPECT_NE(loaded.error.find("start_jitter_ms"), std::string::npos)
        << loaded.error;
  }
}

TEST(SweepIo, MissingPoliciesFails) {
  const auto loaded = load_sweep("[sweep]\nscenario = token_allocation\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("policies"), std::string::npos);
}

TEST(SweepIo, MissingScenarioFails) {
  const auto loaded = load_sweep("[sweep]\npolicies = none\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("scenario"), std::string::npos);
}

TEST(SweepIo, BadPolicyNameFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none, bogus\nscenario = token_allocation\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("bogus"), std::string::npos);
}

TEST(SweepIo, UnknownKeyFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\ntypo = 1\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("typo"), std::string::npos);
}

TEST(SweepIo, UnknownSectionFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\n[extra]\nx = "
      "1\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("extra"), std::string::npos);
}

TEST(SweepIo, ZeroRepetitionsFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\nrepetitions = "
      "0\n");
  EXPECT_FALSE(loaded.ok());
}

TEST(SweepIo, BadGridValueFails) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\n[grid]\nosts = "
      "1, zero\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("zero"), std::string::npos);
}

TEST(SweepIo, EmptyScenarioValueFails) {
  const auto loaded = load_sweep("[sweep]\npolicies = none\nscenario =\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("empty scenario"), std::string::npos);
}

TEST(SweepIo, MissingScenarioFileReportsPath) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = does/not/exist.ini\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("does/not/exist.ini"), std::string::npos);
}

TEST(SweepIo, LoadSweepFileMissingFails) {
  const auto loaded = load_sweep_file("/nonexistent/sweep.ini");
  EXPECT_FALSE(loaded.ok());
}

TEST(SweepIo, JsonlOutputKeyParses) {
  const auto loaded = load_sweep(
      "[sweep]\npolicies = none\nscenario = token_allocation\n"
      "[output]\njsonl = campaign.jsonl\n");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.jsonl_path, "campaign.jsonl");
  EXPECT_TRUE(loaded.csv_path.empty());
}

TEST(SweepIo, NonFiniteTokenRateFails) {
  // Regression: strtod-based parsing accepted nan/inf/hex token rates,
  // which then flowed into trial specs and exports.
  for (const char* bad : {"nan", "inf", "-inf", "0x1p4", "1e999"}) {
    const auto loaded = load_sweep(
        std::string("[sweep]\npolicies = none\nscenario = token_allocation\n"
                    "[grid]\ntoken_rate = ") +
        bad + "\n");
    EXPECT_FALSE(loaded.ok()) << "accepted token_rate = " << bad;
  }
}

TEST(SweepIo, SearchSectionEntriesForwardedInFileOrder) {
  // [search] keys are not interpreted here — they are forwarded verbatim
  // and positionally to search/search_io.h, duplicates included (the
  // search loader owns rejecting them, with a key-specific message).
  const auto loaded = load_sweep(R"(
[sweep]
policies = adaptive
scenario = token_allocation

[search]
controller = bisect
ladder = 400, 800
controller = golden
)");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_TRUE(loaded.has_search());
  ASSERT_EQ(loaded.search_entries.size(), 3u);
  EXPECT_EQ(loaded.search_entries[0],
            (std::pair<std::string, std::string>{"controller", "bisect"}));
  EXPECT_EQ(loaded.search_entries[1],
            (std::pair<std::string, std::string>{"ladder", "400, 800"}));
  EXPECT_EQ(loaded.search_entries[2],
            (std::pair<std::string, std::string>{"controller", "golden"}));
}

TEST(SweepIo, EmptySearchSectionStillMarksTheSweepAsASearch) {
  // The CLI routes on has_search(): an empty [search] heading must still
  // steer the file to `sweep_cli search` (where the loader will demand
  // its required keys), not silently run as a plain sweep.
  const auto loaded = load_sweep(
      "[sweep]\npolicies = adaptive\nscenario = token_allocation\n"
      "[search]\n");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_TRUE(loaded.has_search());
  EXPECT_TRUE(loaded.search_entries.empty());
}

TEST(SweepIo, SweepWithoutSearchSectionHasNoSearch) {
  const auto loaded = load_sweep(kMinimal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_FALSE(loaded.has_search());
}

}  // namespace
}  // namespace adaptbf
