// The probe grid a search compiles its ladder into, and the search hash
// that guards resumed search journals. Labels, trial layout and hashes are
// pinned to the values written by earlier builds, so their journals
// still resume.
#include "search/spec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "search/search_io.h"
#include "sweep/sweep_io.h"

namespace adaptbf {
namespace {

/// The §IV-F workload under AdapTBF with a one-value osts axis: the
/// search must ride it without labelling anything after it.
SweepSpec recompensation_on_two_osts() {
  const auto loaded = load_sweep(R"(
[sweep]
policies = adaptive
scenario = recompensation
base_seed = 42

[grid]
osts = 2
)");
  EXPECT_TRUE(loaded.ok()) << loaded.error;
  return *loaded.spec;
}

SearchSpec search_over(const std::string& input, const std::string& ladder) {
  const auto loaded = load_search(
      {{"input", input}, {"ladder", ladder}, {"slo", "p99_ms<=250"}});
  EXPECT_TRUE(loaded.ok()) << loaded.error;
  return *loaded.spec;
}

/// Expands the probe grid and checks the k * R + j layout: rung k's
/// repetitions are contiguous and carry `labels[k]`.
std::vector<TrialSpec> expand_probe_grid(
    const SearchSpec& search, const std::vector<std::string>& labels) {
  const SweepSpec base = recompensation_on_two_osts();
  EXPECT_EQ(search.validate(base), "");
  const std::vector<TrialSpec> trials = search.probe_sweep(base).expand();
  const std::uint32_t reps = search.grid_repetitions();
  EXPECT_EQ(reps, 3u);
  EXPECT_EQ(trials.size(), labels.size() * reps);
  for (std::size_t k = 0; k < labels.size(); ++k) {
    for (std::uint32_t j = 0; j < reps; ++j) {
      const TrialSpec& trial = trials.at(k * reps + j);
      EXPECT_EQ(trial.index, k * reps + j);
      EXPECT_EQ(trial.repetition, j);
      EXPECT_EQ(trial.scenario, labels[k]);
      EXPECT_EQ(trial.spec.name, labels[k]);
      EXPECT_EQ(trial.policy, BwControl::kAdaptive);
      EXPECT_EQ(trial.num_osts, 2u);
      EXPECT_EQ(trial.spec.num_osts, 2u);
    }
  }
  return trials;
}

TEST(SearchSpec, EwmaAlphaLadderLabelsEachRungExactly) {
  const std::vector<TrialSpec> trials = expand_probe_grid(
      search_over("ewma_alpha", "0.1, 0.5, 1"),
      {"recompensation@ewma_alpha=0.10000000000000001",
       "recompensation@ewma_alpha=0.5", "recompensation@ewma_alpha=1"});
  const double rungs[] = {0.1, 0.5, 1.0};
  for (const TrialSpec& trial : trials) {
    EXPECT_EQ(trial.spec.ewma_alpha, rungs[trial.index / 3]);
    EXPECT_EQ(trial.spec.bucket_depth, 3.0);
    EXPECT_EQ(trial.max_token_rate, -1.0);
    EXPECT_EQ(trial.cell_id(), trial.scenario + "|AdapTBF|2|-1");
  }
}

TEST(SearchSpec, BucketDepthLadderLabelsEachRungExactly) {
  const std::vector<TrialSpec> trials = expand_probe_grid(
      search_over("bucket_depth", "2, 8, 32"),
      {"recompensation@bucket_depth=2", "recompensation@bucket_depth=8",
       "recompensation@bucket_depth=32"});
  const double rungs[] = {2.0, 8.0, 32.0};
  for (const TrialSpec& trial : trials) {
    EXPECT_EQ(trial.spec.bucket_depth, rungs[trial.index / 3]);
    EXPECT_EQ(trial.spec.ewma_alpha, 0.3);
    EXPECT_EQ(trial.cell_id(), trial.scenario + "|AdapTBF|2|-1");
  }
}

TEST(SearchSpec, TokenRateLadderRidesTheTokenRateColumn) {
  const std::vector<TrialSpec> trials = expand_probe_grid(
      search_over("token_rate", "800, 1600, 3200"),
      {"recompensation", "recompensation", "recompensation"});
  const double rungs[] = {800.0, 1600.0, 3200.0};
  for (const TrialSpec& trial : trials) {
    EXPECT_EQ(trial.max_token_rate, rungs[trial.index / 3]);
    EXPECT_EQ(trial.spec.max_token_rate, rungs[trial.index / 3]);
  }
}

TEST(SearchSpec, AnyGridKeyCanBeTheInput) {
  const SearchSpec search = search_over("observation_ms", "50, 100");
  const std::vector<TrialSpec> trials = expand_probe_grid(
      search, {"recompensation@observation_ms=50",
               "recompensation@observation_ms=100"});
  EXPECT_EQ(trials[0].spec.observation_period, SimDuration::millis(50));
  EXPECT_EQ(trials[3].spec.observation_period, SimDuration::millis(100));
}

TEST(SearchSpec, ValidateRejectsInputsAndRungsTheGridWould) {
  const SweepSpec base = recompensation_on_two_osts();
  const struct {
    const char* input;
    std::vector<double> ladder;
    const char* needle;
  } cases[] = {
      {"latency", {1, 2}, "unknown scenario key 'latency'"},
      {"", {1, 2}, "unknown scenario key ''"},
      {"control", {1, 2}, "control"},
      {"max_token_rate", {800, 1600}, "the token_rate axis"},
      {"bucket_depth", {0.5, 2, 4}, "bucket_depth"},
      {"ewma_alpha", {0.5, 1.5}, "ewma_alpha"},
      {"token_rate", {0, 800}, "token_rate"},
      {"threads", {8, 16.5}, "threads"},
      {"osts", {1, 4}, "drop its osts axis"},
  };
  for (const auto& bad : cases) {
    // Built by hand: load_search refuses all but the last one itself.
    SearchSpec search = search_over("token_rate", "1, 2");
    search.input = bad.input;
    search.ladder = bad.ladder;
    const std::string error = search.validate(base);
    EXPECT_NE(error.find(bad.needle), std::string::npos)
        << bad.input << ": '" << error << "'";
  }

  SweepSpec swept = base;
  swept.axes.push_back({"observation_ms", {"50", "100"}});
  EXPECT_NE(search_over("ewma_alpha", "0.1, 0.5")
                .validate(swept)
                .find("multi-valued observation_ms axis"),
            std::string::npos);
}

TEST(SearchSpec, SearchHashOfEveryOriginalInputIsUnchanged) {
  // Values written into search journals by earlier builds; a changed hash
  // would refuse to resume them.
  EXPECT_EQ(search_over("token_rate", "800, 1600, 3200").search_hash(),
            0x1b30af0067200424u);
  EXPECT_EQ(search_over("ewma_alpha", "0.1, 0.5, 1").search_hash(),
            0x3d17c0bd54000301u);
  EXPECT_EQ(search_over("bucket_depth", "2, 8, 32").search_hash(),
            0x6fe6139507d7f56bu);
  // Any other key hashes by name, apart from the three above.
  EXPECT_NE(search_over("observation_ms", "800, 1600, 3200").search_hash(),
            search_over("token_rate", "800, 1600, 3200").search_hash());
}

}  // namespace
}  // namespace adaptbf
