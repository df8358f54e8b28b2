// [search] section grammar: every key, every default, and the strict
// rejections — entries arrive as raw key/value pairs in file order,
// exactly as sweep/sweep_io.h forwards them.
#include "search/search_io.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace adaptbf {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

TEST(SearchIo, FullSectionParsesEveryKey) {
  const auto loaded = load_search(Entries{
      {"controller", "golden"},
      {"input", "bucket_depth"},
      {"ladder", "8, 16, 32, 64"},
      {"slo", "p95_ms<=120, jain>=0.85"},
      {"objective", "jain"},
      {"pass_margin", "0.1"},
      {"budget", "24"},
      {"probe_repetitions", "2"},
      {"test_repetitions", "5"},
  });
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const SearchSpec& spec = *loaded.spec;
  EXPECT_EQ(spec.controller, SearchControllerKind::kGolden);
  EXPECT_EQ(spec.input, "bucket_depth");
  EXPECT_EQ(spec.ladder, (std::vector<double>{8.0, 16.0, 32.0, 64.0}));
  ASSERT_EQ(spec.slo.size(), 2u);
  EXPECT_EQ(spec.slo[0].str(), "p95_ms<=120");
  EXPECT_EQ(spec.objective.metric, SearchMetric::kFairness);
  EXPECT_EQ(spec.pass_margin, 0.1);
  EXPECT_EQ(spec.budget, 24u);
  EXPECT_EQ(spec.probe_repetitions, 2u);
  EXPECT_EQ(spec.test_repetitions, 5u);
}

TEST(SearchIo, DefaultsFillEverythingButTheLadderAndSlo) {
  const auto loaded = load_search(Entries{
      {"ladder", "400, 800"},
      {"slo", "p99_ms<=250"},
  });
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const SearchSpec& spec = *loaded.spec;
  EXPECT_EQ(spec.controller, SearchControllerKind::kBisect);
  EXPECT_EQ(spec.input, "token_rate");
  EXPECT_EQ(spec.objective.metric, SearchMetric::kP99Ms);
  EXPECT_EQ(spec.pass_margin, 0.05);
  EXPECT_EQ(spec.budget, 32u);
  EXPECT_EQ(spec.probe_repetitions, 1u);
  EXPECT_EQ(spec.test_repetitions, 3u);
}

TEST(SearchIo, UniformRangeLadderParses) {
  const auto loaded = load_search(Entries{
      {"lo", "100"},
      {"hi", "900"},
      {"points", "5"},
      {"slo", "p99_ms<=250"},
  });
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.spec->inputs(),
            (std::vector<double>{100.0, 300.0, 500.0, 700.0, 900.0}));
}

TEST(SearchIo, SloRequirementIsWaivableForCliOverride) {
  const Entries entries{{"ladder", "400, 800"}};
  EXPECT_FALSE(load_search(entries).ok());
  const auto waived = load_search(entries, /*require_slo=*/false);
  ASSERT_TRUE(waived.ok()) << waived.error;
  EXPECT_TRUE(waived.spec->slo.empty());
  // Even waived, a ladder is still mandatory.
  EXPECT_FALSE(load_search(Entries{}, /*require_slo=*/false).ok());
}

TEST(SearchIo, RejectionsNameTheOffendingKey) {
  const struct {
    Entries entries;
    const char* needle;
  } cases[] = {
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"controller", "newton"}},
       "bad controller"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"input", "latency"}},
       "input: unknown scenario key 'latency'"},
      {{{"ladder", "0.5,2"}, {"slo", "p99_ms<=1"}, {"input", "bucket_depth"}},
       "bucket_depth = '0.5'"},
      {{{"ladder", "400,oops"}, {"slo", "p99_ms<=1"}}, "bad ladder value"},
      {{{"ladder", ","}, {"slo", "p99_ms<=1"}}, "ladder list is empty"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<<1"}}, "slo:"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"objective", "speed"}},
       "bad objective"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"pass_margin", "-0.1"}},
       "pass_margin"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"budget", "0"}},
       "budget"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"},
        {"probe_repetitions", "0"}},
       "probe_repetitions"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"points", "1"}},
       "points"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"paralellism", "4"}},
       "unknown key"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"ladder", "100"}},
       "duplicate key"},
      {{{"ladder", "400,800"}, {"slo", "p99_ms<=1"}, {"lo", "100"}},
       "mutually exclusive"},
      {{{"lo", "900"}, {"hi", "100"}, {"slo", "p99_ms<=1"}},
       "needs a ladder"},
      {{}, "section is empty"},
  };
  for (const auto& bad : cases) {
    const auto loaded = load_search(bad.entries);
    ASSERT_FALSE(loaded.ok()) << "accepted a section missing: " << bad.needle;
    EXPECT_NE(loaded.error.find(bad.needle), std::string::npos)
        << loaded.error;
  }
}

}  // namespace
}  // namespace adaptbf
