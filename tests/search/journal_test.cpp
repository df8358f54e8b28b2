// Search journal format: step-row round trips, the stamped header, and
// the scanner's stricter-than-campaign row policy. Journals are built
// from fabricated trial rows and written through the campaign sink — no
// simulator runs here.
#include "search/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

JsonlSinkOptions test_sink_options() {
  JsonlSinkOptions options;
  options.fsync = false;
  return options;
}

SweepSpec base_sweep() {
  ScenarioSpec scenario;
  scenario.name = "probe";
  JobSpec job;
  job.id = JobId(1);
  job.name = "J1";
  job.nodes = 1;
  job.processes.push_back(continuous_pattern(8));
  scenario.jobs.push_back(std::move(job));
  scenario.duration = SimDuration::seconds(1);
  scenario.stop_when_idle = true;

  SweepSpec sweep;
  sweep.name = "journal";
  sweep.scenarios.push_back({"probe", std::move(scenario)});
  sweep.policies = {BwControl::kAdaptive};
  sweep.base_seed = 7;
  return sweep;
}

SearchSpec search_spec() {
  SearchSpec spec;
  spec.controller = SearchControllerKind::kBisect;
  spec.input = "token_rate";
  spec.ladder = {100.0, 200.0, 400.0};
  spec.slo = parse_slo("p99_ms<=100").thresholds;
  spec.probe_repetitions = 1;
  spec.test_repetitions = 2;
  return spec;
}

/// A row whose grid identity matches `trial` (seed, repetition, cell) but
/// whose metrics are fabricated — enough for the scanner, which never
/// re-runs the simulator.
TrialResult row_for(const TrialSpec& trial, double p99) {
  TrialResult row;
  row.index = trial.index;
  row.scenario = trial.scenario;
  row.policy = trial.policy;
  row.num_osts = trial.num_osts;
  row.max_token_rate = trial.max_token_rate;
  row.repetition = trial.repetition;
  row.seed = trial.seed;
  row.aggregate_mibps = 100.0 + p99;
  row.fairness = 0.9;
  row.p50_ms = p99 / 4.0;
  row.p95_ms = p99 / 2.0;
  row.p99_ms = p99;
  row.horizon_s = 1.0;
  return row;
}

SearchStepRow step_row(std::uint32_t step, std::uint32_t input_index,
                       double input, double p99) {
  SearchStepRow row;
  row.step = step;
  row.test_stage = false;
  row.input_index = input_index;
  row.input = input;
  row.repetitions = 1;
  row.metrics.mibps = 100.0 + p99;
  row.metrics.fairness = 0.9;
  row.metrics.p50_ms = p99 / 4.0;
  row.metrics.p95_ms = p99 / 2.0;
  row.metrics.p99_ms = p99;
  row.objective = p99;
  row.verdict = p99 <= 100.0 ? Verdict::kRaise : Verdict::kLower;
  row.bracket = 300.0;
  return row;
}

/// Fixture state every scanner test needs: the probe grid and a freshly
/// written journal with one trial row + one step row per visited rung.
struct JournalFixture {
  SweepSpec sweep = base_sweep();
  SearchSpec spec = search_spec();
  std::vector<TrialSpec> trials;
  std::string path;

  explicit JournalFixture(const std::string& name) {
    trials = spec.probe_sweep(sweep).expand();
    path = testing::TempDir() + "/" + name + ".jsonl";
    std::remove(path.c_str());
  }

  [[nodiscard]] CampaignHeader header() const {
    CampaignHeader header;
    header.sweep = sweep.name;
    header.grid_hash = sweep_grid_hash(trials);
    header.trials = trials.size();
    header.search_step = kSearchStepVersion;
    header.search_hash = spec.search_hash();
    return header;
  }

  /// Writes the header plus steps probing rungs 0 and 2 (one rep each).
  void write_two_steps() {
    auto opened =
        JsonlTrialSink::open_fresh(path, header(), test_sink_options());
    ASSERT_TRUE(opened.ok()) << opened.error;
    const std::uint32_t reps = spec.grid_repetitions();
    opened.sink->append_line(trial_to_jsonl(row_for(trials[0 * reps], 80.0)));
    opened.sink->append_line(
        search_step_to_jsonl(step_row(1, 0, 100.0, 80.0)));
    opened.sink->append_line(trial_to_jsonl(row_for(trials[2 * reps], 160.0)));
    opened.sink->append_line(
        search_step_to_jsonl(step_row(2, 2, 400.0, 160.0)));
    opened.sink->flush();
  }

  [[nodiscard]] SearchScan scan() const {
    return scan_search_file(path, sweep.name, trials, spec.search_hash());
  }
};

TEST(SearchStepRow, RoundTripsBitExactDoubles) {
  SearchStepRow row = step_row(3, 1, 0.1 + 0.2, 3200.0550010000002);
  row.test_stage = true;
  row.repetitions = 4;
  row.verdict = Verdict::kPass;
  row.bracket = 1.0 / 3.0;
  row.metrics.fairness = 0.78447601039703263;
  const std::string line = search_step_to_jsonl(row);
  SearchStepRow parsed;
  ASSERT_TRUE(search_step_from_jsonl(line, parsed));
  EXPECT_EQ(parsed.step, row.step);
  EXPECT_EQ(parsed.test_stage, row.test_stage);
  EXPECT_EQ(parsed.input_index, row.input_index);
  EXPECT_EQ(parsed.input, row.input);
  EXPECT_EQ(parsed.repetitions, row.repetitions);
  EXPECT_EQ(parsed.metrics.mibps, row.metrics.mibps);
  EXPECT_EQ(parsed.metrics.fairness, row.metrics.fairness);
  EXPECT_EQ(parsed.metrics.p50_ms, row.metrics.p50_ms);
  EXPECT_EQ(parsed.metrics.p95_ms, row.metrics.p95_ms);
  EXPECT_EQ(parsed.metrics.p99_ms, row.metrics.p99_ms);
  EXPECT_EQ(parsed.objective, row.objective);
  EXPECT_EQ(parsed.verdict, row.verdict);
  EXPECT_EQ(parsed.bracket, row.bracket);
  // Re-serializing the parse reproduces the exact bytes.
  EXPECT_EQ(search_step_to_jsonl(parsed), line);
}

TEST(SearchStepRow, ParserIsStrict) {
  const std::string good = search_step_to_jsonl(step_row(1, 0, 100.0, 80.0));
  SearchStepRow out;
  ASSERT_TRUE(search_step_from_jsonl(good, out));
  EXPECT_FALSE(search_step_from_jsonl(good + " ", out));   // Trailing junk.
  EXPECT_FALSE(search_step_from_jsonl(
      good.substr(0, good.size() - 1), out));              // Truncated.
  // Step numbers are 1-based; 0 is a malformed row, not "before step 1".
  std::string zero = good;
  zero.replace(zero.find("search_step\":1"), 14, "search_step\":0");
  EXPECT_FALSE(search_step_from_jsonl(zero, out));
  std::string verdict = good;
  verdict.replace(verdict.find("\"raise\""), 7, "\"maybe\"");
  EXPECT_FALSE(search_step_from_jsonl(verdict, out));
  std::string stage = good;
  stage.replace(stage.find("\"adjust\""), 8, "\"probe\"");
  EXPECT_FALSE(search_step_from_jsonl(stage, out));
  // A trial row is not a step row.
  EXPECT_FALSE(search_step_from_jsonl("{\"trial\":0}", out));
}

TEST(SearchScan, MissingAndEmptyFilesComeBackFresh) {
  JournalFixture fx("scan_fresh");
  SearchScan scan = fx.scan();
  EXPECT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.fresh);

  write_file(fx.path, "");
  scan = fx.scan();
  EXPECT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.fresh);
}

TEST(SearchScan, RoundTripsStepsRowsAndWatermark) {
  JournalFixture fx("scan_roundtrip");
  fx.write_two_steps();
  const SearchScan scan = fx.scan();
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_FALSE(scan.fresh);
  ASSERT_EQ(scan.steps.size(), 2u);
  EXPECT_EQ(scan.steps[0].input_index, 0u);
  EXPECT_EQ(scan.steps[0].verdict, Verdict::kRaise);
  EXPECT_EQ(scan.steps[1].input_index, 2u);
  EXPECT_EQ(scan.steps[1].verdict, Verdict::kLower);
  EXPECT_FALSE(scan.test_complete());
  ASSERT_EQ(scan.rows.size(), 2u);
  const std::uint32_t reps = fx.spec.grid_repetitions();
  EXPECT_TRUE(scan.have[0 * reps]);
  EXPECT_TRUE(scan.have[2 * reps]);
  EXPECT_FALSE(scan.have[1 * reps]);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_FALSE(scan.missing_final_newline);
  EXPECT_EQ(scan.valid_bytes, read_file(fx.path).size());
  EXPECT_EQ(scan.header.search_step, kSearchStepVersion);
  EXPECT_EQ(scan.header.search_hash, fx.spec.search_hash());
}

TEST(SearchScan, TestStageRowMarksTheSearchComplete) {
  JournalFixture fx("scan_test_complete");
  fx.write_two_steps();
  SearchStepRow test = step_row(3, 0, 100.0, 80.0);
  test.test_stage = true;
  test.repetitions = 1;
  std::string bytes = read_file(fx.path);
  bytes += search_step_to_jsonl(test) + "\n";
  write_file(fx.path, bytes);
  const SearchScan scan = fx.scan();
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.test_complete());
}

TEST(SearchScan, RefusesAPlainCampaignJournalByName) {
  JournalFixture fx("scan_plain");
  CampaignHeader plain = fx.header();
  plain.search_step = 0;
  plain.search_hash = 0;
  write_file(fx.path, campaign_header_line(plain) + "\n");
  const SearchScan scan = fx.scan();
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("plain campaign journal"), std::string::npos)
      << scan.error;
}

TEST(CampaignScan, RefusesASearchJournalByName) {
  // The mirror rejection: the plain resume path must bounce a stamped
  // journal toward `sweep_cli search --resume`.
  JournalFixture fx("scan_mirror");
  fx.write_two_steps();
  const CampaignScan scan =
      scan_campaign_file(fx.path, fx.sweep.name, fx.trials);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("search journal"), std::string::npos)
      << scan.error;
}

TEST(SearchScan, RefusesHeaderMismatchesByName) {
  JournalFixture fx("scan_mismatch");
  fx.write_two_steps();

  // Different search (same grid): SLO change flips the search hash.
  SearchSpec other = fx.spec;
  other.slo = parse_slo("p99_ms<=50").thresholds;
  ASSERT_NE(other.search_hash(), fx.spec.search_hash());
  SearchScan scan = scan_search_file(fx.path, fx.sweep.name, fx.trials,
                                     other.search_hash());
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("different search"), std::string::npos)
      << scan.error;

  // Different sweep name.
  scan = scan_search_file(fx.path, "elsewhere", fx.trials,
                          fx.spec.search_hash());
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("belongs to sweep"), std::string::npos)
      << scan.error;

  // Different probe grid: a wider ladder expands to more trials.
  SearchSpec wider = fx.spec;
  wider.ladder = {100.0, 200.0, 400.0, 800.0};
  const std::vector<TrialSpec> wide_trials =
      wider.probe_sweep(fx.sweep).expand();
  scan = scan_search_file(fx.path, fx.sweep.name, wide_trials,
                          wider.search_hash());
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("different probe grid"), std::string::npos)
      << scan.error;

  // Sharded headers never belong to a search.
  CampaignHeader sharded = fx.header();
  sharded.shard = ShardRef{1, 4};
  write_file(fx.path, campaign_header_line(sharded) + "\n");
  scan = fx.scan();
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("never sharded"), std::string::npos)
      << scan.error;

  // A step format from the future is refused, not misread.
  CampaignHeader newer = fx.header();
  newer.search_step = kSearchStepVersion + 1;
  write_file(fx.path, campaign_header_line(newer) + "\n");
  scan = fx.scan();
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("newer than this build"), std::string::npos)
      << scan.error;
}

TEST(SearchScan, InteriorDamageIsAHardError) {
  JournalFixture fx("scan_interior");
  fx.write_two_steps();
  const std::string good = read_file(fx.path);

  // Garbage line in the middle (campaign scanner would skip + re-run it).
  std::size_t second_line = good.find('\n') + 1;
  std::string corrupt = good;
  corrupt.insert(second_line, "not json\n");
  write_file(fx.path, corrupt);
  SearchScan scan = fx.scan();
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("corrupt row"), std::string::npos) << scan.error;

  // Non-dense step numbering: a step row out of sequence is damage too.
  std::string skipped = good;
  const std::string step2 = search_step_to_jsonl(step_row(2, 2, 400.0, 160.0));
  const std::string step9 = search_step_to_jsonl(step_row(9, 2, 400.0, 160.0));
  ASSERT_NE(skipped.find(step2), std::string::npos);
  skipped.replace(skipped.find(step2), step2.size(), step9);
  write_file(fx.path, skipped);
  scan = fx.scan();
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("corrupt row"), std::string::npos) << scan.error;

  // Duplicate trial rows are damage here, not a benign re-run artifact:
  // journal bytes are a pure function of the step history.
  const std::uint32_t reps = fx.spec.grid_repetitions();
  std::string duplicated = good;
  duplicated += trial_to_jsonl(row_for(fx.trials[0 * reps], 80.0)) + "\n";
  write_file(fx.path, duplicated);
  scan = fx.scan();
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("corrupt row"), std::string::npos) << scan.error;
}

TEST(SearchScan, PartialTailIsDiscardedAtTheWatermark) {
  JournalFixture fx("scan_tail");
  fx.write_two_steps();
  const std::string good = read_file(fx.path);
  const std::size_t last_line_start = good.rfind('\n', good.size() - 2) + 1;

  // Killed mid-write: half the final step row on disk.
  write_file(fx.path, good.substr(0, last_line_start + 10));
  SearchScan scan = fx.scan();
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(scan.valid_bytes, last_line_start);
  EXPECT_EQ(scan.steps.size(), 1u);

  // Killed between the row bytes and the newline: row kept, flagged.
  write_file(fx.path, good.substr(0, good.size() - 1));
  scan = fx.scan();
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_TRUE(scan.missing_final_newline);
  EXPECT_EQ(scan.valid_bytes, good.size() - 1);
  EXPECT_EQ(scan.steps.size(), 2u);
}

TEST(SearchScan, TornHeaderStartsFreshButForeignFilesStillError) {
  JournalFixture fx("scan_torn_header");

  // A crash during the very first writeout leaves a prefix of the stamped
  // header with no newline; every such prefix must scan as a fresh start.
  const std::string full = campaign_header_line(fx.header());
  for (const std::size_t cut : {std::size_t{1}, std::size_t{12},
                                full.size() / 2, full.size() - 1}) {
    write_file(fx.path, full.substr(0, cut));
    const SearchScan scan = fx.scan();
    EXPECT_TRUE(scan.ok()) << "cut " << cut << ": " << scan.error;
    EXPECT_TRUE(scan.fresh) << "cut " << cut;
  }

  // An unterminated line of some unrelated file is not a torn header.
  write_file(fx.path, "some other file");
  const SearchScan scan = fx.scan();
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("not a campaign journal"), std::string::npos)
      << scan.error;
}

TEST(SearchJournal, AppendAtWatermarkReproducesUninterruptedBytes) {
  JournalFixture fx("journal_append");
  fx.write_two_steps();
  const std::string good = read_file(fx.path);

  // Chop mid-row, reopen at the watermark, re-append the lost lines: the
  // bytes must match the uninterrupted journal exactly.
  const std::size_t last_line_start = good.rfind('\n', good.size() - 2) + 1;
  write_file(fx.path, good.substr(0, last_line_start + 7));
  const SearchScan scan = fx.scan();
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_FALSE(scan.fresh);
  auto opened = JsonlTrialSink::open(fx.path, scan, fx.header(),
                                     test_sink_options());
  ASSERT_TRUE(opened.ok()) << opened.error;
  opened.sink->append_line(
      good.substr(last_line_start, good.size() - last_line_start - 1));
  opened.sink->flush();
  EXPECT_EQ(read_file(fx.path), good);
}

}  // namespace
}  // namespace adaptbf
