// Kill-and-resume round trips: a campaign interrupted at an arbitrary
// byte boundary must resume to byte-identical CSV/JSON artifacts vs. an
// uninterrupted single-threaded run, at any thread count.
#include "sweep/resume.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/sweep_export.h"
#include "sweep/sweep_aggregator.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"
#include "sweep/trial_sink.h"

namespace adaptbf {
namespace {

SweepSpec small_sweep() {
  ScenarioSpec scenario;
  scenario.name = "small";
  for (std::uint32_t j = 1; j <= 2; ++j) {
    JobSpec job;
    job.id = JobId(j);
    job.name = "J" + std::to_string(j);
    job.nodes = j;
    job.processes.push_back(continuous_pattern(32));
    job.processes.push_back(poisson_pattern(32, 200.0, /*seed=*/j));
    scenario.jobs.push_back(std::move(job));
  }
  scenario.duration = SimDuration::seconds(5);
  scenario.stop_when_idle = true;

  SweepSpec sweep;
  sweep.name = "small";
  sweep.scenarios.push_back({"small", std::move(scenario)});
  sweep.policies = {BwControl::kNone, BwControl::kAdaptive};
  sweep.repetitions = 3;
  sweep.base_seed = 11;
  sweep.start_jitter = SimDuration::millis(50);
  return sweep;
}

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
  options.fsync = false;  // Unit tests exercise logic, not disk durability.
  return options;
}

/// Runs the full campaign into a fresh journal at `path`.
void run_journaled(const SweepSpec& sweep,
                   const std::vector<TrialSpec>& trials,
                   const std::string& path, std::uint32_t threads) {
  std::remove(path.c_str());
  CampaignHeader header{sweep.name, sweep_grid_hash(trials), trials.size(),
                        ShardRef{}};
  auto opened = JsonlTrialSink::open_fresh(path, header, test_sink_options());
  ASSERT_TRUE(opened.ok()) << opened.error;
  SweepRunner::Options options;
  options.threads = threads;
  options.sink = opened.sink.get();
  (void)SweepRunner(options).run(trials);
}

/// CSV + JSON artifacts derived from a journal.
struct Artifacts {
  std::string csv;
  std::string json;
};

Artifacts export_artifacts(const std::string& path, const SweepSpec& sweep,
                           const std::vector<TrialSpec>& trials) {
  std::ostringstream json;
  const JsonlExportResult exported =
      export_campaign_from_jsonl(path, sweep.name, trials, &json);
  EXPECT_TRUE(exported.ok()) << exported.error;
  return {sweep_cells_table(exported.cells).to_csv(), json.str()};
}

/// Resumes whatever is missing from `path` with `threads` workers.
void resume_journaled(const SweepSpec& sweep,
                      const std::vector<TrialSpec>& trials,
                      const std::string& path, std::uint32_t threads) {
  const CampaignScan scan = scan_campaign_file(path, sweep.name, trials);
  ASSERT_TRUE(scan.ok()) << scan.error;
  ASSERT_FALSE(scan.fresh);
  auto opened =
      JsonlTrialSink::open_append(path, scan.valid_bytes,
                                  scan.missing_final_newline,
                                  test_sink_options());
  ASSERT_TRUE(opened.ok()) << opened.error;
  SweepRunner::Options options;
  options.threads = threads;
  options.sink = opened.sink.get();
  (void)SweepRunner(options).run(missing_trials(scan, trials));
}

TEST(SweepGridHash, StableAndSensitive) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  EXPECT_EQ(sweep_grid_hash(trials), sweep_grid_hash(sweep.expand()));

  SweepSpec reseeded = small_sweep();
  reseeded.base_seed = 12;
  EXPECT_NE(sweep_grid_hash(trials), sweep_grid_hash(reseeded.expand()));

  SweepSpec longer = small_sweep();
  longer.axes.push_back({"duration_s", {"3"}});
  EXPECT_NE(sweep_grid_hash(trials), sweep_grid_hash(longer.expand()));

  SweepSpec fewer = small_sweep();
  fewer.repetitions = 2;
  EXPECT_NE(sweep_grid_hash(trials), sweep_grid_hash(fewer.expand()));
}

TEST(CampaignScan, MissingFileIsFreshStart) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const CampaignScan scan = scan_campaign_file(
      testing::TempDir() + "does_not_exist.jsonl", sweep.name, trials);
  EXPECT_TRUE(scan.ok());
  EXPECT_TRUE(scan.fresh);
  EXPECT_EQ(scan.rows, 0u);
  EXPECT_EQ(missing_trials(scan, trials).size(), trials.size());
}

TEST(CampaignScan, RejectsForeignAndRegriddedJournals) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string path = testing::TempDir() + "scan_reject.jsonl";
  run_journaled(sweep, trials, path, 1);

  // Wrong sweep name.
  CampaignScan scan = scan_campaign_file(path, "other_sweep", trials);
  EXPECT_FALSE(scan.ok());

  // Same name, different grid (seed change): hash mismatch.
  SweepSpec reseeded = small_sweep();
  reseeded.base_seed = 12;
  scan = scan_campaign_file(path, sweep.name, reseeded.expand());
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("different campaign grid"), std::string::npos);

  // Not a journal at all.
  write_file(path, "scenario,policy\n1,2\n");
  scan = scan_campaign_file(path, sweep.name, trials);
  EXPECT_FALSE(scan.ok());
  std::remove(path.c_str());
}

TEST(CampaignScan, EditedOneValueAxisRefusesTheJournal) {
  // A one-value [grid] axis is part of every trial's identity: a sweep
  // file edited from observation_ms = 50 to 1600 must not resume the
  // journal of the 50 ms run.
  const auto sweep_with = [](const std::string& observation_ms) {
    return load_sweep("[sweep]\nname = edited\npolicies = adaptive\n"
                      "scenario = token_allocation\nduration_s = 1\n"
                      "[grid]\nobservation_ms = " +
                      observation_ms + "\n")
        .spec.value();
  };
  const SweepSpec sweep = sweep_with("50");
  const auto trials = sweep.expand();
  const std::string path = testing::TempDir() + "edited_axis.jsonl";
  run_journaled(sweep, trials, path, 1);
  EXPECT_TRUE(scan_campaign_file(path, sweep.name, trials).ok());

  const CampaignScan scan =
      scan_campaign_file(path, sweep.name, sweep_with("1600").expand());
  EXPECT_FALSE(scan.ok());
  EXPECT_NE(scan.error.find("different campaign grid"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CampaignScan, TornHeaderStartsFreshButForeignFilesStillError) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string path = testing::TempDir() + "torn_header.jsonl";

  // A crash during the very first writeout leaves a header prefix with no
  // newline; every such prefix must scan as a fresh start, never as a
  // permanently unresumable journal.
  CampaignHeader header{sweep.name, sweep_grid_hash(trials), trials.size(),
                        ShardRef{}};
  const std::string full = campaign_header_line(header);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{10},
                                full.size() / 2, full.size() - 1}) {
    write_file(path, full.substr(0, cut));
    const CampaignScan scan = scan_campaign_file(path, sweep.name, trials);
    EXPECT_TRUE(scan.ok()) << "cut " << cut << ": " << scan.error;
    EXPECT_TRUE(scan.fresh) << "cut " << cut;
  }

  // But an unterminated line of some unrelated file is NOT a torn header:
  // keep the hard error so --output never clobbers foreign data.
  write_file(path, "definitely not a journal");
  EXPECT_FALSE(scan_campaign_file(path, sweep.name, trials).ok());
  std::remove(path.c_str());
}

TEST(CampaignScan, CompleteJournalHasNoMissingTrials) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string path = testing::TempDir() + "scan_complete.jsonl";
  run_journaled(sweep, trials, path, 4);
  const CampaignScan scan = scan_campaign_file(path, sweep.name, trials);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.complete());
  EXPECT_EQ(scan.rows, trials.size());
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.corrupt_lines, 0u);
  EXPECT_TRUE(missing_trials(scan, trials).empty());
  std::remove(path.c_str());
}

TEST(ResumeRoundTrip, TruncationAtArbitraryBytesResumesByteIdentical) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string base = testing::TempDir() + "resume_base.jsonl";
  run_journaled(sweep, trials, base, 1);
  const Artifacts golden = export_artifacts(base, sweep, trials);
  const std::string journal = read_file(base);

  // Interrupt at ~40 byte positions spread over the journal — trial
  // boundaries and mid-line alike (an odd step keeps the cuts from
  // syncing to line structure) — and resume with multiple workers.
  const std::string crashed = testing::TempDir() + "resume_crashed.jsonl";
  const std::size_t header_end = journal.find('\n') + 1;
  const std::size_t step =
      std::max<std::size_t>(1, (journal.size() - header_end) / 40) | 1;
  for (std::size_t cut = header_end; cut < journal.size(); cut += step) {
    write_file(crashed, journal.substr(0, cut));
    resume_journaled(sweep, trials, crashed, 4);
    const Artifacts resumed = export_artifacts(crashed, sweep, trials);
    ASSERT_EQ(golden.csv, resumed.csv) << "cut at byte " << cut;
    ASSERT_EQ(golden.json, resumed.json) << "cut at byte " << cut;
  }
  std::remove(base.c_str());
  std::remove(crashed.c_str());
}

TEST(ResumeRoundTrip, CorruptInteriorLineIsReRun) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string base = testing::TempDir() + "resume_corrupt.jsonl";
  run_journaled(sweep, trials, base, 1);
  const Artifacts golden = export_artifacts(base, sweep, trials);

  // Flip bytes in the middle of the third line (second trial row).
  std::string journal = read_file(base);
  std::size_t pos = 0;
  for (int skip = 0; skip < 2; ++skip) pos = journal.find('\n', pos) + 1;
  journal[pos + 10] = '#';
  journal[pos + 11] = '#';
  write_file(base, journal);

  CampaignScan scan = scan_campaign_file(base, sweep.name, trials);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_EQ(scan.corrupt_lines, 1u);
  EXPECT_EQ(missing_trials(scan, trials).size(), 1u);

  resume_journaled(sweep, trials, base, 2);
  const Artifacts resumed = export_artifacts(base, sweep, trials);
  EXPECT_EQ(golden.csv, resumed.csv);
  EXPECT_EQ(golden.json, resumed.json);
  std::remove(base.c_str());
}

TEST(ResumeRoundTrip, JournalArtifactsMatchInMemoryPipeline) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();

  SweepRunner::Options options;
  options.threads = 1;
  const auto results = SweepRunner(options).run(trials);
  const auto cells = aggregate_sweep(results);
  const std::string memory_json = sweep_to_json(sweep.name, results, cells);
  const std::string memory_csv = sweep_cells_table(cells).to_csv();

  const std::string path = testing::TempDir() + "vs_memory.jsonl";
  run_journaled(sweep, trials, path, 8);
  const Artifacts journal = export_artifacts(path, sweep, trials);
  EXPECT_EQ(memory_csv, journal.csv);
  EXPECT_EQ(memory_json, journal.json);
  std::remove(path.c_str());
}

TEST(ResumeRoundTrip, ExportRefusesIncompleteJournal) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string path = testing::TempDir() + "incomplete.jsonl";
  run_journaled(sweep, trials, path, 1);
  std::string journal = read_file(path);
  journal.resize(journal.size() / 2);
  write_file(path, journal);
  const JsonlExportResult exported =
      export_campaign_from_jsonl(path, sweep.name, trials, nullptr);
  EXPECT_FALSE(exported.ok());
  EXPECT_NE(exported.error.find("incomplete"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StreamingCellAggregator, OrderIndependentCellsAndMergedShards) {
  const SweepSpec sweep = small_sweep();
  const auto results = SweepRunner().run(sweep);
  const auto direct = aggregate_sweep(results);

  // Adding in reverse completion order still yields grid-ordered cells.
  StreamingCellAggregator reversed;
  for (auto it = results.rbegin(); it != results.rend(); ++it)
    reversed.add(*it);
  const auto reversed_cells = reversed.cells();
  ASSERT_EQ(direct.size(), reversed_cells.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].cell_id(), reversed_cells[i].cell_id());
    EXPECT_EQ(direct[i].trials, reversed_cells[i].trials);
    EXPECT_NEAR(direct[i].aggregate_mibps.mean,
                reversed_cells[i].aggregate_mibps.mean, 1e-9);
  }

  // Sharded accumulation + StreamingStats::merge matches the single pass.
  StreamingCellAggregator front, back;
  for (std::size_t i = 0; i < results.size(); ++i)
    (i < results.size() / 2 ? front : back).add(results[i]);
  front.merge(back);
  EXPECT_EQ(front.trials_added(), results.size());
  const auto merged = front.cells();
  ASSERT_EQ(direct.size(), merged.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].cell_id(), merged[i].cell_id());
    EXPECT_EQ(direct[i].trials, merged[i].trials);
    EXPECT_EQ(direct[i].total_bytes, merged[i].total_bytes);
    EXPECT_NEAR(direct[i].aggregate_mibps.mean,
                merged[i].aggregate_mibps.mean, 1e-9);
    EXPECT_NEAR(direct[i].aggregate_mibps.stddev,
                merged[i].aggregate_mibps.stddev, 1e-9);
    EXPECT_EQ(direct[i].aggregate_mibps.min, merged[i].aggregate_mibps.min);
    EXPECT_EQ(direct[i].aggregate_mibps.max, merged[i].aggregate_mibps.max);
  }
}

}  // namespace
}  // namespace adaptbf
