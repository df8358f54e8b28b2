#include "sweep/trial_sink.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace adaptbf {
namespace {

/// A trial with awkward values: non-round doubles (round-trip stress),
/// escapes in names, sentinel token rate, multiple jobs.
TrialResult sample_trial() {
  TrialResult trial;
  trial.index = 7;
  trial.scenario = "noisy \"neighbor\"\tA";
  trial.policy = BwControl::kAdaptive;
  trial.num_osts = 4;
  trial.max_token_rate = -1.0;
  trial.repetition = 3;
  trial.seed = 0xdeadbeefcafef00dULL;
  trial.aggregate_mibps = 1234.5678901234567;
  trial.fairness = 1.0 / 3.0;
  trial.p50_ms = 0.1;
  trial.p95_ms = 95.000000001;
  trial.p99_ms = 1e-300;
  trial.horizon_s = 30.000000000000004;
  trial.total_bytes = 1ull << 40;
  trial.events_dispatched = 987654321;
  for (std::uint32_t j = 1; j <= 2; ++j) {
    JobSummary job;
    job.id = JobId(j);
    job.name = "J\\" + std::to_string(j);
    job.nodes = j * 3;
    job.rpcs_completed = 1000 + j;
    job.bytes_completed = (1ull << 30) + j;
    job.mean_mibps = 0.1 + static_cast<double>(j) / 7.0;
    job.finish_time = SimTime(123456789 * j);
    job.finished = (j == 1);
    trial.jobs.push_back(std::move(job));
  }
  return trial;
}

void expect_bit_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.num_osts, b.num_osts);
  EXPECT_EQ(a.max_token_rate, b.max_token_rate);
  EXPECT_EQ(a.repetition, b.repetition);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.aggregate_mibps, b.aggregate_mibps);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p95_ms, b.p95_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.horizon_s, b.horizon_s);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].id, b.jobs[j].id);
    EXPECT_EQ(a.jobs[j].name, b.jobs[j].name);
    EXPECT_EQ(a.jobs[j].nodes, b.jobs[j].nodes);
    EXPECT_EQ(a.jobs[j].rpcs_completed, b.jobs[j].rpcs_completed);
    EXPECT_EQ(a.jobs[j].bytes_completed, b.jobs[j].bytes_completed);
    EXPECT_EQ(a.jobs[j].mean_mibps, b.jobs[j].mean_mibps);
    EXPECT_EQ(a.jobs[j].finish_time, b.jobs[j].finish_time);
    EXPECT_EQ(a.jobs[j].finished, b.jobs[j].finished);
  }
}

TEST(TrialJsonl, RoundTripIsBitExact) {
  const TrialResult original = sample_trial();
  const std::string line = trial_to_jsonl(original);
  TrialResult parsed;
  ASSERT_TRUE(trial_from_jsonl(line, parsed)) << line;
  expect_bit_identical(original, parsed);
  // And serializing the parse reproduces the identical line: the journal
  // is a fixed point, so resumed rows re-export byte-identically.
  EXPECT_EQ(trial_to_jsonl(parsed), line);
}

TEST(TrialJsonl, EmptyJobsRoundTrips) {
  TrialResult trial = sample_trial();
  trial.jobs.clear();
  TrialResult parsed;
  ASSERT_TRUE(trial_from_jsonl(trial_to_jsonl(trial), parsed));
  EXPECT_TRUE(parsed.jobs.empty());
  expect_bit_identical(trial, parsed);
}

TEST(TrialJsonl, NonFiniteDoublesWriteNullAndParseToNaN) {
  TrialResult trial = sample_trial();
  trial.fairness = std::numeric_limits<double>::quiet_NaN();
  trial.p99_ms = std::numeric_limits<double>::infinity();
  const std::string line = trial_to_jsonl(trial);
  EXPECT_NE(line.find("\"fairness\":null"), std::string::npos);
  EXPECT_NE(line.find("\"p99_ms\":null"), std::string::npos);
  EXPECT_EQ(line.find("nan"), std::string::npos);
  EXPECT_EQ(line.find("inf"), std::string::npos);
  TrialResult parsed;
  ASSERT_TRUE(trial_from_jsonl(line, parsed));
  EXPECT_TRUE(std::isnan(parsed.fairness));
  EXPECT_TRUE(std::isnan(parsed.p99_ms));
}

TEST(TrialJsonl, EveryStrictPrefixFailsToParse) {
  // Crash-safety core: a line truncated at ANY byte must be rejected, not
  // partially accepted — the scanner counts it missing and re-runs it.
  const std::string line = trial_to_jsonl(sample_trial());
  TrialResult parsed;
  for (std::size_t len = 0; len < line.size(); ++len)
    EXPECT_FALSE(trial_from_jsonl(std::string_view(line).substr(0, len),
                                  parsed))
        << "prefix length " << len;
  EXPECT_FALSE(trial_from_jsonl(line + "x", parsed));  // Trailing garbage.
  EXPECT_TRUE(trial_from_jsonl(line, parsed));
}

TEST(TrialJsonl, ScalarParseValidatesJobsButDiscardsThem) {
  const std::string line = trial_to_jsonl(sample_trial());
  TrialResult parsed;
  ASSERT_TRUE(trial_scalars_from_jsonl(line, parsed));
  EXPECT_TRUE(parsed.jobs.empty());
  EXPECT_EQ(parsed.seed, sample_trial().seed);
  // Same strictness as the full parse: truncation inside jobs still fails.
  EXPECT_FALSE(trial_scalars_from_jsonl(
      std::string_view(line).substr(0, line.size() - 2), parsed));
}

TEST(CampaignHeaderLine, RoundTripsAndRejectsGarbage) {
  CampaignHeader header;
  header.sweep = "paper \"q\"";
  header.grid_hash = 0x0123456789abcdefULL;
  header.trials = 144;
  const std::string line = campaign_header_line(header);
  CampaignHeader parsed;
  ASSERT_TRUE(parse_campaign_header(line, parsed)) << line;
  EXPECT_EQ(parsed.sweep, header.sweep);
  EXPECT_EQ(parsed.grid_hash, header.grid_hash);
  EXPECT_EQ(parsed.trials, header.trials);
  for (std::size_t len = 0; len < line.size(); ++len)
    EXPECT_FALSE(parse_campaign_header(
        std::string_view(line).substr(0, len), parsed));
  EXPECT_FALSE(parse_campaign_header("{\"other\":1}", parsed));
}

TEST(JsonlTrialSink, WritesHeaderThenDurableRows) {
  const std::string path = testing::TempDir() + "sink_basic.jsonl";
  std::remove(path.c_str());
  CampaignHeader header{"unit", 42, 3, ShardRef{}};
  JsonlSinkOptions options;
  options.flush_every = 2;
  options.fsync = false;  // tmpfs; keep the test fast.
  auto opened = JsonlTrialSink::open_fresh(path, header, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  for (std::size_t i = 0; i < 3; ++i) {
    TrialResult trial = sample_trial();
    trial.index = i;
    opened.sink->append(trial);
  }
  EXPECT_EQ(opened.sink->rows_appended(), 3u);
  opened.sink.reset();  // Close flushes the odd tail row.

  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  CampaignHeader parsed_header;
  EXPECT_TRUE(parse_campaign_header(line, parsed_header));
  EXPECT_EQ(parsed_header.sweep, "unit");
  std::vector<TrialResult> rows;
  TrialResult row;
  while (std::getline(file, line)) {
    ASSERT_TRUE(trial_from_jsonl(line, row));
    rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(rows[i].index, i);
  std::remove(path.c_str());
}

TEST(JsonlTrialSink, AppendLineWritesExactBytesAndCountsTheNewline) {
  const std::string path = testing::TempDir() + "sink_line.jsonl";
  std::remove(path.c_str());
  CampaignHeader header{"unit", 42, 1, ShardRef{}};
  MetricRegistry metrics;
  JsonlSinkOptions options;
  options.fsync = false;
  options.metrics = &metrics;
  auto opened = JsonlTrialSink::open_fresh(path, header, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  // append(trial) is append_line(trial_to_jsonl(trial)): same bytes, same
  // counters.
  const std::string row = trial_to_jsonl(sample_trial());
  opened.sink->append_line(row);
  opened.sink->append(sample_trial());
  opened.sink.reset();

  std::ifstream file(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << file.rdbuf();
  EXPECT_EQ(bytes.str(),
            campaign_header_line(header) + "\n" + row + "\n" + row + "\n");
  EXPECT_EQ(metrics.counter(kMetricJournalRows).value(), 2u);
  EXPECT_EQ(metrics.counter(kMetricJournalBytes).value(),
            2 * (row.size() + 1));
  std::remove(path.c_str());
}

TEST(JsonlTrialSink, OpenAppendTruncatesPartialTail) {
  const std::string path = testing::TempDir() + "sink_truncate.jsonl";
  std::remove(path.c_str());
  CampaignHeader header{"unit", 42, 2, ShardRef{}};
  JsonlSinkOptions options;
  options.fsync = false;
  {
    auto opened = JsonlTrialSink::open_fresh(path, header, options);
    ASSERT_TRUE(opened.ok()) << opened.error;
    TrialResult trial = sample_trial();
    trial.index = 0;
    opened.sink->append(trial);
  }
  // Simulate a crash mid-write: append half a row with no newline.
  std::uint64_t good_size = 0;
  {
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    good_size = static_cast<std::uint64_t>(file.tellg());
  }
  {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file << trial_to_jsonl(sample_trial()).substr(0, 40);
  }
  auto opened = JsonlTrialSink::open_append(path, good_size,
                                            /*add_newline=*/false, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  TrialResult trial = sample_trial();
  trial.index = 1;
  opened.sink->append(trial);
  opened.sink.reset();

  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));  // Header.
  TrialResult row;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_TRUE(trial_from_jsonl(line, row));
  EXPECT_EQ(row.index, 0u);
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_TRUE(trial_from_jsonl(line, row));  // No torn concatenation.
  EXPECT_EQ(row.index, 1u);
  EXPECT_FALSE(std::getline(file, line));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adaptbf
