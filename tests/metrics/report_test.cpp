#include "metrics/report.h"

#include <gtest/gtest.h>

namespace adaptbf {
namespace {

SimTime at_ms(std::int64_t ms) {
  return SimTime::zero() + SimDuration::millis(ms);
}

std::vector<std::pair<JobId, std::string>> two_jobs() {
  return {{JobId(1), "Job1"}, {JobId(2), "Job2"}};
}

TEST(ReportTimeline, HasRowPerChunkAndAggregateColumn) {
  ThroughputTimeline timeline(SimDuration::millis(100));
  for (int bin = 0; bin < 10; ++bin) {
    timeline.record(JobId(1), 1024 * 1024, at_ms(bin * 100 + 1));
    timeline.record(JobId(2), 2 * 1024 * 1024, at_ms(bin * 100 + 2));
  }
  const Table table = timeline_table(timeline, at_ms(1000), two_jobs(),
                                     /*points=*/5);
  EXPECT_EQ(table.cols(), 4u);  // t, Job1, Job2, Aggregate
  EXPECT_EQ(table.rows(), 5u);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("Job1 MiB/s"), std::string::npos);
  EXPECT_NE(rendered.find("Aggregate MiB/s"), std::string::npos);
  // Each bin: Job1 at 10 MiB/s, Job2 at 20, aggregate 30.
  EXPECT_NE(rendered.find("30.0"), std::string::npos);
}

/// The "t (s)" cell of every data row, read back from the CSV.
std::vector<std::string> time_labels(const Table& table) {
  std::vector<std::string> labels;
  const std::string csv = table.to_csv();
  std::size_t line = csv.find('\n') + 1;  // skip the header row
  while (line < csv.size()) {
    labels.push_back(csv.substr(line, csv.find(',', line) - line));
    line = csv.find('\n', line) + 1;
    if (line == 0) break;
  }
  return labels;
}

// One 100 ms bin per row: each row is labelled with its chunk's start, at
// one decimal — not with midpoints 0.05, 0.15, ... that round to repeats.
TEST(ReportTimeline, HundredMsRowsAreLabelledByDistinctStarts) {
  ThroughputTimeline timeline(SimDuration::millis(100));
  for (int bin = 0; bin < 5; ++bin)
    timeline.record(JobId(1), 1024 * 1024, at_ms(bin * 100 + 1));
  const Table table = timeline_table(timeline, at_ms(500), two_jobs(),
                                     /*points=*/5);
  EXPECT_EQ(time_labels(table),
            (std::vector<std::string>{"0.0", "0.1", "0.2", "0.3", "0.4"}));
  // Two bins per row: starts 0.2 s apart.
  const Table coarse = timeline_table(timeline, at_ms(500), two_jobs(),
                                      /*points=*/2);
  EXPECT_EQ(time_labels(coarse),
            (std::vector<std::string>{"0.0", "0.2", "0.4"}));
}

// 25 ms bins need three decimals to stay exact and distinct.
TEST(ReportTimeline, TwentyFiveMsRowsKeepThreeDecimals) {
  ThroughputTimeline timeline(SimDuration::millis(25));
  for (int bin = 0; bin < 6; ++bin)
    timeline.record(JobId(2), 1024 * 1024, at_ms(bin * 25 + 1));
  const Table table = timeline_table(timeline, at_ms(150), two_jobs(),
                                     /*points=*/6);
  EXPECT_EQ(time_labels(table),
            (std::vector<std::string>{"0.000", "0.025", "0.050", "0.075",
                                      "0.100", "0.125"}));
  // Two 25 ms bins per row: 50 ms chunks need two decimals.
  const Table pairs = timeline_table(timeline, at_ms(150), two_jobs(),
                                     /*points=*/3);
  EXPECT_EQ(time_labels(pairs),
            (std::vector<std::string>{"0.00", "0.05", "0.10"}));
}

TEST(ReportSummary, RowsPerJobPlusOverall) {
  PolicySummary a{"No BW", {10.0, 20.0}, 30.0};
  PolicySummary b{"AdapTBF", {12.0, 18.0}, 30.0};
  const Table table = bandwidth_summary_table(two_jobs(), {a, b});
  EXPECT_EQ(table.rows(), 3u);  // 2 jobs + Overall
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("Overall"), std::string::npos);
  EXPECT_NE(rendered.find("No BW MiB/s"), std::string::npos);
}

TEST(ReportGainLoss, ComputesSignedDeltasAndPercent) {
  PolicySummary subject{"AdapTBF", {15.0, 10.0}, 25.0};
  PolicySummary baseline{"No BW", {10.0, 20.0}, 30.0};
  const Table table = gain_loss_table(two_jobs(), subject, baseline);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("+5.0"), std::string::npos);    // Job1 gain
  EXPECT_NE(rendered.find("+50.0"), std::string::npos);   // Job1 percent
  EXPECT_NE(rendered.find("-10.0"), std::string::npos);   // Job2 loss
  EXPECT_NE(rendered.find("-50.0"), std::string::npos);
}

TEST(ReportGainLoss, ZeroBaselineGivesZeroPercent) {
  PolicySummary subject{"A", {5.0}, 5.0};
  PolicySummary baseline{"B", {0.0}, 0.0};
  const Table table =
      gain_loss_table({{JobId(1), "J"}}, subject, baseline);
  EXPECT_EQ(table.rows(), 2u);  // no crash, job + overall
}

TEST(ReportRecordTrace, CarriesRecordAcrossInactiveWindows) {
  std::vector<WindowResult> trace;
  // Window 1: job 1 active with record +40.
  WindowResult w1;
  w1.when = at_ms(100);
  JobAllocation a1;
  a1.job = JobId(1);
  a1.demand = 10.0;
  a1.record_after = 40.0;
  w1.jobs.push_back(a1);
  trace.push_back(w1);
  // Windows 2..4: job 1 inactive.
  for (int w = 2; w <= 4; ++w) {
    WindowResult inactive;
    inactive.when = at_ms(100 * w);
    trace.push_back(inactive);
  }
  const Table table = record_trace_table(trace, {{JobId(1), "Job1"}},
                                         /*points=*/4);
  const std::string rendered = table.to_string();
  // The last row (job inactive) must still show the +40 standing balance.
  const auto last_row_pos = rendered.rfind("0.4");
  ASSERT_NE(last_row_pos, std::string::npos);
  EXPECT_NE(rendered.find("40", last_row_pos), std::string::npos);
}

TEST(ReportRecordTrace, SumsDemandWithinChunks) {
  std::vector<WindowResult> trace;
  for (int w = 1; w <= 4; ++w) {
    WindowResult window;
    window.when = at_ms(100 * w);
    JobAllocation alloc;
    alloc.job = JobId(1);
    alloc.demand = 5.0;
    alloc.record_after = 0.0;
    window.jobs.push_back(alloc);
    trace.push_back(window);
  }
  // One chunk of 4 windows: demand column = 20.
  const Table table = record_trace_table(trace, {{JobId(1), "Job1"}},
                                         /*points=*/1);
  EXPECT_NE(table.to_string().find("20"), std::string::npos);
}

TEST(ReportRecordTrace, EmptyTraceYieldsHeaderOnly) {
  const Table table = record_trace_table({}, two_jobs());
  EXPECT_EQ(table.rows(), 0u);
  EXPECT_EQ(table.cols(), 5u);  // t + 2 x (record, demand)
}

}  // namespace
}  // namespace adaptbf
