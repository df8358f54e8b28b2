#include "ost/job_stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace adaptbf {
namespace {

Rpc make_rpc(std::uint32_t job, std::uint32_t bytes = 1024) {
  Rpc rpc;
  rpc.job = JobId(job);
  rpc.size_bytes = bytes;
  return rpc;
}

TEST(JobStatsTracker, EmptySnapshot) {
  JobStatsTracker tracker;
  EXPECT_TRUE(tracker.window_snapshot().empty());
}

TEST(JobStatsTracker, CountsArrivalsPerJob) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1));
  tracker.record_arrival(make_rpc(1));
  tracker.record_arrival(make_rpc(2, 4096));
  const auto snapshot = tracker.window_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].job, JobId(1));
  EXPECT_EQ(snapshot[0].rpcs, 2u);
  EXPECT_EQ(snapshot[0].bytes, 2048u);
  EXPECT_EQ(snapshot[1].job, JobId(2));
  EXPECT_EQ(snapshot[1].rpcs, 1u);
  EXPECT_EQ(snapshot[1].bytes, 4096u);
}

TEST(JobStatsTracker, SnapshotSortedByJobId) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(9));
  tracker.record_arrival(make_rpc(3));
  tracker.record_arrival(make_rpc(7));
  const auto snapshot = tracker.window_snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].job, JobId(3));
  EXPECT_EQ(snapshot[1].job, JobId(7));
  EXPECT_EQ(snapshot[2].job, JobId(9));
}

TEST(JobStatsTracker, ClearWindowResetsOnlyWindow) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1));
  tracker.record_completion(make_rpc(1));
  tracker.clear_window();
  EXPECT_TRUE(tracker.window_snapshot().empty());
  const auto* cumulative = tracker.cumulative(JobId(1));
  ASSERT_NE(cumulative, nullptr);
  EXPECT_EQ(cumulative->rpcs_issued, 1u);
  EXPECT_EQ(cumulative->rpcs_completed, 1u);
}

TEST(JobStatsTracker, SnapshotDoesNotClear) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1));
  (void)tracker.window_snapshot();
  EXPECT_EQ(tracker.window_snapshot().size(), 1u);
}

TEST(JobStatsTracker, CumulativeUnknownJobIsNull) {
  JobStatsTracker tracker;
  EXPECT_EQ(tracker.cumulative(JobId(42)), nullptr);
}

TEST(JobStatsTracker, JobsEverSeenPersistsAcrossWindows) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(5));
  tracker.clear_window();
  tracker.record_arrival(make_rpc(2));
  const auto jobs = tracker.jobs_ever_seen();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], JobId(2));
  EXPECT_EQ(jobs[1], JobId(5));
}

// Known jobs keep their entries across windows; the snapshot must still
// list only the jobs that arrived in the current one.
TEST(JobStatsTracker, IdleKnownJobsStayOutOfTheSnapshot) {
  JobStatsTracker tracker;
  for (std::uint32_t job : {4u, 1u, 9u}) {
    tracker.record_arrival(make_rpc(job, 100));
    tracker.record_completion(make_rpc(job, 100));
  }
  tracker.clear_window();

  // A completion on its own is not demand.
  tracker.record_completion(make_rpc(4, 100));
  tracker.record_completion(make_rpc(7, 100));  // first seen completing
  EXPECT_TRUE(tracker.window_snapshot().empty());

  // An arrival for one of several known jobs lists that job alone.
  tracker.record_arrival(make_rpc(9, 300));
  const auto snapshot = tracker.window_snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].job, JobId(9));
  EXPECT_EQ(snapshot[0].rpcs, 1u);
  EXPECT_EQ(snapshot[0].bytes, 300u);

  tracker.clear_window();
  EXPECT_TRUE(tracker.window_snapshot().empty());

  // Clearing windows never touches the cumulative counters or the roster.
  const auto* four = tracker.cumulative(JobId(4));
  ASSERT_NE(four, nullptr);
  EXPECT_EQ(four->rpcs_issued, 1u);
  EXPECT_EQ(four->rpcs_completed, 2u);
  EXPECT_EQ(four->bytes_completed, 200u);
  const auto* nine = tracker.cumulative(JobId(9));
  ASSERT_NE(nine, nullptr);
  EXPECT_EQ(nine->rpcs_issued, 2u);
  EXPECT_EQ(nine->bytes_issued, 400u);
  const auto* seven = tracker.cumulative(JobId(7));
  ASSERT_NE(seven, nullptr);
  EXPECT_EQ(seven->rpcs_issued, 0u);
  EXPECT_EQ(seven->rpcs_completed, 1u);
  EXPECT_EQ(tracker.jobs_ever_seen(),
            (std::vector<JobId>{JobId(1), JobId(4), JobId(7), JobId(9)}));
}

TEST(JobStatsTracker, BytesAccumulateInCumulative) {
  JobStatsTracker tracker;
  tracker.record_arrival(make_rpc(1, 100));
  tracker.record_arrival(make_rpc(1, 200));
  tracker.record_completion(make_rpc(1, 100));
  const auto* c = tracker.cumulative(JobId(1));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->bytes_issued, 300u);
  EXPECT_EQ(c->bytes_completed, 100u);
}

}  // namespace
}  // namespace adaptbf
