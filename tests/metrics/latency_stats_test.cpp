#include "metrics/latency_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/random.h"

namespace adaptbf {
namespace {

RpcCompletion completion(std::uint32_t job, std::int64_t issue_ms,
                         std::int64_t start_ms, std::int64_t end_ms) {
  RpcCompletion c;
  c.rpc.job = JobId(job);
  c.rpc.issue_time = SimTime::zero() + SimDuration::millis(issue_ms);
  c.start_service = SimTime::zero() + SimDuration::millis(start_ms);
  c.end_service = SimTime::zero() + SimDuration::millis(end_ms);
  return c;
}

TEST(LatencyStats, EmptyJobIsZeroSummary) {
  LatencyStats stats;
  const auto summary = stats.total_latency(JobId(1));
  EXPECT_EQ(summary.samples, 0u);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 0.0);
}

TEST(LatencyStats, TotalLatencyIsIssueToEnd) {
  LatencyStats stats;
  stats.record(completion(1, 0, 10, 30));
  const auto summary = stats.total_latency(JobId(1));
  EXPECT_EQ(summary.samples, 1u);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 30.0);
  EXPECT_DOUBLE_EQ(summary.max_ms, 30.0);
}

TEST(LatencyStats, PercentilesOrdered) {
  LatencyStats stats;
  for (int i = 1; i <= 100; ++i) stats.record(completion(1, 0, 0, i));
  const auto summary = stats.total_latency(JobId(1));
  EXPECT_EQ(summary.samples, 100u);
  EXPECT_LE(summary.p50_ms, summary.p95_ms);
  EXPECT_LE(summary.p95_ms, summary.p99_ms);
  EXPECT_LE(summary.p99_ms, summary.max_ms);
  EXPECT_NEAR(summary.p50_ms, 50.5, 1.0);
  EXPECT_DOUBLE_EQ(summary.max_ms, 100.0);
}

TEST(LatencyStats, JobsIsolated) {
  LatencyStats stats;
  stats.record(completion(1, 0, 0, 10));
  stats.record(completion(2, 0, 0, 100));
  EXPECT_DOUBLE_EQ(stats.total_latency(JobId(1)).mean_ms, 10.0);
  EXPECT_DOUBLE_EQ(stats.total_latency(JobId(2)).mean_ms, 100.0);
  EXPECT_EQ(stats.samples(JobId(1)), 1u);
  EXPECT_EQ(stats.samples(JobId(3)), 0u);
}

TEST(LatencyStats, AllJobsSummaryPoolsSamples) {
  LatencyStats stats;
  stats.record(completion(1, 0, 0, 10));
  stats.record(completion(2, 0, 0, 30));
  const auto summary = stats.pooled_percentiles();
  EXPECT_EQ(summary.samples, 2u);
  EXPECT_DOUBLE_EQ(summary.p50_ms, 20.0);  // halfway from 10 to 30
}

TEST(LatencyStats, JobsListedSorted) {
  LatencyStats stats;
  stats.record(completion(7, 0, 0, 1));
  stats.record(completion(3, 0, 0, 1));
  const auto jobs = stats.jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], JobId(3));
  EXPECT_EQ(jobs[1], JobId(7));
}

// Sort-then-interpolate: the definition the selection-based summary must
// reproduce bit for bit.
double sorted_percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void expect_bitwise_percentiles(const LatencyPercentiles& summary,
                                const std::vector<double>& samples) {
  ASSERT_EQ(summary.samples, samples.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.p50_ms),
            std::bit_cast<std::uint64_t>(sorted_percentile(samples, 50.0)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.p95_ms),
            std::bit_cast<std::uint64_t>(sorted_percentile(samples, 95.0)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.p99_ms),
            std::bit_cast<std::uint64_t>(sorted_percentile(samples, 99.0)));
}

// Records `n` seeded latencies drawn from `distinct` values (21 makes
// larger samples mostly duplicates; a million makes them mostly distinct,
// so neighbouring ranks differ) and returns them in recording order.
std::vector<double> record_seeded(LatencyStats& stats, std::uint32_t job,
                                  std::size_t n, std::uint64_t distinct,
                                  Xoshiro256& rng) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) {
    RpcCompletion c;
    c.rpc.job = JobId(job);
    c.end_service = SimTime::zero() +
                    SimDuration(static_cast<std::int64_t>(
                        rng.next_in(1, distinct) * 104'729));
    stats.record(c);
    samples.push_back(c.latency().to_seconds() * 1e3);
  }
  return samples;
}

TEST(LatencyStats, PercentilesMatchSortReferenceBitwise) {
  for (const std::uint64_t distinct : {21u, 1'000'000u}) {
    for (const std::size_t n : {1u, 2u, 3u, 100u, 1001u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " distinct=" << distinct);
      Xoshiro256 rng(0xbadc0ffee + n + distinct);
      LatencyStats stats;
      const std::vector<double> samples =
          record_seeded(stats, 1, n, distinct, rng);
      expect_bitwise_percentiles(stats.total_latency(JobId(1)), samples);
      expect_bitwise_percentiles(stats.pooled_percentiles(), samples);
    }
  }
}

TEST(LatencyStats, PooledPercentilesMatchSortReferenceBitwise) {
  Xoshiro256 rng(0x5eed);
  LatencyStats stats;
  std::vector<double> pooled;
  for (const std::uint32_t job : {3u, 1u, 2u}) {
    const std::vector<double> samples = record_seeded(
        stats, job, 100 + 450 * job, job == 1 ? 1'000'000 : 21, rng);
    expect_bitwise_percentiles(stats.total_latency(JobId(job)), samples);
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  expect_bitwise_percentiles(stats.pooled_percentiles(), pooled);
}

}  // namespace
}  // namespace adaptbf
