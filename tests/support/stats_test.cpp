#include "support/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/random.h"

namespace adaptbf {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(StreamingStats, KnownSequence) {
  StreamingStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance of the classic sequence: 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(StreamingStats, MergeMatchesSequential) {
  StreamingStats left, right, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    left.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = i * 0.37;
    right.add(x);
    all.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

// Shard merging leans on merge() being a proper monoid operation over
// accumulators (within floating-point tolerance): any K-way partition of a
// campaign, merged in any grouping and order, must agree with the single
// pass. Randomized sequences, fixed seeds.
TEST(StreamingStatsMergeProperty, AssociativeAndCommutativeWithinTolerance) {
  Xoshiro256 rng(0x5eed5eed5eed5eedULL);
  for (int round = 0; round < 20; ++round) {
    StreamingStats a, b, c, sequential;
    const auto fill = [&](StreamingStats& stats, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        // Mix magnitudes so Welford actually has something to get wrong.
        const double x = (rng.next_double() - 0.5) * 1e6 + rng.next_double();
        stats.add(x);
        sequential.add(x);
      }
    };
    fill(a, 1 + rng.next() % 40);
    fill(b, 1 + rng.next() % 40);
    fill(c, 1 + rng.next() % 40);

    // (a + b) + c
    StreamingStats left_assoc = a;
    left_assoc.merge(b);
    left_assoc.merge(c);
    // a + (b + c)
    StreamingStats right_assoc = b;
    right_assoc.merge(c);
    StreamingStats right_outer = a;
    right_outer.merge(right_assoc);
    // c + a  vs  a + c (commutativity spot check)
    StreamingStats ca = c, ac = a;
    ca.merge(a);
    ac.merge(c);

    const double scale = std::max(1.0, std::abs(sequential.mean()));
    for (const StreamingStats* merged :
         {&left_assoc, &right_outer}) {
      EXPECT_EQ(merged->count(), sequential.count());
      EXPECT_NEAR(merged->mean(), sequential.mean(), 1e-9 * scale);
      EXPECT_NEAR(merged->variance(), sequential.variance(),
                  1e-6 * std::max(1.0, sequential.variance()));
      EXPECT_DOUBLE_EQ(merged->min(), sequential.min());
      EXPECT_DOUBLE_EQ(merged->max(), sequential.max());
      EXPECT_NEAR(merged->sum(), sequential.sum(), 1e-9 * scale *
                  static_cast<double>(sequential.count()));
    }
    EXPECT_EQ(ca.count(), ac.count());
    EXPECT_NEAR(ca.mean(), ac.mean(), 1e-9 * scale);
    EXPECT_NEAR(ca.variance(), ac.variance(),
                1e-6 * std::max(1.0, ac.variance()));
    EXPECT_DOUBLE_EQ(ca.min(), ac.min());
    EXPECT_DOUBLE_EQ(ca.max(), ac.max());
  }
}

TEST(StreamingStats, MergeWithEmptyIsNoop) {
  StreamingStats stats, empty;
  stats.add(1.0);
  stats.add(2.0);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 1.5);
}

TEST(StreamingStats, MergeIntoEmptyCopies) {
  StreamingStats stats, other;
  other.add(3.0);
  stats.merge(other);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(Percentile, MedianOfOddCount) {
  std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 20.0);
}

TEST(Percentile, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 42.0);
}

TEST(Percentile, DoesNotMutateInput) {
  std::vector<double> v{5.0, 1.0, 3.0};
  (void)percentile(v, 50.0);
  EXPECT_EQ(v[0], 5.0);
  EXPECT_EQ(v[1], 1.0);
  EXPECT_EQ(v[2], 3.0);
}

// Selection must return what a full sort returns, bit for bit, even when
// several ranks are selected one after another on the same buffer.
TEST(SelectPercentile, RepeatedSelectionsMatchSortBitwise) {
  Xoshiro256 rng(0x9e1ec7);
  const std::vector<double> qs{99.0, 0.0, 50.0, 12.5, 95.0, 100.0, 99.9, 1.0};
  for (int round = 0; round < 200; ++round) {
    std::vector<double> values(rng.next_in(1, 70));
    for (double& v : values)
      v = static_cast<double>(rng.next_in(0, 9)) / 3.0;  // many duplicates
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : qs) {
      double expected = sorted.front();
      if (sorted.size() > 1) {
        const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        expected = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(select_percentile(values, q)),
                std::bit_cast<std::uint64_t>(expected))
          << "n=" << values.size() << " q=" << q;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(sorted, q)),
                std::bit_cast<std::uint64_t>(expected));
    }
  }
}

TEST(JainFairness, AllEqualIsOne) {
  std::vector<double> v{4.0, 4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 1.0);
}

TEST(JainFairness, SingleUserDominanceIsOneOverN) {
  std::vector<double> v{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 0.25);
}

TEST(JainFairness, AllZeroIsDegenerateEqual) {
  std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(v), 1.0);
}

TEST(JainFairness, EmptyIsDegenerateEqual) {
  // Regression: empty input used to ADAPTBF_CHECK-abort, killing any
  // campaign containing a scenario that finishes with zero jobs.
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
}

TEST(JainFairness, ScaleInvariant) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{10.0, 20.0, 30.0};
  EXPECT_NEAR(jain_fairness(a), jain_fairness(b), 1e-12);
}

}  // namespace
}  // namespace adaptbf
