// Streaming summary statistics and percentile helpers used by the metrics
// layer and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace adaptbf {

/// Single-pass mean / variance / min / max accumulator (Welford's method).
/// Numerically stable for long throughput timelines.
class StreamingStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< Sample variance (n-1 divisor).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction friendly).
  void merge(const StreamingStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample using linear interpolation between closest ranks.
/// `q` in [0, 100]. The input span is copied; the original is not reordered.
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// percentile() computed in place by selection instead of a sort: the
/// value a full sort gives, bit for bit (NaN-free input), in O(n).
/// Reorders `values`; repeated calls on one span, for any q, stay exact.
[[nodiscard]] double select_percentile(std::span<double> values, double q);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]; 1 = all equal.
/// Degenerate inputs (empty, or all-zero shares) return 1.0 — equal by
/// vacuity — so trial summaries never abort on jobless scenarios.
/// Used by tests to quantify share fairness across jobs.
[[nodiscard]] double jain_fairness(std::span<const double> values);

}  // namespace adaptbf
