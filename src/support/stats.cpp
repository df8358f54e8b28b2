#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace adaptbf {

void StreamingStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double StreamingStats::mean() const { return n_ ? mean_ : 0.0; }

double StreamingStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::min() const { return n_ ? min_ : 0.0; }

double StreamingStats::max() const { return n_ ? max_ : 0.0; }

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  return select_percentile(copy, q);
}

double select_percentile(std::span<double> values, double q) {
  ADAPTBF_CHECK(!values.empty());
  ADAPTBF_CHECK(q >= 0.0 && q <= 100.0);
  if (values.size() == 1) return values.front();
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // After nth_element, position lo holds the sorted order's lo-th value
  // and everything after it is >= that value, so the sorted order's
  // (lo+1)-th value is the minimum of that upper partition.
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double lo_value = *nth;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(nth + 1, values.end());
  return lo_value + frac * (hi_value - lo_value);
}

double jain_fairness(std::span<const double> values) {
  // Degenerate inputs are defined, not checked: a scenario can legitimately
  // complete with zero jobs (empty workload, all-idle horizon), and a
  // campaign must summarize such a trial rather than abort the process.
  // Zero jobs — like all-zero shares below — is "nobody is disadvantaged":
  // fairness 1.
  if (values.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;  // all zero shares: degenerate but equal
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace adaptbf
