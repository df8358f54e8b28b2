#include "metrics/throughput_timeline.h"

#include "support/check.h"
#include "support/units.h"

namespace adaptbf {

ThroughputTimeline::ThroughputTimeline(SimDuration bin_width)
    : bin_width_(bin_width) {
  ADAPTBF_CHECK(bin_width > SimDuration(0));
}

std::size_t ThroughputTimeline::bin_index(SimTime when) const {
  ADAPTBF_CHECK(when >= SimTime::zero());
  return static_cast<std::size_t>(when.ns() / bin_width_.ns());
}

void ThroughputTimeline::record(JobId job, std::uint32_t bytes, SimTime when) {
  JobSeries& series = jobs_[job];
  const std::size_t index = bin_index(when);
  if (series.bytes_per_bin.size() <= index)
    series.bytes_per_bin.resize(index + 1, 0);
  series.bytes_per_bin[index] += bytes;
  series.total += bytes;
}

std::vector<double> ThroughputTimeline::series_mibps(JobId job,
                                                     SimTime horizon) const {
  const std::size_t bins =
      static_cast<std::size_t>(horizon.ns() / bin_width_.ns()) +
      (horizon.ns() % bin_width_.ns() != 0 ? 1u : 0u);
  std::vector<double> series(bins, 0.0);
  const JobSeries* recorded = jobs_.find(job);
  if (recorded == nullptr) return series;
  const auto& job_bins = recorded->bytes_per_bin;
  const double bin_sec = bin_width_.to_seconds();
  for (std::size_t i = 0; i < bins && i < job_bins.size(); ++i)
    series[i] = to_mib(job_bins[i]) / bin_sec;
  return series;
}

std::vector<double> ThroughputTimeline::aggregate_mibps(SimTime horizon) const {
  const std::size_t bins =
      static_cast<std::size_t>(horizon.ns() / bin_width_.ns()) +
      (horizon.ns() % bin_width_.ns() != 0 ? 1u : 0u);
  std::vector<double> series(bins, 0.0);
  const double bin_sec = bin_width_.to_seconds();
  for (const JobSeries& job : jobs_.values())
    for (std::size_t i = 0; i < bins && i < job.bytes_per_bin.size(); ++i)
      series[i] += to_mib(job.bytes_per_bin[i]) / bin_sec;
  return series;
}

std::uint64_t ThroughputTimeline::total_bytes(JobId job) const {
  const JobSeries* recorded = jobs_.find(job);
  return recorded == nullptr ? 0 : recorded->total;
}

std::uint64_t ThroughputTimeline::total_bytes() const {
  std::uint64_t total = 0;
  for (const JobSeries& job : jobs_.values()) total += job.total;
  return total;
}

double ThroughputTimeline::mean_mibps(JobId job, SimTime horizon) const {
  ADAPTBF_CHECK(horizon > SimTime::zero());
  return to_mib(total_bytes(job)) / horizon.to_seconds();
}

double ThroughputTimeline::aggregate_mean_mibps(SimTime horizon) const {
  ADAPTBF_CHECK(horizon > SimTime::zero());
  return to_mib(total_bytes()) / horizon.to_seconds();
}

std::vector<JobId> ThroughputTimeline::jobs() const {
  return {jobs_.keys().begin(), jobs_.keys().end()};  // already ascending
}

}  // namespace adaptbf
