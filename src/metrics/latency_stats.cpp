#include "metrics/latency_stats.h"

#include "support/stats.h"

namespace adaptbf {

void LatencyStats::record(const RpcCompletion& completion) {
  total_ms_[completion.rpc.job].push_back(completion.latency().to_seconds() *
                                          1e3);
}

namespace {
/// Selects in place, reordering `values`.
LatencyPercentiles select_percentiles(std::vector<double>& values) {
  LatencyPercentiles out;
  if (values.empty()) return out;
  out.samples = values.size();
  out.p50_ms = select_percentile(values, 50.0);
  out.p95_ms = select_percentile(values, 95.0);
  out.p99_ms = select_percentile(values, 99.0);
  return out;
}
}  // namespace

LatencySummary LatencyStats::summarize(std::vector<double> values) {
  LatencySummary summary;
  if (values.empty()) return summary;
  StreamingStats stats;
  for (double v : values) stats.add(v);
  summary.mean_ms = stats.mean();
  summary.max_ms = stats.max();
  static_cast<LatencyPercentiles&>(summary) = select_percentiles(values);
  return summary;
}

LatencySummary LatencyStats::total_latency(JobId job) const {
  const std::vector<double>* samples = total_ms_.find(job);
  return samples == nullptr ? LatencySummary{} : summarize(*samples);
}

LatencyPercentiles LatencyStats::pooled_percentiles() const {
  std::size_t total = 0;
  for (const auto& samples : total_ms_.values()) total += samples.size();
  std::vector<double> all;
  all.reserve(total);
  for (const auto& samples : total_ms_.values())
    all.insert(all.end(), samples.begin(), samples.end());
  return select_percentiles(all);
}

std::vector<JobId> LatencyStats::jobs() const {
  return {total_ms_.keys().begin(), total_ms_.keys().end()};  // ascending
}

std::size_t LatencyStats::samples(JobId job) const {
  const std::vector<double>* samples = total_ms_.find(job);
  return samples == nullptr ? 0 : samples->size();
}

}  // namespace adaptbf
