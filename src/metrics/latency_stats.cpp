#include "metrics/latency_stats.h"

#include <utility>

#include "support/stats.h"

namespace adaptbf {

void LatencyStats::record(const RpcCompletion& completion) {
  total_ms_[completion.rpc.job].push_back(completion.latency().to_seconds() *
                                          1e3);
}

LatencySummary LatencyStats::summarize(std::vector<double> values) {
  LatencySummary summary;
  if (values.empty()) return summary;
  summary.samples = values.size();
  StreamingStats stats;
  for (double v : values) stats.add(v);
  summary.mean_ms = stats.mean();
  summary.max_ms = stats.max();
  summary.p50_ms = select_percentile(values, 50.0);
  summary.p95_ms = select_percentile(values, 95.0);
  summary.p99_ms = select_percentile(values, 99.0);
  return summary;
}

LatencySummary LatencyStats::total_latency(JobId job) const {
  const std::vector<double>* samples = total_ms_.find(job);
  return samples == nullptr ? LatencySummary{} : summarize(*samples);
}

LatencySummary LatencyStats::total_latency_all() const {
  std::size_t total = 0;
  for (const auto& samples : total_ms_.values()) total += samples.size();
  std::vector<double> all;
  all.reserve(total);
  for (const auto& samples : total_ms_.values())
    all.insert(all.end(), samples.begin(), samples.end());
  return summarize(std::move(all));
}

std::vector<JobId> LatencyStats::jobs() const {
  return {total_ms_.keys().begin(), total_ms_.keys().end()};  // ascending
}

std::size_t LatencyStats::samples(JobId job) const {
  const std::vector<double>* samples = total_ms_.find(job);
  return samples == nullptr ? 0 : samples->size();
}

}  // namespace adaptbf
