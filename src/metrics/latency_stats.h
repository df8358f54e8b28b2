// Per-job RPC latency collection.
//
// Burst-sensitive experiments (§IV-E) are better judged by how fast a burst
// clears than by mean bandwidth: a bursty job emitting 96 RPCs every few
// seconds shows the same MiB/s under any policy that eventually serves it,
// but its burst-completion latency differs wildly. This collector keeps
// per-job total-latency samples (issue -> completion) and reports
// percentiles.
#pragma once

#include <vector>

#include "rpc/rpc.h"
#include "sim/time.h"
#include "support/flat_map.h"

namespace adaptbf {

struct LatencySummary {
  std::size_t samples = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class LatencyStats {
 public:
  /// Records one completed RPC.
  void record(const RpcCompletion& completion);

  /// Percentile summary of total latency (issue -> completion) for a job.
  /// Zeroed summary if the job has no samples.
  [[nodiscard]] LatencySummary total_latency(JobId job) const;

  /// Summary across all jobs.
  [[nodiscard]] LatencySummary total_latency_all() const;

  [[nodiscard]] std::vector<JobId> jobs() const;
  [[nodiscard]] std::size_t samples(JobId job) const;

 private:
  /// Mean and max fold `values` in recording order; the percentiles are
  /// then selected in place, so the caller's copy is the only one.
  static LatencySummary summarize(std::vector<double> values);

  // Ascending JobId: total_latency_all() folds samples across jobs and
  // floating-point accumulation is rounding-order-sensitive — iteration
  // order must not depend on hash layout (lint: unordered-output).
  FlatMap<JobId, std::vector<double>> total_ms_;
};

}  // namespace adaptbf
