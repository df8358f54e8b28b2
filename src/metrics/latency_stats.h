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

/// Order statistics of a latency sample set.
struct LatencyPercentiles {
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

struct LatencySummary : LatencyPercentiles {
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

class LatencyStats {
 public:
  /// Records one completed RPC.
  void record(const RpcCompletion& completion);

  /// Percentile summary of total latency (issue -> completion) for a job.
  /// Zeroed summary if the job has no samples.
  [[nodiscard]] LatencySummary total_latency(JobId job) const;

  /// p50/p95/p99 of every job's samples pooled (the sweep's per-trial
  /// latency columns). Order statistics only: no per-sample fold.
  [[nodiscard]] LatencyPercentiles pooled_percentiles() const;

  [[nodiscard]] std::vector<JobId> jobs() const;
  [[nodiscard]] std::size_t samples(JobId job) const;

 private:
  /// Mean and max fold `values` in recording order; the percentiles are
  /// then selected in place, so the caller's copy is the only one.
  static LatencySummary summarize(std::vector<double> values);

  // Ascending JobId: iteration (jobs(), the pooled copy) must not depend
  // on hash layout (lint: unordered-output).
  FlatMap<JobId, std::vector<double>> total_ms_;
};

}  // namespace adaptbf
