// Report rendering shared by the figure-reproduction benches.
//
// Converts timelines/summaries into the same row/series shapes the paper's
// figures report: throughput-vs-time series (Figs. 3/5), per-job bandwidth
// bars (Figs. 4a/6a/8a), gain/loss vs a baseline (Figs. 4b/6b/8b), and the
// record/demand traces of Fig. 7.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "adaptbf/allocation_types.h"
#include "metrics/throughput_timeline.h"
#include "support/table.h"

namespace adaptbf {

/// Downsamples a 100 ms series into `points` rows of (time, value) by
/// averaging within each chunk — a printable stand-in for a plot line.
/// Chunks span a whole number of bins; each row's "t (s)" label is its
/// chunk's start, printed with as many decimals as the chunk width needs
/// to be exact (1 for 100 ms, 3 for 25 ms), so labels are distinct and
/// increasing.
[[nodiscard]] Table timeline_table(
    const ThroughputTimeline& timeline, SimTime horizon,
    const std::vector<std::pair<JobId, std::string>>& jobs,
    std::size_t points = 30);

/// Per-job mean bandwidth plus the aggregate (Fig. 4a shape). One column
/// per labelled policy; rows are jobs + "Overall".
struct PolicySummary {
  std::string policy;                       ///< e.g. "No BW".
  std::vector<double> per_job_mibps;        ///< Matches the jobs argument.
  double aggregate_mibps = 0.0;
};
[[nodiscard]] Table bandwidth_summary_table(
    const std::vector<std::pair<JobId, std::string>>& jobs,
    const std::vector<PolicySummary>& policies);

/// Gain/loss of `subject` relative to `baseline` per job and overall
/// (Fig. 4b shape). Values in MiB/s and percent.
[[nodiscard]] Table gain_loss_table(
    const std::vector<std::pair<JobId, std::string>>& jobs,
    const PolicySummary& subject, const PolicySummary& baseline);

/// Fig. 7 shape: per window, each job's record and demand.
[[nodiscard]] Table record_trace_table(
    const std::vector<WindowResult>& trace,
    const std::vector<std::pair<JobId, std::string>>& jobs,
    std::size_t points = 30);

}  // namespace adaptbf
