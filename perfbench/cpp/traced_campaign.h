// The traced run: per-layer numbers for one workload.
//
// Four passes over the same expanded grid:
//   A. the untraced campaign through the program's local path
//      (campaign.h), run before and after B — the baseline for the
//      tracing overhead and for the artifact bytes;
//   B. the same trials through the benchmark's own closed-loop runner,
//      each trial wired by traced_trial() under a span tracer, with the
//      same thread count and journal options; its artifacts must equal A's;
//   C. for the first trial of every grid cell, traced_trial() against
//      run_experiment(): dispatch hash, event counters and row must match;
//      the captured inputs then feed the replay microbenches (replay.h);
//   D. on every workload, the campaign through the fleet (campaign.h) and
//      a recording relay, for frame/byte counts and lease round trips; on
//      fleet workloads also the coordinator's journal counters and the
//      workers' busy share. Its artifacts must equal A's too.
// The result is one JSON object: the per-layer metrics and the checks.
#pragma once

#include <string>
#include <vector>

#include "campaign.h"

namespace perfbench {

struct TraceConfig {
  CampaignConfig campaign;  ///< The workload's campaign settings.
  std::string scratch_dir;  ///< Pass artifacts and journals go here.
  std::string spans_path;   ///< Span records (JSON lines) go here.
};

struct TraceResult {
  std::string error;     ///< First failure of any pass; empty on success.
  std::string document;  ///< JSON object with the metrics and checks.
};

/// Runs the four passes.
[[nodiscard]] TraceResult run_trace(const TraceConfig& config,
                                    const adaptbf::SweepSpec& sweep,
                                    const std::vector<adaptbf::TrialSpec>& trials);

}  // namespace perfbench
