// Benchmark child process: one campaign, or one traced run, per process.
//
//   perfbench run   --sweep FILE [--fleet] [--journal PATH]
//                   --csv PATH --json PATH
//   perfbench trace (same flags) --scratch DIR --spans PATH
//
// `run` is what a user waits for: parse the sweep, expand it, run it and
// write the artifacts (campaign.h). It prints one JSON line with the
// milestones on the monotonic clock (seconds) and every trial's wall time;
// perfbench/run.py turns those into the end-to-end metrics. `trace`
// prints the per-layer metrics (traced_campaign.h). Exit status 1 on any
// campaign error, 2 on bad usage.
#include <cstdio>
#include <string>

#include "campaign.h"
#include "json_out.h"
#include "sweep/sweep_io.h"
#include "traced_campaign.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run|trace --sweep FILE [--fleet] [--journal PATH]\n"
               "         --csv PATH --json PATH [--scratch DIR --spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "run" && mode != "trace") return usage();
  std::string sweep_path;
  TraceConfig config;
  CampaignConfig& campaign = config.campaign;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--fleet") {
      campaign.fleet = true;
    } else if (flag == "--sweep" && has_value) {
      sweep_path = argv[++i];
    } else if (flag == "--journal" && has_value) {
      campaign.journal = argv[++i];
    } else if (flag == "--csv" && has_value) {
      campaign.csv = argv[++i];
    } else if (flag == "--json" && has_value) {
      campaign.json = argv[++i];
    } else if (flag == "--scratch" && has_value) {
      config.scratch_dir = argv[++i];
    } else if (flag == "--spans" && has_value) {
      config.spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (sweep_path.empty() || campaign.csv.empty() || campaign.json.empty() ||
      (campaign.fleet && campaign.journal.empty()) ||
      (mode == "trace" && (config.scratch_dir.empty() || config.spans_path.empty())))
    return usage();

  const adaptbf::SweepLoadResult loaded = adaptbf::load_sweep_file(sweep_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.error.c_str());
    return 1;
  }
  const adaptbf::SweepSpec& sweep = *loaded.spec;
  const std::vector<adaptbf::TrialSpec> trials = sweep.expand();

  if (mode == "trace") {
    const TraceResult traced = run_trace(config, sweep, trials);
    std::printf("%s\n", traced.document.c_str());
    return traced.error.empty() ? 0 : 1;
  }

  const CampaignRun run = run_campaign(campaign, sweep, trials);
  JsonObject out;
  out.str("error", run.error)
      .num("trials", static_cast<double>(run.trials))
      .num("done", static_cast<double>(run.done))
      .num("t_first", run.t_first)
      .num("t_durable", run.t_durable)
      .num("t_artifacts", run.t_artifacts)
      .num("rpcs", static_cast<double>(run.rpcs))
      .nums("trial_ms", run.trial_ms);
  std::printf("%s\n", out.text().c_str());
  return run.error.empty() ? 0 : 1;
}
