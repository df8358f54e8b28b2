// Scenario-file runner: the library as a command-line tool.
//
//   $ ./run_scenario examples/scenarios/two_tenants.ini
//   $ ./run_scenario --dump examples/scenarios/two_tenants.ini   # echo spec
//
// Loads a declarative scenario description (see scenario_io.h for the
// format), runs it, and prints the per-job summary, latency percentiles
// and a throughput timeline — everything an operator needs to judge a
// bandwidth-control policy on their own workload mix.
#include <cstdio>

#include "cluster/experiment.h"
#include "metrics/report.h"
#include "support/cli_args.h"
#include "support/table.h"
#include "workload/scenario_io.h"

using namespace adaptbf;

int main(int argc, char** argv) {
  bool dump = false;
  const CliMode mode{
      nullptr, {{"--dump", nullptr, &dump}}, "<scenario.ini>", 1};
  const CliArgs args =
      parse_cli(mode, {argv + 1, static_cast<std::size_t>(argc - 1)});
  if (!args.ok() || args.operands.empty()) {
    if (!args.ok()) std::fprintf(stderr, "error: %s\n\n", args.error.c_str());
    std::fprintf(stderr, "%s", cli_synopsis(argv[0], mode).c_str());
    return 2;
  }

  const ScenarioLoadResult loaded = load_scenario_file(args.operands[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.error.c_str());
    return 1;
  }
  if (dump) {
    std::printf("%s", scenario_to_ini(*loaded.spec).c_str());
    return 0;
  }

  const ExperimentResult result = run_experiment(*loaded.spec);

  std::printf("scenario '%s' under %s: %zu jobs, %u OST(s), T_i=%.0f "
              "tokens/s, horizon %s\n\n",
              result.scenario_name.c_str(),
              std::string(to_string(result.control)).c_str(),
              result.jobs.size(), loaded.spec->num_osts,
              result.max_token_rate, to_string(result.horizon).c_str());

  Table summary({"job", "nodes", "MiB/s", "RPCs done", "p50 lat (ms)",
                 "p99 lat (ms)", "finished"});
  for (const auto& job : result.jobs) {
    const auto latency = result.latency.total_latency(job.id);
    summary.add_row({job.name, std::to_string(job.nodes),
                     fmt_fixed(job.mean_mibps, 1),
                     fmt_count(job.rpcs_completed),
                     fmt_fixed(latency.p50_ms, 1),
                     fmt_fixed(latency.p99_ms, 1),
                     job.finished ? to_string(job.finish_time) : "running"});
  }
  std::printf("%s\n", summary.to_string("Per-job results").c_str());
  std::printf("aggregate: %.1f MiB/s\n\n", result.aggregate_mibps);
  std::printf("%s\n",
              timeline_table(result.timeline, result.horizon,
                             result.job_labels(), 20)
                  .to_string("Throughput timeline (MiB/s)")
                  .c_str());
  return 0;
}
