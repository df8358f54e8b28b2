// The figure claims of examples/sweeps/paper/*.ini, asserted on the
// checked-in files: §IV-H's Δt study (Fig. 9), the ablation switches of
// docs/paper_deviations.md, the §IV-C GIFT comparator and §III's
// decentralization across K OSTs.
//
// Each file is deterministic: one repetition, no start jitter. Each bound
// was set before its assertion, from the spread of that file re-run with
// repetitions = 5 and start_jitter_ms = 200 together with the checked-in
// run: the least favourable of those six runs, rounded against the claim.
// The comment at each assertion gives that spread. Claims the model does
// not show (no redistribution trailing full AdapTBF, a bucket-depth trend,
// GIFT keeping utilization high) are findings in CHANGES.md, not asserted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/experiment.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"

namespace adaptbf {
namespace {

std::vector<TrialSpec> figure_trials(const std::string& figure) {
  const SweepLoadResult loaded = load_sweep_file(
      ADAPTBF_SOURCE_DIR "/examples/sweeps/paper/" + figure + ".ini");
  EXPECT_TRUE(loaded.ok()) << figure << ": " << loaded.error;
  return loaded.ok() ? loaded.spec->expand() : std::vector<TrialSpec>{};
}

/// The figure's campaign rows in trial order, as sweep_cli runs them.
std::vector<TrialResult> run_rows(const std::string& figure) {
  SweepRunner::Options options;
  options.threads = 2;
  return SweepRunner(options).run(figure_trials(figure));
}

/// The same rows keyed by cell label and OST count.
std::map<std::string, TrialResult> run_figure(const std::string& figure) {
  std::map<std::string, TrialResult> cells;
  for (TrialResult& row : run_rows(figure))
    cells.emplace(row.scenario + "|" + std::to_string(row.num_osts),
                  std::move(row));
  return cells;
}

const TrialResult& cell(const std::map<std::string, TrialResult>& cells,
                        const std::string& label, std::uint32_t osts = 1) {
  const auto it = cells.find(label + "|" + std::to_string(osts));
  if (it == cells.end()) {
    ADD_FAILURE() << "no cell " << label << " at " << osts << " OSTs";
    static const TrialResult missing;
    return missing;
  }
  return it->second;
}

/// Same run: equal metrics, event count and per-job work.
void expect_same_run(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.aggregate_mibps, b.aggregate_mibps) << b.scenario;
  EXPECT_EQ(a.p99_ms, b.p99_ms) << b.scenario;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << b.scenario;
  EXPECT_EQ(a.events_dispatched, b.events_dispatched) << b.scenario;
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].bytes_completed, b.jobs[j].bytes_completed);
    EXPECT_EQ(a.jobs[j].mean_mibps, b.jobs[j].mean_mibps);
  }
}

TEST(PaperClaims, Fig9ThroughputFallsAsTheObservationPeriodGrows) {
  const std::vector<TrialResult> rows = run_rows("fig9_frequency");
  ASSERT_EQ(rows.size(), 7u);  // Δt = 25, 50, ..., 1600 ms, ascending.
  const double shortest = rows.front().aggregate_mibps;
  const double longest = rows.back().aggregate_mibps;
  // 1 - MiB/s(1600 ms) / MiB/s(25 ms): 16.0-20.3% over the jittered runs,
  // 16.9% checked in (1473.6 -> 1224.4 MiB/s).
  EXPECT_GE(1.0 - longest / shortest, 0.15);

  // Spearman's rank correlation of MiB/s with Δt: -1 in all five jittered
  // runs, -0.964 checked in, where 100 ms (1429.2 MiB/s) falls below
  // 200 ms (1443.1). Hence a trend, not strict monotonicity.
  const std::size_t n = rows.size();
  double rank_gap2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rank = 0;  // 0 = lowest MiB/s; Δt's own rank is i.
    for (const TrialResult& other : rows)
      rank += other.aggregate_mibps < rows[i].aggregate_mibps ? 1 : 0;
    const double gap = static_cast<double>(rank) - static_cast<double>(i);
    rank_gap2 += gap * gap;
  }
  const double rho =
      1.0 - 6.0 * rank_gap2 / static_cast<double>(n * (n * n - 1));
  EXPECT_LE(rho, -0.9);
}

TEST(PaperClaims, WithoutRecompensationTheStreamerKeepsWhatItBorrowed) {
  const auto cells = run_figure("ablation_borrowing");
  const TrialResult& full =
      cell(cells, "redistribution@redistribution=on@recompensation=on");
  const TrialResult& no_recompensation =
      cell(cells, "redistribution@redistribution=on@recompensation=off");
  // Job4's MiB/s (jobs ascend by id) without re-compensation over full
  // AdapTBF's: +4.9% to +12.9% over the jittered runs, +7.8% checked in
  // (1264.4 vs 1173.1).
  EXPECT_GE(no_recompensation.jobs.at(3).mean_mibps /
                full.jobs.at(3).mean_mibps,
            1.04);
}

TEST(PaperClaims, WithoutRedistributionThereIsNothingToRepay) {
  const auto cells = run_figure("ablation_borrowing");
  // Nothing is lent, so re-compensation changes nothing: the same run in
  // all five jittered repetitions and checked in.
  expect_same_run(
      cell(cells, "redistribution@redistribution=off@recompensation=off"),
      cell(cells, "redistribution@redistribution=off@recompensation=on"));
}

TEST(PaperClaims, TheDemandEstimatorMovesTheAggregateLittle) {
  const auto cells = run_figure("ablation_estimator");
  const std::string prefix = "recompensation@ewma_estimator=";
  const TrialResult& last_window = cell(cells, prefix + "off@ewma_alpha=0.5");
  for (const char* alpha : {"0.5", "0.3", "0.1"}) {
    // The last-window estimate ignores ewma_alpha: the same run in all
    // five jittered repetitions and checked in.
    expect_same_run(last_window,
                    cell(cells, prefix + "off@ewma_alpha=" + alpha));
    // |EWMA / last-window - 1| in aggregate MiB/s: 0.03-0.24% over the
    // jittered runs, at most 1.23% checked in (1450.8-1451.6 vs 1434.0).
    const TrialResult& ewma = cell(cells, prefix + "on@ewma_alpha=" + alpha);
    EXPECT_LE(std::abs(ewma.aggregate_mibps / last_window.aggregate_mibps -
                       1.0),
              0.015)
        << ewma.scenario;
  }
}

TEST(PaperClaims, FlooringWithoutRemaindersDropsOverAQuarterOfTheWork) {
  const auto cells = run_figure("ablation_remainders");
  const TrialResult& with = cell(cells, "tiny_budget@remainders=on");
  const TrialResult& without = cell(cells, "tiny_budget@remainders=off");
  // Each window floors 10/7 tokens to 1 per job: 7 of 10 tokens spent.
  // Work without / with remainders: 0.640-0.710 over the jittered runs,
  // 0.708 checked in (4,351 vs 6,147 RPCs).
  EXPECT_LE(static_cast<double>(without.total_bytes) /
                static_cast<double>(with.total_bytes),
            0.75);
  // With remainders the seven equal jobs get equal work. Largest over
  // smallest RPC count: 1.032-1.068 over the jittered runs, 1.018 checked
  // in (867-883 RPCs).
  ASSERT_EQ(with.jobs.size(), 7u);
  const auto [fewest, most] = std::minmax_element(
      with.jobs.begin(), with.jobs.end(),
      [](const JobSummary& a, const JobSummary& b) {
        return a.rpcs_completed < b.rpcs_completed;
      });
  EXPECT_LE(static_cast<double>(most->rpcs_completed) /
                static_cast<double>(fewest->rpcs_completed),
            1.1);
}

TEST(PaperClaims, AdaptbfClearsTheBurstsSoonerThanGiftAndNoBw) {
  // The bursty Jobs 1-3's worst per-job p99 latency. A campaign row's p99
  // pools every job's RPCs, which Job4's stream dominates; it orders the
  // policies the other way (AdapTBF 387.1, GIFT 272.3, No BW 108.0 ms).
  std::map<BwControl, double> burst_p99;
  for (const TrialSpec& trial : figure_trials("gift_comparison")) {
    const ExperimentResult result =
        run_experiment(trial.spec, ExperimentOptions::without_trace());
    double worst = 0.0;
    for (std::uint32_t id = 1; id <= 3; ++id)
      worst = std::max(worst, result.latency.total_latency(JobId(id)).p99_ms);
    burst_p99[trial.policy] = worst;
  }
  ASSERT_EQ(burst_p99.size(), 3u);
  // GIFT over AdapTBF: 1.96-3.81 over the jittered runs, 2.90 checked in
  // (88.3 vs 30.5 ms).
  EXPECT_GE(burst_p99[BwControl::kGift] / burst_p99[BwControl::kAdaptive],
            1.9);
  // No BW over GIFT: 1.29-1.83 over the jittered runs, 1.35 checked in
  // (118.8 vs 88.3 ms).
  EXPECT_GE(burst_p99[BwControl::kNone] / burst_p99[BwControl::kGift], 1.2);
}

TEST(PaperClaims, LocalControllersComposeIntoPrioritySharesAtEveryScale) {
  const auto cells = run_figure("multi_ost_scaling");
  const double one_ost = cell(cells, "striped_jobs").aggregate_mibps;
  for (const std::uint32_t osts : {1u, 2u, 4u, 8u}) {
    const TrialResult& row = cell(cells, "striped_jobs", osts);
    // Aggregate over K x the one-OST aggregate: 0.9990-1.0000 over the
    // jittered runs, 391.9-392.0 MiB/s per OST checked in.
    EXPECT_NEAR(row.aggregate_mibps / (osts * one_ost), 1.0, 0.002)
        << osts << " OSTs";
    double bytes = 0.0;
    double nodes = 0.0;
    for (const JobSummary& job : row.jobs) {
      bytes += static_cast<double>(job.bytes_completed);
      nodes += job.nodes;
    }
    // Each job's share of the bytes against its share of the nodes, in
    // points. The largest error at one K: 0.15-0.55 over the jittered
    // runs; checked in 1.004 at K = 1 (Job4 at 49.00%), then 0.544, 0.400
    // and 0.157, so a 1.0-point bound would fail at K = 1.
    for (const JobSummary& job : row.jobs) {
      EXPECT_NEAR(100.0 * static_cast<double>(job.bytes_completed) / bytes,
                  100.0 * job.nodes / nodes, 1.1)
          << job.name << " at " << osts << " OSTs";
    }
  }
}

}  // namespace
}  // namespace adaptbf
