#include "search/driver.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "support/log.h"
#include "sweep/dispatch.h"
#include "sweep/resume.h"
#include "sweep/sweep_runner.h"
#include "sweep/trial_sink.h"

namespace adaptbf {

namespace {

// -------------------------------------------------------------- executors

class LocalProbeExecutor final : public ProbeExecutor {
 public:
  LocalProbeExecutor(std::span<const TrialSpec> trials, std::uint32_t threads,
                     MetricRegistry* metrics)
      : trials_(trials) {
    SweepRunner::Options options;
    options.threads = threads;
    options.metrics = metrics;
    runner_ = std::make_unique<SweepRunner>(options);
  }

  std::string run(const std::vector<std::size_t>& indices,
                  std::vector<std::string>& rows_out) override {
    rows_out.clear();
    std::vector<TrialSpec> subset;
    subset.reserve(indices.size());
    for (const std::size_t index : indices) {
      if (index >= trials_.size())
        return "probe index " + std::to_string(index) +
               " outside the probe grid";
      subset.push_back(trials_[index]);
    }
    std::vector<TrialResult> results;
    try {
      results = runner_->run(subset);
    } catch (const std::exception& e) {
      return e.what();
    }
    rows_out.reserve(results.size());
    for (const TrialResult& result : results)
      rows_out.push_back(trial_to_jsonl(result));
    return "";
  }

 private:
  std::span<const TrialSpec> trials_;
  std::unique_ptr<SweepRunner> runner_;
};

class DispatchProbeExecutor final : public ProbeExecutor {
 public:
  explicit DispatchProbeExecutor(DispatchCoordinator& coordinator)
      : coordinator_(coordinator) {}

  std::string run(const std::vector<std::size_t>& indices,
                  std::vector<std::string>& rows_out) override {
    return coordinator_.serve_trials(indices, rows_out);
  }

 private:
  DispatchCoordinator& coordinator_;
};

// ------------------------------------------------------------ driver state

/// Everything run_search threads through its phases.
struct Driver {
  Driver(const SearchSpec& spec_in, std::span<const TrialSpec> trials_in,
         ProbeExecutor& executor_in, SearchDriverOptions& options_in)
      : spec(spec_in),
        trials(trials_in),
        ladder(spec_in.inputs()),
        reps_per_point(spec_in.grid_repetitions()),
        executor(executor_in),
        options(options_in) {}

  const SearchSpec& spec;
  std::span<const TrialSpec> trials;
  std::vector<double> ladder;
  std::uint32_t reps_per_point = 0;  ///< R: grid repetitions per rung.
  ProbeExecutor& executor;
  SearchDriverOptions& options;

  std::unique_ptr<JsonlTrialSink> sink;
  std::vector<bool> rows_have;
  std::vector<TrialResult> memo;  ///< Scalars, indexed by grid index.
  std::uint32_t step_no = 0;      ///< Journaled step rows so far.
  std::uint64_t trials_run = 0;

  Counter* steps_metric = nullptr;
  Counter* probe_trials_metric = nullptr;
  Gauge* bracket_metric = nullptr;
  Gauge* best_input_metric = nullptr;
  Gauge* converged_metric = nullptr;

  [[nodiscard]] std::size_t grid_index(std::uint32_t point,
                                       std::uint32_t rep) const {
    return static_cast<std::size_t>(point) * reps_per_point + rep;
  }

  /// Mean metrics of rung `point` over its first `reps` repetitions.
  /// Requires every row present (the caller schedules them first).
  [[nodiscard]] ProbeMetrics probe_metrics(std::uint32_t point,
                                           std::uint32_t reps) const {
    std::vector<TrialResult> rows;
    rows.reserve(reps);
    for (std::uint32_t rep = 0; rep < reps; ++rep)
      rows.push_back(memo[grid_index(point, rep)]);
    return mean_metrics(rows);
  }

  [[nodiscard]] bool rows_ready(std::uint32_t point, std::uint32_t reps) const {
    for (std::uint32_t rep = 0; rep < reps; ++rep)
      if (!rows_have[grid_index(point, rep)]) return false;
    return true;
  }

  /// Runs every missing row among the requests' repetitions as ONE
  /// executor call and journals the returned rows in index order.
  /// Returns "" or an error.
  [[nodiscard]] std::string run_missing(
      const std::vector<ProbeRequest>& batch) {
    std::vector<std::size_t> needed;
    for (const ProbeRequest& request : batch) {
      if (request.input_index >= ladder.size() ||
          request.repetitions > reps_per_point)
        return "probe request outside the grid (controller asked for " +
               std::to_string(request.repetitions) + " repetitions, grid "
               "holds " + std::to_string(reps_per_point) + ")";
      for (std::uint32_t rep = 0; rep < request.repetitions; ++rep) {
        const std::size_t index = grid_index(request.input_index, rep);
        if (!rows_have[index]) needed.push_back(index);
      }
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    if (needed.empty()) return "";
    std::vector<std::string> rows;
    const std::string error = executor.run(needed, rows);
    if (!error.empty()) return error;
    if (rows.size() != needed.size())
      return "executor returned " + std::to_string(rows.size()) +
             " rows for " + std::to_string(needed.size()) + " trials";
    for (std::size_t i = 0; i < needed.size(); ++i) {
      TrialResult row;
      if (!trial_scalars_from_jsonl(rows[i], row) ||
          !trial_row_matches(row, trials) || row.index != needed[i])
        return "executor returned a row that does not match trial " +
               std::to_string(needed[i]);
      sink->append_line(rows[i]);
      rows_have[row.index] = true;
      memo[row.index] = std::move(row);
      ++trials_run;
      if (probe_trials_metric != nullptr) probe_trials_metric->inc();
    }
    return "";
  }

  /// Journals one step row and fires telemetry + the progress callback.
  void emit_step(const SearchStepRow& row, bool replayed) {
    if (!replayed) {
      sink->append_line(search_step_to_jsonl(row));
      if (steps_metric != nullptr) steps_metric->inc();
    }
    if (bracket_metric != nullptr) bracket_metric->set(row.bracket);
    if (options.on_step) options.on_step(row);
  }
};

std::string step_label(std::uint32_t step) {
  return "journal step " + std::to_string(step);
}

}  // namespace

std::unique_ptr<ProbeExecutor> make_local_probe_executor(
    std::span<const TrialSpec> trials, std::uint32_t threads,
    MetricRegistry* metrics) {
  return std::make_unique<LocalProbeExecutor>(trials, threads, metrics);
}

std::unique_ptr<ProbeExecutor> make_dispatch_probe_executor(
    DispatchCoordinator& coordinator) {
  return std::make_unique<DispatchProbeExecutor>(coordinator);
}

SearchOutcome run_search(const SearchSpec& spec, const std::string& sweep_name,
                         std::span<const TrialSpec> trials,
                         const std::string& journal_path, bool resume,
                         ProbeExecutor& executor,
                         SearchDriverOptions options) {
  SearchOutcome outcome;
  Driver driver(spec, trials, executor, options);

  // The k * R + j layout is what makes ladder indices addressable as grid
  // indices; verify it against the expanded grid before trusting it.
  if (driver.ladder.size() < 2) {
    outcome.error = "search ladder needs at least 2 distinct values";
    return outcome;
  }
  if (trials.size() !=
      driver.ladder.size() * static_cast<std::size_t>(driver.reps_per_point)) {
    outcome.error =
        "probe grid size does not match ladder x repetitions (grid not "
        "built by SearchSpec::probe_sweep?)";
    return outcome;
  }
  for (std::size_t index = 0; index < trials.size(); ++index) {
    if (trials[index].index != index ||
        trials[index].repetition != index % driver.reps_per_point) {
      outcome.error = "probe grid trial " + std::to_string(index) +
                      " breaks the ladder x repetition layout";
      return outcome;
    }
  }

  if (options.metrics != nullptr) {
    driver.steps_metric = &options.metrics->counter(kMetricSearchSteps);
    driver.probe_trials_metric =
        &options.metrics->counter(kMetricSearchProbeTrials);
    driver.bracket_metric = &options.metrics->gauge(kMetricSearchBracketWidth);
    driver.best_input_metric = &options.metrics->gauge(kMetricSearchBestInput);
    driver.converged_metric = &options.metrics->gauge(kMetricSearchConverged);
  }

  // ---------------------------------------------------- journal open/scan
  const std::uint64_t search_hash = spec.search_hash();
  const SearchScan scan =
      scan_search_file(journal_path, sweep_name, trials, search_hash);
  if (!scan.ok()) {
    outcome.error = scan.error;
    return outcome;
  }
  if (!resume && !scan.fresh) {
    outcome.error = "journal '" + journal_path +
                    "' already exists; pass --resume to continue the search "
                    "or remove it to restart";
    return outcome;
  }
  const CampaignHeader header{sweep_name, sweep_grid_hash(trials),
                              trials.size(), ShardRef{}, kSearchStepVersion,
                              search_hash};
  JsonlTrialSink::OpenResult opened =
      JsonlTrialSink::open(journal_path, scan, header, options.sink);
  if (!opened.ok()) {
    outcome.error = opened.error;
    return outcome;
  }
  driver.sink = std::move(opened.sink);
  outcome.resumed = !scan.fresh;
  driver.rows_have = scan.have;
  driver.memo.assign(trials.size(), TrialResult{});
  for (const TrialResult& row : scan.rows) driver.memo[row.index] = row;

  // ------------------------------------------------------------- replay
  std::unique_ptr<StepController> controller = spec.make_controller();
  bool test_done = false;
  ProbeMetrics test_metrics;
  Verdict test_verdict = Verdict::kLower;
  for (const SearchStepRow& step : scan.steps) {
    if (test_done) {
      outcome.error = step_label(step.step) +
                      ": step row after the testing stage (journal edited?)";
      return outcome;
    }
    if (step.input_index >= driver.ladder.size() ||
        step.input != driver.ladder[step.input_index]) {
      outcome.error = step_label(step.step) +
                      ": input does not sit on the search ladder";
      return outcome;
    }
    if (step.repetitions > driver.reps_per_point) {
      outcome.error = step_label(step.step) +
                      ": claims more repetitions than the probe grid holds";
      return outcome;
    }
    if (!driver.rows_ready(step.input_index, step.repetitions)) {
      outcome.error = step_label(step.step) +
                      ": its scored trial rows are missing from the journal";
      return outcome;
    }
    const ProbeMetrics metrics =
        driver.probe_metrics(step.input_index, step.repetitions);
    const BenchmarkScore score =
        score_probe(metrics, spec.slo, spec.objective, spec.pass_margin);
    if (score.verdict != step.verdict) {
      outcome.error = step_label(step.step) + ": recorded verdict '" +
                      verdict_name(step.verdict) +
                      "' diverges from the replayed score '" +
                      verdict_name(score.verdict) +
                      "' (journal edited, or simulator behavior changed?)";
      return outcome;
    }
    if (step.test_stage) {
      if (!controller->done()) {
        outcome.error = step_label(step.step) +
                        ": testing-stage row before the adjusting stage "
                        "finished";
        return outcome;
      }
      const auto best = controller->best_index();
      if (!best.has_value() || *best != step.input_index) {
        outcome.error = step_label(step.step) +
                        ": testing-stage input is not the controller's "
                        "answer";
        return outcome;
      }
      test_done = true;
      test_metrics = metrics;
      test_verdict = score.verdict;
    } else {
      if (controller->done()) {
        outcome.error = step_label(step.step) +
                        ": adjusting-stage row after the controller "
                        "finished";
        return outcome;
      }
      const std::vector<ProbeRequest> batch = controller->next_probes();
      const ProbeRequest expected{step.input_index, step.repetitions};
      if (batch.empty() || !(batch.front() == expected)) {
        outcome.error = step_label(step.step) +
                        ": does not match the controller replay (search "
                        "config changed since the journal started?)";
        return outcome;
      }
      controller->feed(expected, score);
    }
    ++driver.step_no;
    ++outcome.steps_replayed;
    driver.emit_step(step, /*replayed=*/true);
  }

  // ---------------------------------------------------- live adjust loop
  while (!controller->done()) {
    const std::vector<ProbeRequest> batch = controller->next_probes();
    if (batch.empty()) break;
    const std::string error = driver.run_missing(batch);
    if (!error.empty()) {
      outcome.error = error;
      return outcome;
    }
    for (const ProbeRequest& request : batch) {
      const ProbeMetrics metrics =
          driver.probe_metrics(request.input_index, request.repetitions);
      const BenchmarkScore score =
          score_probe(metrics, spec.slo, spec.objective, spec.pass_margin);
      controller->feed(request, score);
      SearchStepRow row;
      row.step = ++driver.step_no;
      row.test_stage = false;
      row.input_index = request.input_index;
      row.input = driver.ladder[request.input_index];
      row.repetitions = request.repetitions;
      row.metrics = metrics;
      row.objective = score.objective;
      row.verdict = score.verdict;
      row.bracket = controller->bracket_width();
      driver.emit_step(row, /*replayed=*/false);
    }
    driver.sink->flush();
  }

  // -------------------------------------------------------- testing stage
  const auto best = controller->best_index();
  if (best.has_value() && !test_done) {
    const ProbeRequest request{*best, spec.test_repetitions};
    const std::string error = driver.run_missing({request});
    if (!error.empty()) {
      outcome.error = error;
      return outcome;
    }
    test_metrics = driver.probe_metrics(*best, spec.test_repetitions);
    const BenchmarkScore score =
        score_probe(test_metrics, spec.slo, spec.objective, spec.pass_margin);
    test_verdict = score.verdict;
    SearchStepRow row;
    row.step = ++driver.step_no;
    row.test_stage = true;
    row.input_index = *best;
    row.input = driver.ladder[*best];
    row.repetitions = spec.test_repetitions;
    row.metrics = test_metrics;
    row.objective = score.objective;
    row.verdict = score.verdict;
    row.bracket = controller->bracket_width();
    driver.emit_step(row, /*replayed=*/false);
    test_done = true;
  }
  driver.sink->flush();

  // -------------------------------------------------------------- outcome
  outcome.converged = controller->done() && !controller->exhausted();
  outcome.best_index = best;
  if (best.has_value()) {
    outcome.best_input = driver.ladder[*best];
    outcome.feasible = test_verdict != Verdict::kLower;
    outcome.test_metrics = test_metrics;
    outcome.test_verdict = test_verdict;
    if (driver.best_input_metric != nullptr)
      driver.best_input_metric->set(outcome.best_input);
  }
  outcome.steps = driver.step_no;
  outcome.trials_run = driver.trials_run;
  outcome.bracket = controller->bracket_width();
  if (driver.converged_metric != nullptr)
    driver.converged_metric->set(outcome.converged ? 1.0 : 0.0);
  const std::string best_text =
      best.has_value() ? std::to_string(outcome.best_input) : "none";
  ADAPTBF_LOG_INFO(
      "search", "%s after %u steps (%llu new trials): best %s",
      outcome.converged ? "converged" : "budget exhausted", outcome.steps,
      static_cast<unsigned long long>(outcome.trials_run), best_text.c_str());
  return outcome;
}

}  // namespace adaptbf
