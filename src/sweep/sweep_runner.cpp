#include "sweep/sweep_runner.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "support/stats.h"
#include "sweep/trial_sink.h"

namespace adaptbf {

std::string TrialResult::cell_id() const {
  TrialSpec key;
  key.scenario = scenario;
  key.policy = policy;
  key.num_osts = num_osts;
  key.max_token_rate = max_token_rate;
  return key.cell_id();
}

TrialResult summarize_trial(const TrialSpec& trial,
                            const ExperimentResult& result) {
  TrialResult out;
  out.index = trial.index;
  out.scenario = trial.scenario;
  out.policy = trial.policy;
  out.num_osts = trial.num_osts;
  out.max_token_rate = trial.max_token_rate;
  out.repetition = trial.repetition;
  out.seed = trial.seed;

  out.aggregate_mibps = result.aggregate_mibps;
  std::vector<double> per_job;
  per_job.reserve(result.jobs.size());
  for (const auto& job : result.jobs) per_job.push_back(job.mean_mibps);
  out.fairness = jain_fairness(per_job);
  const LatencyPercentiles latency = result.latency.pooled_percentiles();
  out.p50_ms = latency.p50_ms;
  out.p95_ms = latency.p95_ms;
  out.p99_ms = latency.p99_ms;
  out.horizon_s = result.horizon.to_seconds();
  out.total_bytes = result.total_bytes;
  out.events_dispatched = result.events_dispatched;
  out.jobs = result.jobs;
  return out;
}

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options options) : options_(std::move(options)) {}

std::vector<TrialResult> SweepRunner::run(const SweepSpec& sweep) const {
  return run(sweep.expand());
}

std::vector<TrialResult> SweepRunner::run(
    const std::vector<TrialSpec>& trials) const {
  std::vector<TrialResult> results(trials.size());
  if (trials.empty()) return results;

  std::uint32_t workers = options_.threads;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  if (workers > trials.size())
    workers = static_cast<std::uint32_t>(trials.size());

  // Telemetry refs are resolved once, up front: workers touch only
  // lock-free atomics, never the registry mutex.
  Counter* trials_started = nullptr;
  Counter* trials_done_metric = nullptr;
  Counter* trials_failed = nullptr;
  Counter* events_total = nullptr;
  Counter* pool_reallocs = nullptr;
  Histogram* trial_runtime = nullptr;
  if (options_.metrics != nullptr) {
    trials_started = &options_.metrics->counter(kMetricTrialsStarted);
    trials_done_metric = &options_.metrics->counter(kMetricTrialsDone);
    trials_failed = &options_.metrics->counter(kMetricTrialsFailed);
    events_total = &options_.metrics->counter(kMetricEventsDispatched);
    pool_reallocs = &options_.metrics->counter(kMetricPoolReallocations);
    trial_runtime = &options_.metrics->histogram(kMetricTrialRuntime,
                                                 trial_runtime_bounds_s());
  }

  // Work-stealing by atomic index: no queue, no locks on the hot path.
  // Each worker runs whole trials; a trial's Simulator is confined to the
  // worker that claimed it, so the single-threaded simulator invariants
  // hold and results land in their index's slot regardless of timing.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::size_t completed = 0;            // Guarded by progress_mutex.
  std::exception_ptr first_error;       // Guarded by progress_mutex.
  std::mutex progress_mutex;

  // Exception barrier: a throw escaping a worker thread would call
  // std::terminate and take the whole campaign down. Capture the first
  // exception, stop claiming trials, and rethrow after the join — already
  // completed (and sunk) trials stay durable.
  auto worker_loop = [&]() {
    // One simulator per worker, reused across every trial this worker
    // claims: run_experiment reset()s it, so the event arena and periodic
    // pool stay warm for the whole lease instead of being rebuilt per
    // trial. Always substituted — a caller-provided simulator shared by
    // N workers would violate the single-threaded simulator invariant.
    Simulator worker_sim;
    ExperimentOptions experiment = options_.experiment;
    experiment.simulator = &worker_sim;
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= trials.size()) return;
      try {
        if (trials_started != nullptr) trials_started->inc();
        const auto trial_t0 = std::chrono::steady_clock::now();
        const ExperimentResult result =
            run_experiment(trials[i].spec, experiment);
        if (trial_runtime != nullptr) {
          // Recorded AFTER the experiment returns: the event loop itself
          // is never instrumented (see obs/metrics.h).
          const std::chrono::duration<double> elapsed =
              std::chrono::steady_clock::now() - trial_t0;
          trial_runtime->observe(elapsed.count());
        }
        if (events_total != nullptr)
          events_total->inc(result.events_dispatched);
        if (pool_reallocs != nullptr &&
            result.queue_stats.pool_reallocations > 0)
          pool_reallocs->inc(result.queue_stats.pool_reallocations);
        results[i] = summarize_trial(trials[i], result);
        if (trials_done_metric != nullptr) trials_done_metric->inc();
        if (options_.sink != nullptr || options_.on_trial_done) {
          // Count inside the lock so callbacks see a strictly increasing
          // 1..total sequence even when workers finish back to back; the
          // same lock serializes sink appends. Sink I/O (row formatting,
          // write, periodic fsync) therefore runs under the lock — a
          // deliberate simplicity tradeoff: one trial is a whole
          // simulation (>> the cost of journaling its ~1 KiB row), so
          // workers are virtually never contended here.
          std::lock_guard<std::mutex> lock(progress_mutex);
          if (options_.sink != nullptr) options_.sink->append(results[i]);
          if (options_.on_trial_done)
            options_.on_trial_done(++completed, trials.size(), results[i]);
          if (options_.sink != nullptr) {
            // Sunk rows carry the jobs payload on disk; releasing it here
            // keeps campaign memory independent of completed-trial count.
            results[i].jobs.clear();
            results[i].jobs.shrink_to_fit();
          }
        }
      } catch (...) {
        if (trials_failed != nullptr) trials_failed->inc();
        std::lock_guard<std::mutex> lock(progress_mutex);
        if (!first_error) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (workers == 1) {
    // Run inline: no thread spawn — handy under a debugger.
    worker_loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w)
      pool.emplace_back(worker_loop);
    for (auto& thread : pool) thread.join();
  }
  if (options_.sink != nullptr) {
    // Final durability point for the tail batch, even on abort.
    try {
      options_.sink->flush();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace adaptbf
