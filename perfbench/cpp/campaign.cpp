#include "campaign.h"

#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "metrics/sweep_export.h"
#include "obs/metrics.h"
#include "relay.h"
#include "sweep/dispatch.h"
#include "sweep/resume.h"
#include "sweep/sweep_aggregator.h"
#include "sweep/sweep_runner.h"
#include "sweep/trial_sink.h"
#include "tracer.h"

namespace perfbench {

using namespace adaptbf;

namespace {

/// Completion-to-completion wall per runner thread. Local runner threads
/// report under the runner's lock, fleet workers each from their own
/// thread, so this keeps its own lock.
class TrialClock {
 public:
  explicit TrialClock(CampaignRun& run) : run_(run) {}

  void start_thread() {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_[std::this_thread::get_id()] = now_s();
  }

  void trial_done(const TrialResult& result) {
    const double now = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = last_.find(std::this_thread::get_id());
    // Local runner threads start when the runner does; fleet workers are
    // registered by start_thread(), so t_first is only read here after the
    // thread that writes it has started the runner.
    if (it == last_.end()) it = last_.emplace(std::this_thread::get_id(), run_.t_first).first;
    run_.trial_ms.push_back((now - it->second) * 1e3);
    it->second = now;
    ++run_.done;
    for (const JobSummary& job : result.jobs) run_.rpcs += job.rpcs_completed;
  }

 private:
  CampaignRun& run_;
  std::mutex mutex_;
  std::map<std::thread::id, double> last_;
};

std::string run_fleet(const CampaignConfig& config, const SweepSpec& sweep,
                      const std::vector<TrialSpec>& trials, RecordingRelay* relay,
                      CampaignRun& run) {
  DispatchCoordinator::Options options;
  options.lease_size = kLease;
  DispatchCoordinator::Open opened =
      DispatchCoordinator::open(config.journal, sweep.name, trials, false, options);
  if (!opened.ok()) return opened.error;
  DispatchCoordinator& coordinator = *opened.coordinator;
  const Counter& leases = coordinator.registry().counter(kMetricDispatchLeasesGranted);
  std::uint16_t port = coordinator.port();
  if (relay != nullptr) {
    const std::string error = relay->start(port);
    if (!error.empty()) return error;
    port = relay->port();
  }

  TrialClock clock(run);
  DispatchServeResult served;
  std::atomic<bool> serving{true};
  std::thread server([&] {
    served = coordinator.serve();
    serving.store(false);
  });
  std::vector<DispatchWorkResult> worked(kThreads);
  std::atomic<std::uint32_t> working{kThreads};
  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      clock.start_thread();
      DispatchWorkerOptions worker;
      worker.threads = 1;
      worker.on_trial_done = [&clock](const TrialResult& result) {
        clock.trial_done(result);
      };
      worked[w] = run_dispatch_worker("127.0.0.1", port, sweep.name, trials, worker);
      working.fetch_sub(1);
    });
  }
  // Set-up ends when the first lease is granted: listener bound, a worker
  // welcomed, its first trial about to start. Polled, not hooked: the
  // coordinator exposes the count only through its registry.
  while (leases.value() == 0 && serving.load() && working.load() > 0)
    std::this_thread::yield();
  run.t_first = now_s();
  for (auto& thread : workers) thread.join();
  // Workers return only on `done` or an error; after an error nobody is
  // left to finish the campaign, so stop the coordinator instead of
  // waiting on it forever.
  for (const DispatchWorkResult& result : worked)
    if (!result.ok()) coordinator.request_stop();
  server.join();
  run.t_durable = now_s();
  if (relay != nullptr) relay->stop();
  // serve() flushes the journal before it returns.
  run.journal_bytes = coordinator.registry().counter(kMetricJournalBytes).value();
  run.journal_fsyncs = coordinator.registry().counter(kMetricJournalFsyncs).value();
  if (!served.ok()) return "serve: " + served.error;
  if (!served.complete) return "serve returned before every trial was journaled";
  for (const DispatchWorkResult& result : worked)
    if (!result.ok()) return "worker: " + result.error;
  return export_journal(config, sweep, trials);
}

std::string run_local(const CampaignConfig& config, const SweepSpec& sweep,
                      const std::vector<TrialSpec>& trials, CampaignRun& run) {
  MetricRegistry journal_metrics;
  std::unique_ptr<JsonlTrialSink> sink;
  if (!config.journal.empty()) {
    JsonlSinkOptions sink_options;
    sink_options.metrics = &journal_metrics;
    const std::string error =
        open_journal(config.journal, sweep.name, trials, sink_options, sink);
    if (!error.empty()) return error;
  }

  TrialClock clock(run);
  SweepRunner::Options options;
  options.threads = kThreads;
  options.sink = sink.get();
  options.on_trial_done = [&clock](std::size_t, std::size_t,
                                   const TrialResult& result) {
    clock.trial_done(result);
  };
  run.t_first = now_s();
  std::vector<TrialResult> results;
  try {
    results = SweepRunner(options).run(trials);
  } catch (const std::exception& e) {
    return std::string("campaign stopped: ") + e.what();
  }
  sink.reset();  // Flush + close before re-reading the journal.
  run.t_durable = now_s();
  run.journal_bytes = journal_metrics.counter(kMetricJournalBytes).value();
  run.journal_fsyncs = journal_metrics.counter(kMetricJournalFsyncs).value();
  if (!config.journal.empty()) return export_journal(config, sweep, trials);

  const std::vector<CellStats> cells = aggregate_sweep(results);
  if (!write_file(config.csv, sweep_cells_table(cells).to_csv()) ||
      !write_file(config.json, sweep_to_json(sweep.name, results, cells)))
    return "could not write artifacts";
  return "";
}

}  // namespace

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << contents;
  return file.good();
}

std::string open_journal(const std::string& path, const std::string& sweep_name,
                         const std::vector<TrialSpec>& trials,
                         const JsonlSinkOptions& options,
                         std::unique_ptr<JsonlTrialSink>& sink) {
  const CampaignScan scan = scan_campaign_file(path, sweep_name, trials);
  if (!scan.ok()) return scan.error;
  if (!scan.fresh) return "journal '" + path + "' already exists";
  CampaignHeader header;
  header.sweep = sweep_name;
  header.grid_hash = sweep_grid_hash(trials);
  header.trials = trials.size();
  auto opened = JsonlTrialSink::open_fresh(path, header, options);
  if (!opened.ok()) return opened.error;
  sink = std::move(opened.sink);
  return "";
}

std::string export_journal(const CampaignConfig& config, const SweepSpec& sweep,
                           const std::vector<TrialSpec>& trials) {
  std::ofstream json(config.json, std::ios::binary);
  if (!json) return "could not write " + config.json;
  const JsonlExportResult exported =
      export_campaign_from_jsonl(config.journal, sweep.name, trials, &json);
  if (!exported.ok()) return exported.error;
  json.close();
  if (!json.good()) return "could not write " + config.json;
  if (!write_file(config.csv, sweep_cells_table(exported.cells).to_csv()))
    return "could not write " + config.csv;
  return "";
}

CampaignRun run_campaign(const CampaignConfig& config, const SweepSpec& sweep,
                         const std::vector<TrialSpec>& trials,
                         RecordingRelay* relay) {
  CampaignRun run;
  run.trials = trials.size();
  run.trial_ms.reserve(trials.size());
  run.error = config.fleet ? run_fleet(config, sweep, trials, relay, run)
                           : run_local(config, sweep, trials, run);
  run.t_artifacts = now_s();
  return run;
}

}  // namespace perfbench
