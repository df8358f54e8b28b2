#include "traced_campaign.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "json_out.h"
#include "metrics/sweep_export.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "relay.h"
#include "replay.h"
#include "sweep/dispatch.h"
#include "sweep/resume.h"
#include "sweep/sweep_aggregator.h"
#include "sweep/sweep_runner.h"
#include "sweep/trial_sink.h"
#include "traced_trial.h"

namespace perfbench {

using namespace adaptbf;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

/// The workload's campaign settings with every output moved into `dir`
/// under `tag`, any stale copy removed. The fleet always journals.
CampaignConfig outputs_in(const CampaignConfig& base, const std::string& dir,
                          const std::string& tag) {
  CampaignConfig config = base;
  if (!base.journal.empty() || base.fleet) config.journal = dir + "/" + tag + ".jsonl";
  config.csv = dir + "/" + tag + ".csv";
  config.json = dir + "/" + tag + ".json";
  for (const std::string* path : {&config.journal, &config.csv, &config.json})
    if (!path->empty()) std::filesystem::remove(*path);
  return config;
}

bool same_artifacts(const CampaignConfig& a, const CampaignConfig& b) {
  const std::string csv = read_file(a.csv);
  const std::string json = read_file(a.json);
  return !csv.empty() && !json.empty() && csv == read_file(b.csv) &&
         json == read_file(b.json);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// JsonlTrialSink with every call timed from outside. Calls that closed a
/// durability batch (the sink's fsync counter moved), the final flush and
/// the close count as fsync time as well.
class TimedJournal {
 public:
  std::string open(const std::string& path, const std::string& sweep_name,
                   const std::vector<TrialSpec>& trials) {
    JsonlSinkOptions options;
    options.metrics = &registry_;
    return open_journal(path, sweep_name, trials, options, sink_);
  }

  void append(const TrialResult& row) {
    const std::uint64_t fsyncs = fsyncs_.value();
    const std::int64_t t0 = now_ns();
    sink_->append(row);
    const std::int64_t elapsed = now_ns() - t0;
    append_ns += elapsed;
    if (fsyncs_.value() != fsyncs) fsync_ns += elapsed;
    ++rows;
  }

  void close() {
    const std::int64_t t0 = now_ns();
    sink_->flush();
    sink_.reset();
    fsync_ns += now_ns() - t0;
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_.value(); }
  [[nodiscard]] std::uint64_t fsyncs() const { return fsyncs_.value(); }

  std::int64_t append_ns = 0;
  std::int64_t fsync_ns = 0;
  std::uint64_t rows = 0;

 private:
  MetricRegistry registry_;
  Counter& fsyncs_ = registry_.counter(kMetricJournalFsyncs);
  Counter& bytes_ = registry_.counter(kMetricJournalBytes);
  std::unique_ptr<JsonlTrialSink> sink_;
};

struct JournalCost {
  std::int64_t append_ns = 0;
  std::int64_t fsync_ns = 0;
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;
  bool replayed = false;  ///< The campaign has no journal; rows replayed.

  void take(const TimedJournal& journal) {
    append_ns = journal.append_ns;
    fsync_ns = journal.fsync_ns;
    rows = journal.rows;
    bytes = journal.bytes();
    fsyncs = journal.fsyncs();
  }
};

/// Pass B: the benchmark's own closed-loop runner over traced trials.
struct TracedPass {
  std::string error;
  Tracer tracer;  ///< All threads merged.
  double phase_s = 0.0;
  JournalCost journal;
  std::vector<std::string> rows;  ///< Exact journal-row bytes, index order.
};

TracedPass run_traced(const CampaignConfig& config, const SweepSpec& sweep,
                      const std::vector<TrialSpec>& trials) {
  TracedPass pass;
  TimedJournal journal;
  const bool journaled = !config.journal.empty();
  if (journaled) {
    pass.error = journal.open(config.journal, sweep.name, trials);
    if (!pass.error.empty()) return pass;
  }
  std::vector<TrialResult> results(trials.size());
  std::atomic<std::size_t> next{0};
  std::mutex append_mutex;
  std::vector<Tracer> tracers(kThreads);

  const auto worker = [&](std::uint32_t w) {
    Tracer& tracer = tracers[w];
    Simulator sim;
    bool first = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= trials.size()) return;
      tracer.begin_trial(i, /*detailed=*/first);
      first = false;
      const ExperimentResult result = traced_trial(trials[i].spec, sim, tracer);
      TrialResult row;
      {
        Span span(tracer, Layer::kMetricsSummary);
        row = summarize_trial(trials[i], result);
      }
      {
        Span span(tracer, Layer::kSweepAppend);
        const std::lock_guard<std::mutex> lock(append_mutex);
        if (journaled) journal.append(row);
        results[i] = std::move(row);
      }
      tracer.end_trial();
    }
  };
  const double t0 = now_s();
  std::vector<std::thread> pool;
  for (std::uint32_t w = 0; w < kThreads; ++w) pool.emplace_back(worker, w);
  for (auto& thread : pool) thread.join();
  pass.phase_s = now_s() - t0;
  for (const Tracer& tracer : tracers) pass.tracer.merge(tracer);

  if (journaled) {
    journal.close();
    pass.journal.take(journal);
  }
  if (journaled) {
    pass.error = export_journal(config, sweep, trials);
  } else {
    const std::vector<CellStats> cells = aggregate_sweep(results);
    if (!write_file(config.csv, sweep_cells_table(cells).to_csv()) ||
        !write_file(config.json, sweep_to_json(sweep.name, results, cells)))
      pass.error = "could not write traced artifacts";
  }

  for (const TrialResult& row : results) pass.rows.push_back(trial_to_jsonl(row));
  return pass;
}

/// Pass C: traced_trial() against run_experiment() on the first trial of
/// each grid cell, then the replays on what those trials captured.
struct FidelityPass {
  std::size_t cells = 0;
  std::vector<std::string> mismatched;  ///< Cell ids that differed.
  PsDiskReplay disk;
  double disk_capacity_ns = 0.0;  ///< Σ horizon × OSTs.
  AllocatorReplay allocator;
};

FidelityPass check_cells(const std::vector<TrialSpec>& trials) {
  FidelityPass pass;
  std::set<std::string> seen;
  for (const TrialSpec& trial : trials) {
    if (!seen.insert(trial.cell_id()).second) continue;
    ++pass.cells;
    Tracer scratch;
    Simulator sim;
    TrialCapture capture;
    DispatchHash traced_hash;
    const ExperimentResult traced =
        traced_trial(trial.spec, sim, scratch, &capture, &traced_hash);

    DispatchHash reference_hash;
    ExperimentOptions options = ExperimentOptions::without_trace();
    options.dispatch_hook = [&reference_hash](SimTime when, std::uint64_t seq) {
      reference_hash.mix(when, seq);
    };
    const ExperimentResult reference = run_experiment(trial.spec, options);

    const EventQueue::Stats& a = traced.queue_stats;
    const EventQueue::Stats& b = reference.queue_stats;
    const bool same =
        traced_hash.value() == reference_hash.value() &&
        traced.events_dispatched == reference.events_dispatched &&
        a.scheduled == b.scheduled && a.fired == b.fired &&
        a.cancelled == b.cancelled && a.pool_reallocations == b.pool_reallocations &&
        a.callback_heap_spills == b.callback_heap_spills &&
        traced.event_pool_slots == reference.event_pool_slots &&
        traced.allocation_trace.size() == reference.allocation_trace.size() &&
        trial_to_jsonl(summarize_trial(trial, traced)) ==
            trial_to_jsonl(summarize_trial(trial, reference));
    if (!same) pass.mismatched.push_back(trial.cell_id());

    const PsDiskReplay disk = replay_psdisk(trial.spec, capture);
    pass.disk.rpcs += disk.rpcs;
    pass.disk.ns += disk.ns;
    pass.disk.mismatches += disk.mismatches;
    pass.disk.busy_transfer_ns += disk.busy_transfer_ns;
    pass.disk_capacity_ns +=
        static_cast<double>(traced.horizon.ns()) * trial.spec.num_osts;
    const AllocatorReplay allocator =
        replay_allocator(trial.spec, traced.max_token_rate, capture);
    pass.allocator.windows += allocator.windows;
    pass.allocator.allocate_ns += allocator.allocate_ns;
    pass.allocator.apply_ns += allocator.apply_ns;
    pass.allocator.mismatches += allocator.mismatches;
  }
  return pass;
}

/// Frame-level view of the relayed fleet traffic.
struct NetPass {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::vector<double> lease_rtt_ms;  ///< request -> lease, per lease.
  std::vector<std::vector<std::string>> chunks;  ///< Per direction, as received.
};

NetPass analyze_streams(const std::vector<RecordingRelay::Stream>& streams) {
  NetPass net;
  using Type = dispatch_wire::Message::Type;
  struct Frame {
    std::int64_t when_ns;
    Type type;
  };
  const auto decode = [&net](const std::vector<RecordingRelay::Chunk>& chunks) {
    std::vector<Frame> frames;
    FrameReader reader;
    std::string payload, error;
    dispatch_wire::Message message;
    std::vector<std::string> raw;
    for (const RecordingRelay::Chunk& chunk : chunks) {
      reader.feed(chunk.bytes.data(), chunk.bytes.size());
      net.bytes += chunk.bytes.size();
      raw.push_back(chunk.bytes);
      while (reader.next(payload, error) == FrameReader::Status::kFrame)
        if (dispatch_wire::parse(payload, message))
          frames.push_back({chunk.when_ns, message.type});
    }
    net.frames += frames.size();
    net.chunks.push_back(std::move(raw));
    return frames;
  };
  for (const RecordingRelay::Stream& stream : streams) {
    const std::vector<Frame> requests = decode(stream.to_coordinator);
    const std::vector<Frame> replies = decode(stream.to_worker);
    std::size_t r = 0;
    for (const Frame& request : requests) {
      if (request.type != Type::kRequest) continue;
      while (r < replies.size() && replies[r].when_ns < request.when_ns) ++r;
      if (r < replies.size() && replies[r].type == Type::kLease)
        net.lease_rtt_ms.push_back(
            static_cast<double>(replies[r].when_ns - request.when_ns) / 1e6);
    }
  }
  return net;
}

}  // namespace

TraceResult run_trace(const TraceConfig& config, const SweepSpec& sweep,
                      const std::vector<TrialSpec>& trials) {
  const std::string& dir = config.scratch_dir;
  std::filesystem::create_directories(dir);
  JsonObject out;
  JsonObject checks;
  std::string error;

  // A: untraced, through the program's local path — once before and once
  // after B, so drift in the machine's speed over the run cancels out of
  // the overhead estimate.
  CampaignConfig local = config.campaign;
  local.fleet = false;
  double untraced_tps = 0.0;
  CampaignRun untraced;
  const auto untraced_pass = [&] {
    local = outputs_in(local, dir, "untraced");
    untraced = run_campaign(local, sweep, trials);
    if (error.empty() && !untraced.error.empty()) error = "untraced: " + untraced.error;
    untraced_tps += 0.5 * ratio(static_cast<double>(untraced.done),
                                untraced.t_durable - untraced.t_first);
  };
  untraced_pass();

  // B: traced, the benchmark's own runner.
  const CampaignConfig traced_config = outputs_in(local, dir, "traced");
  TracedPass traced = run_traced(traced_config, sweep, trials);
  if (error.empty() && !traced.error.empty()) error = "traced: " + traced.error;
  untraced_pass();
  checks.boolean("traced_artifacts_equal", same_artifacts(local, traced_config));

  // Without a campaign journal, the journal layer is measured by replaying
  // this campaign's rows into a scratch journal.
  if (config.campaign.journal.empty()) {
    TimedJournal journal;
    const std::string replay_path = dir + "/journal_replay.jsonl";
    std::filesystem::remove(replay_path);
    const std::string open_error = journal.open(replay_path, sweep.name, trials);
    if (error.empty() && !open_error.empty()) error = "journal replay: " + open_error;
    if (open_error.empty()) {
      TrialResult row;
      for (const std::string& line : traced.rows)
        if (trial_from_jsonl(line, row)) journal.append(row);
      journal.close();
      traced.journal.take(journal);
      traced.journal.replayed = true;
    }
  }

  // C: fidelity and replays.
  const FidelityPass fidelity = check_cells(trials);
  checks.boolean("traced_trial_matches_run_experiment", fidelity.mismatched.empty());
  checks.boolean("psdisk_replay_matches", fidelity.disk.mismatches == 0);
  checks.boolean("allocator_replay_matches", fidelity.allocator.mismatches == 0);

  // D: the campaign again through the fleet and a recording relay, on
  // every workload, for the lease and net layers.
  CampaignConfig fleet_config = config.campaign;
  fleet_config.fleet = true;
  fleet_config = outputs_in(fleet_config, dir, "fleet");
  RecordingRelay relay;
  const CampaignRun fleet = run_campaign(fleet_config, sweep, trials, &relay);
  if (error.empty() && !fleet.error.empty()) error = "fleet: " + fleet.error;
  checks.boolean("fleet_artifacts_equal_local", same_artifacts(local, fleet_config));
  const NetPass net = analyze_streams(relay.streams());
  const FrameReplay decoded = replay_frames(net.chunks);
  checks.boolean("frame_replay_decodes", decoded.ok && decoded.frames > 0);

  const Tracer& t = traced.tracer;
  const Counts& c = t.counts;
  const auto self_ns = [&t](Layer layer) {
    return static_cast<double>(t.totals(layer).self_ns);
  };
  double layers_ns = 0.0;
  for (std::size_t i = 1; i < static_cast<std::size_t>(Layer::kCount); ++i)
    layers_ns += self_ns(static_cast<Layer>(i));
  const double trial_ns = static_cast<double>(t.totals(Layer::kTrial).total_ns);
  const double coverage = ratio(layers_ns, trial_ns);
  checks.boolean("layer_self_times_cover_trial", coverage > 0.97 && coverage <= 1.0);
  const double trials_n = static_cast<double>(c.trials);
  const double rpcs = static_cast<double>(c.rpcs);
  const double completions = static_cast<double>(c.completions);
  const double traced_tps = ratio(trials_n, traced.phase_s);
  const double rows = static_cast<double>(traced.journal.rows);

  JsonObject m;
  m.num("sim.events_per_trial", ratio(static_cast<double>(c.events), trials_n));
  m.num("sim.events_per_rpc", ratio(static_cast<double>(c.events), rpcs));
  m.num("sim.cancel_frac", ratio(static_cast<double>(c.cancelled),
                                 static_cast<double>(c.scheduled)));
  m.num("sim.pool_reallocations", static_cast<double>(c.pool_reallocations));
  m.num("sim.self_ms_per_trial", ratio(self_ns(Layer::kSimRun) / 1e6, trials_n));
  m.num("tbf.calls_per_rpc",
        ratio(static_cast<double>(c.tbf_enqueue + c.tbf_dequeue + c.tbf_ready +
                                  c.tbf_backlog),
              rpcs));
  m.num("tbf.dequeue_hit_frac", ratio(static_cast<double>(c.tbf_dequeue_hits),
                                      static_cast<double>(c.tbf_dequeue)));
  m.num("tbf.ns_per_rpc", ratio(self_ns(Layer::kTbf), rpcs));
  m.num("client.route_ns_per_rpc", ratio(self_ns(Layer::kClientRoute), completions));
  m.num("client.pattern_ns_per_release",
        ratio(self_ns(Layer::kClientPattern), static_cast<double>(c.releases)));
  m.num("ost.psdisk_ns_per_rpc", ratio(static_cast<double>(fidelity.disk.ns),
                                       static_cast<double>(fidelity.disk.rpcs)));
  m.num("ost.disk_active_mean",
        ratio(fidelity.disk.busy_transfer_ns, fidelity.disk_capacity_ns));
  m.num("adaptbf.windows_per_trial", ratio(static_cast<double>(c.windows),
                                           static_cast<double>(c.adaptive_trials)));
  m.num("adaptbf.jobs_per_window", ratio(static_cast<double>(c.window_jobs),
                                         static_cast<double>(c.windows)));
  const double replay_windows = static_cast<double>(fidelity.allocator.windows);
  m.num("adaptbf.allocate_us_per_window",
        ratio(static_cast<double>(fidelity.allocator.allocate_ns) / 1e3, replay_windows));
  m.num("adaptbf.apply_us_per_window",
        ratio(static_cast<double>(fidelity.allocator.apply_ns) / 1e3, replay_windows));
  m.num("adaptbf.rule_ops_per_window", ratio(static_cast<double>(c.rule_ops),
                                             static_cast<double>(c.windows)));
  m.num("metrics.record_ns_per_rpc", ratio(self_ns(Layer::kMetricsRecord), completions));
  m.num("metrics.latency_samples_per_trial",
        ratio(static_cast<double>(c.latency_samples), trials_n));
  m.num("metrics.summary_ms_per_trial",
        ratio(self_ns(Layer::kMetricsSummary) / 1e6, trials_n));
  m.num("cluster.setup_ms_per_trial", ratio(self_ns(Layer::kClusterSetup) / 1e6, trials_n));
  m.num("cluster.teardown_ms_per_trial",
        ratio(self_ns(Layer::kClusterTeardown) / 1e6, trials_n));
  // The sweep layer of the program's own campaign where it has one: the
  // relayed fleet (D) on fleet workloads, the second untraced run (A) on
  // local ones. Busy time: on the fleet, worker time not spent waiting for
  // a lease; locally, traced trial walls (B). Journal bytes and fsyncs:
  // the campaign journal's own counters (the coordinator's on the fleet),
  // else B's replay. Append and fsync times have no seam inside the
  // runner or the coordinator; they come from B's timed sink, which
  // journals the same rows with the same options.
  const CampaignRun& program = config.campaign.fleet ? fleet : untraced;
  double busy_frac = ratio(trial_ns / 1e9, kThreads * traced.phase_s);
  if (config.campaign.fleet) {
    double waited_ms = 0.0;
    for (const double rtt : net.lease_rtt_ms) waited_ms += rtt;
    busy_frac = 1.0 - ratio(waited_ms / 1e3, kThreads * (fleet.t_durable - fleet.t_first));
  }
  const bool own_journal = !config.campaign.journal.empty();
  const double journal_bytes = static_cast<double>(
      own_journal ? program.journal_bytes : traced.journal.bytes);
  m.num("sweep.worker_busy_frac", busy_frac);
  m.num("sweep.journal_us_per_row",
        ratio(static_cast<double>(traced.journal.append_ns) / 1e3, rows));
  m.num("sweep.journal_bytes_per_row",
        ratio(journal_bytes, static_cast<double>(trials.size())));
  m.num("sweep.fsyncs", static_cast<double>(own_journal ? program.journal_fsyncs
                                                        : traced.journal.fsyncs));
  m.num("sweep.fsync_ms", static_cast<double>(traced.journal.fsync_ns) / 1e6);
  m.num("sweep.export_ms", (program.t_artifacts - program.t_durable) * 1e3);
  m.num("sweep.lease_rtt_ms_p50", median(net.lease_rtt_ms));
  m.num("net.frames_per_trial", ratio(static_cast<double>(net.frames),
                                      static_cast<double>(trials.size())));
  m.num("net.bytes_per_trial", ratio(static_cast<double>(net.bytes),
                                     static_cast<double>(trials.size())));
  m.num("net.decode_ns_per_frame", ratio(static_cast<double>(decoded.ns),
                                         static_cast<double>(decoded.frames)));
  m.num("trace.coverage_frac", coverage);
  m.num("trace.span_cost_ns", Tracer::span_cost_ns());
  m.num("trace.trials_per_s_traced", traced_tps);
  m.num("trace.trials_per_s_untraced", untraced_tps);
  m.num("trace.overhead_frac", untraced_tps > 0.0 ? 1.0 - traced_tps / untraced_tps : 0.0);

  JsonObject info;
  info.num("fidelity_cells", static_cast<double>(fidelity.cells));
  std::string mismatched;
  for (const std::string& cell : fidelity.mismatched) mismatched += cell + ";";
  info.str("fidelity_mismatched_cells", mismatched);
  info.num("psdisk_replay_rpcs", static_cast<double>(fidelity.disk.rpcs));
  info.num("psdisk_replay_mismatches", static_cast<double>(fidelity.disk.mismatches));
  info.num("allocator_replay_windows", replay_windows);
  info.num("allocator_replay_mismatches", static_cast<double>(fidelity.allocator.mismatches));
  info.boolean("journal_replayed", traced.journal.replayed);
  info.num("frames_decoded", static_cast<double>(decoded.frames));
  info.num("lease_round_trips", static_cast<double>(net.lease_rtt_ms.size()));
  info.num("traced_trials", trials_n);

  if (!write_spans(config.spans_path, t.records()) && error.empty())
    error = "could not write " + config.spans_path;

  out.str("error", error);
  out.num("trials", static_cast<double>(trials.size()));
  out.raw("checks", checks.text());
  out.raw("metrics", m.text());
  out.raw("info", info.text());
  return {error, out.text()};
}

}  // namespace perfbench
