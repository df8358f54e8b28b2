#include "traced_trial.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "adaptbf/controller.h"
#include "adaptbf/gift_controller.h"
#include "adaptbf/static_controller.h"
#include "client/client_system.h"
#include "client/io_pattern.h"
#include "ost/oss.h"
#include "support/check.h"
#include "tbf/fcfs_scheduler.h"
#include "tbf/tbf_scheduler.h"

namespace perfbench {

using namespace adaptbf;

namespace {

/// Times every scheduler call the OST makes; forwards unchanged.
class TracedScheduler final : public RequestScheduler {
 public:
  TracedScheduler(std::unique_ptr<RequestScheduler> inner, Tracer& tracer,
                  TrialCapture* capture, std::uint32_t ost)
      : inner_(std::move(inner)), tracer_(tracer), capture_(capture), ost_(ost) {}

  void enqueue(const Rpc& rpc, SimTime now) override {
    ++tracer_.counts.tbf_enqueue;
    Span span(tracer_, Layer::kTbf);
    inner_->enqueue(rpc, now);
  }

  std::optional<Rpc> dequeue(SimTime now) override {
    ++tracer_.counts.tbf_dequeue;
    std::optional<Rpc> rpc;
    {
      Span span(tracer_, Layer::kTbf);
      rpc = inner_->dequeue(now);
    }
    if (rpc.has_value()) {
      ++tracer_.counts.tbf_dequeue_hits;
      if (capture_ != nullptr)
        capture_->admits.push_back({ost_, now.ns(), *rpc});
    }
    return rpc;
  }

  SimTime next_ready_time(SimTime now) override {
    ++tracer_.counts.tbf_ready;
    Span span(tracer_, Layer::kTbf);
    return inner_->next_ready_time(now);
  }

  // A field read; counted but not timed (a span would cost more than it).
  [[nodiscard]] std::size_t backlog() const override {
    ++tracer_.counts.tbf_backlog;
    return inner_->backlog();
  }

 private:
  std::unique_ptr<RequestScheduler> inner_;
  Tracer& tracer_;
  TrialCapture* capture_;
  std::uint32_t ost_;
};

class TracedPattern final : public IoPattern {
 public:
  TracedPattern(std::unique_ptr<IoPattern> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::optional<Release> next_release() override {
    ++tracer_.counts.releases;
    Span span(tracer_, Layer::kClientPattern);
    return inner_->next_release();
  }
  [[nodiscard]] std::uint64_t total_rpcs() const override {
    return inner_->total_rpcs();
  }

 private:
  std::unique_ptr<IoPattern> inner_;
  Tracer& tracer_;
};

// Same construction as run_experiment's (file-local there).
std::unique_ptr<IoPattern> build_pattern(const ProcessPattern& pattern) {
  switch (pattern.kind) {
    case ProcessPattern::Kind::kContinuous:
      return std::make_unique<ContinuousPattern>(pattern.total_rpcs,
                                                 pattern.start_delay);
    case ProcessPattern::Kind::kPeriodicBurst:
      return std::make_unique<PeriodicBurstPattern>(
          pattern.total_rpcs, pattern.burst_rpcs, pattern.period,
          pattern.start_delay);
    case ProcessPattern::Kind::kPoisson:
      return std::make_unique<PoissonPattern>(pattern.total_rpcs,
                                              pattern.poisson_rate,
                                              pattern.start_delay,
                                              pattern.seed);
  }
  ADAPTBF_CHECK_MSG(false, "unknown pattern kind");
  return nullptr;
}

}  // namespace

AllocatorConfig allocator_config(const ScenarioSpec& spec, double total_rate) {
  AllocatorConfig config;
  config.total_rate = total_rate;
  config.dt = spec.observation_period;
  config.enable_redistribution = spec.enable_redistribution;
  config.enable_recompensation = spec.enable_recompensation;
  config.enable_remainders = spec.enable_remainders;
  config.demand_estimator =
      spec.use_ewma_estimator ? DemandEstimator::kEwma : DemandEstimator::kLastWindow;
  config.ewma_alpha = spec.ewma_alpha;
  return config;
}

ExperimentResult traced_trial(const ScenarioSpec& spec, Simulator& sim,
                              Tracer& tracer, TrialCapture* capture,
                              DispatchHash* hash) {
  ADAPTBF_CHECK_MSG(!spec.jobs.empty(), "scenario needs at least one job");
  ADAPTBF_CHECK(spec.duration > SimDuration(0));
  ADAPTBF_CHECK(spec.num_osts > 0);

  ExperimentResult result;
  tracer.begin(Layer::kClusterSetup);
  // The testbed lives in this scope so its destruction is timed as part of
  // teardown, as it is when run_experiment returns.
  {
    sim.reset();
    sim.reserve_events(estimate_peak_events(spec));
    if (hash != nullptr)
      sim.set_dispatch_hook(
          [hash](SimTime when, std::uint64_t seq) { hash->mix(when, seq); });

    Oss::Config oss_config;
    oss_config.num_osts = spec.num_osts;
    oss_config.ost.num_threads = spec.num_threads;
    oss_config.ost.disk = spec.disk;

    std::vector<TbfScheduler*> tbf_schedulers(spec.num_osts, nullptr);
    Oss oss(sim, oss_config,
            [&](std::uint32_t index) -> std::unique_ptr<RequestScheduler> {
              std::unique_ptr<RequestScheduler> inner;
              if (spec.control == BwControl::kNone) {
                inner = std::make_unique<FcfsScheduler>();
              } else {
                auto owned = std::make_unique<TbfScheduler>();
                tbf_schedulers[index] = owned.get();
                inner = std::move(owned);
              }
              return std::make_unique<TracedScheduler>(std::move(inner),
                                                       tracer, capture, index);
            });

    const double max_token_rate =
        spec.max_token_rate > 0.0
            ? spec.max_token_rate
            : oss.ost(0).max_token_rate(spec.rpc_size_bytes);

    result.scenario_name = spec.name;
    result.control = spec.control;
    result.max_token_rate = max_token_rate;
    result.timeline = ThroughputTimeline(spec.timeline_bin);
    oss.add_completion_hook([&result, &tracer,
                             capture](const RpcCompletion& completion) {
      ++tracer.counts.completions;
      {
        Span span(tracer, Layer::kMetricsRecord);
        result.timeline.record(completion.rpc.job, completion.rpc.size_bytes,
                               completion.end_service);
        result.latency.record(completion);
      }
      if (capture != nullptr)
        capture->completions.emplace_back(completion.rpc.id,
                                          completion.end_service.ns());
    });

    ClientSystem clients(sim, spec.network_latency);
    for (std::size_t i = 0; i < oss.num_osts(); ++i) {
      oss.ost(i).add_completion_hook(
          [&tracer](const RpcCompletion&) { tracer.begin(Layer::kClientRoute); });
      clients.attach_ost(oss.ost(i));
      oss.ost(i).add_completion_hook(
          [&tracer](const RpcCompletion&) { tracer.end(); });
    }
    std::uint32_t global_process = 0;
    for (const auto& job : spec.jobs) {
      std::uint32_t process_index = 0;
      for (const auto& pattern : job.processes) {
        ProcessStream::Config config;
        config.job = job.id;
        config.nid = Nid(global_process % 4);
        config.process_index = process_index++;
        config.rpc_size_bytes = spec.rpc_size_bytes;
        config.locality = pattern.locality;
        config.max_inflight = spec.max_inflight_per_process;
        config.network_latency = spec.network_latency;
        Ost& target = oss.ost(global_process % oss.num_osts());
        clients.add_process(
            target, config,
            std::make_unique<TracedPattern>(build_pattern(pattern), tracer));
        ++global_process;
      }
    }

    std::vector<std::unique_ptr<AdaptbfController>> adaptive;
    std::vector<std::unique_ptr<StaticBwController>> static_controls;
    std::unique_ptr<GiftController> gift;
    if (spec.control == BwControl::kGift) {
      std::vector<std::pair<Ost*, TbfScheduler*>> targets;
      for (std::size_t i = 0; i < oss.num_osts(); ++i) {
        ADAPTBF_CHECK(tbf_schedulers[i] != nullptr);
        targets.emplace_back(&oss.ost(i), tbf_schedulers[i]);
      }
      GiftController::Config config;
      config.total_rate = max_token_rate;
      config.dt = spec.observation_period;
      config.daemon.depth = spec.bucket_depth;
      gift = std::make_unique<GiftController>(sim, std::move(targets), config);
      gift->start();
    } else if (spec.control == BwControl::kAdaptive) {
      if (capture != nullptr) capture->windows.resize(oss.num_osts());
      for (std::size_t i = 0; i < oss.num_osts(); ++i) {
        ADAPTBF_CHECK(tbf_schedulers[i] != nullptr);
        AdaptbfController::Config config;
        config.allocator = allocator_config(spec, max_token_rate);
        config.daemon.depth = spec.bucket_depth;
        config.apply_latency = spec.controller_apply_latency;
        for (const auto& job : spec.jobs) config.job_nodes[job.id] = job.nodes;
        adaptive.push_back(std::make_unique<AdaptbfController>(
            sim, oss.ost(i), *tbf_schedulers[i], config));
        // Observers run after the window is applied and schedule nothing.
        adaptive.back()->add_observer(
            [&tracer, capture, i](const WindowResult& window) {
              tracer.counts.window_jobs += window.jobs.size();
              if (capture != nullptr) capture->windows[i].push_back(window);
            });
        adaptive.back()->start();
      }
    } else if (spec.control == BwControl::kStatic) {
      for (std::size_t i = 0; i < oss.num_osts(); ++i) {
        ADAPTBF_CHECK(tbf_schedulers[i] != nullptr);
        StaticBwController::Config config;
        config.total_rate = max_token_rate;
        config.depth = spec.bucket_depth;
        for (const auto& job : spec.jobs)
          config.jobs.push_back({job.id, job.nodes});
        static_controls.push_back(
            std::make_unique<StaticBwController>(*tbf_schedulers[i], config));
        static_controls.back()->install(sim.now());
      }
    }

    clients.start_all();
    tracer.end();  // cluster.setup

    const SimTime end = SimTime::zero() + spec.duration;
    SimTime cursor = SimTime::zero();
    while (cursor < end) {
      cursor = std::min(end, cursor + spec.timeline_bin);
      {
        Span span(tracer, Layer::kSimRun);
        sim.run_until(cursor);
      }
      if (spec.stop_when_idle && clients.all_finished()) break;
    }

    tracer.begin(Layer::kClusterTeardown);
    result.horizon = sim.now();
    for (auto& controller : adaptive) {
      controller->stop();
      tracer.counts.windows += controller->windows_run();
      tracer.counts.rule_ops += controller->daemon().rules_started() +
                                controller->daemon().rules_changed() +
                                controller->daemon().rules_stopped();
    }
    if (!adaptive.empty()) ++tracer.counts.adaptive_trials;
    if (gift) gift->stop();

    for (const auto& job : spec.jobs) {
      JobSummary summary;
      summary.id = job.id;
      summary.name = job.name;
      summary.nodes = job.nodes;
      for (std::size_t i = 0; i < oss.num_osts(); ++i) {
        const JobCumulativeStats* cumulative =
            oss.ost(i).job_stats().cumulative(job.id);
        if (cumulative == nullptr) continue;
        summary.rpcs_completed += cumulative->rpcs_completed;
        summary.bytes_completed += cumulative->bytes_completed;
      }
      bool all_done = true;
      for (const auto& process : clients.processes()) {
        if (process->config().job != job.id) continue;
        if (!process->finished()) {
          all_done = false;
          break;
        }
      }
      summary.finished = all_done;
      if (all_done) summary.finish_time = clients.job_finish_time(job.id);
      const SimTime span = all_done && summary.finish_time > SimTime::zero()
                               ? summary.finish_time
                               : result.horizon;
      summary.mean_mibps = result.timeline.mean_mibps(job.id, span);
      tracer.counts.rpcs += summary.rpcs_completed;
      result.jobs.push_back(std::move(summary));
    }
    result.aggregate_mibps =
        result.timeline.aggregate_mean_mibps(result.horizon);
    result.total_bytes = result.timeline.total_bytes();
    result.events_dispatched = sim.events_dispatched();
    result.queue_stats = sim.queue_stats();
    result.event_pool_slots = sim.event_pool_slots();
  }
  tracer.end();  // cluster.teardown

  ++tracer.counts.trials;
  tracer.counts.events += result.events_dispatched;
  tracer.counts.scheduled += result.queue_stats.scheduled;
  tracer.counts.cancelled += result.queue_stats.cancelled;
  tracer.counts.pool_reallocations += result.queue_stats.pool_reallocations;
  for (const JobId job : result.latency.jobs())
    tracer.counts.latency_samples += result.latency.samples(job);
  return result;
}

}  // namespace perfbench
