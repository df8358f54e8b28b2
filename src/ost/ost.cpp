#include "ost/ost.h"

#include <utility>

#include "support/check.h"

namespace adaptbf {

Ost::Ost(Simulator& sim, Config config,
         std::unique_ptr<RequestScheduler> scheduler)
    : sim_(sim),
      config_(config),
      disk_model_(config.disk),
      scheduler_(std::move(scheduler)),
      disk_(sim, config.disk.seq_bandwidth),
      slots_(config.num_threads) {
  ADAPTBF_CHECK_MSG(config_.num_threads > 0, "OST needs at least one thread");
  ADAPTBF_CHECK_MSG(scheduler_ != nullptr, "OST needs a scheduler");
  // Stacked high to low, so slot 0 serves first.
  free_slots_.reserve(config_.num_threads);
  for (std::uint32_t slot = config_.num_threads; slot-- > 0;)
    free_slots_.push_back(slot);
}

void Ost::submit(const Rpc& rpc) {
  job_stats_.record_arrival(rpc);
  scheduler_->enqueue(rpc, sim_.now());
  pump();
}

void Ost::add_completion_hook(CompletionHook hook) {
  ADAPTBF_CHECK(hook != nullptr);
  hooks_.push_back(std::move(hook));
}

double Ost::max_token_rate(std::uint32_t rpc_size_bytes) const {
  return disk_model_.rpcs_per_second(rpc_size_bytes, Locality::kSequential);
}

void Ost::pump() {
  const SimTime now = sim_.now();
  while (!free_slots_.empty()) {
    auto rpc = scheduler_->dequeue(now);
    if (!rpc.has_value()) break;
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = InService{*rpc, now, true};
    disk_.admit(slot, disk_model_.work_bytes(*rpc),
                [this](std::uint64_t finished) { on_disk_done(finished); });
  }
  // If work remains queued but nothing was eligible (tokens pending) or all
  // threads are busy, arm a wakeup for the earliest time the scheduler could
  // release an RPC. Completions also call pump(), so thread-availability
  // wakeups are implicit.
  if (scheduler_->backlog() > 0 && !free_slots_.empty()) {
    const SimTime ready = scheduler_->next_ready_time(now);
    if (ready < SimTime::max()) {
      if (sim_.pending(wakeup_) && wakeup_time_ <= ready) return;  // armed
      sim_.cancel(wakeup_);  // stale handles are ignored in O(1)
      wakeup_time_ = std::max(ready, now);
      wakeup_ = sim_.schedule_at(wakeup_time_, [this] { pump(); });
    }
  }
}

void Ost::on_disk_done(std::uint64_t slot) {
  ADAPTBF_CHECK_MSG(slot < slots_.size() && slots_[slot].busy,
                    "completion for unknown RPC");
  InService& service = slots_[slot];
  service.busy = false;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  const RpcCompletion completion{service.rpc, service.start_service,
                                 sim_.now()};
  ++completed_;
  completed_bytes_ += completion.rpc.size_bytes;
  job_stats_.record_completion(completion.rpc);
  for (const auto& hook : hooks_) hook(completion);
  pump();
}

}  // namespace adaptbf
