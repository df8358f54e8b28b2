#include "client/client_system.h"

#include <utility>

#include "support/check.h"

namespace adaptbf {

ClientSystem::ClientSystem(Simulator& sim, SimDuration response_latency)
    : sim_(sim), response_latency_(response_latency) {
  ADAPTBF_CHECK(response_latency >= SimDuration(0));
}

void ClientSystem::attach_ost(Ost& ost) {
  ost.add_completion_hook(
      [this](const RpcCompletion& completion) { route_completion(completion); });
}

ProcessStream& ClientSystem::add_process(Ost& ost,
                                         ProcessStream::Config config,
                                         std::unique_ptr<IoPattern> pattern) {
  const auto stream = static_cast<std::uint32_t>(processes_.size());
  processes_.push_back(std::make_unique<ProcessStream>(
      sim_, ost, config, std::move(pattern), next_rpc_id_, stream));
  return *processes_.back();
}

void ClientSystem::start_all() {
  for (auto& process : processes_) process->start();
}

bool ClientSystem::all_finished() const {
  for (const auto& process : processes_)
    if (!process->finished()) return false;
  return true;
}

SimTime ClientSystem::job_finish_time(JobId job) const {
  SimTime latest = SimTime::zero();
  for (const auto& process : processes_) {
    if (process->config().job != job || !process->finished()) continue;
    latest = std::max(latest, process->finish_time());
  }
  return latest;
}

void ClientSystem::route_completion(const RpcCompletion& completion) {
  ADAPTBF_CHECK_MSG(completion.rpc.stream < processes_.size(),
                    "completion for unrouted RPC");
  ProcessStream* process = processes_[completion.rpc.stream].get();
  if (response_latency_ > SimDuration(0)) {
    sim_.schedule_after(response_latency_, [process, completion] {
      process->on_completion(completion);
    });
  } else {
    process->on_completion(completion);
  }
}

}  // namespace adaptbf
