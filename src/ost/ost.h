// Object Storage Target: scheduler + I/O threads + device.
//
// The OST accepts RPCs from clients, classifies/queues them through its
// RequestScheduler (NRS-TBF or FCFS), and services them with a fixed pool
// of I/O threads over a processor-shared device. This mirrors the OSS/OST
// split in Fig. 2: the scheduler is the OSS-layer NRS; the device is the
// target. One Ost instance == one decentralized AdapTBF control domain.
// While work waits on tokens, one wakeup event stays armed at the
// scheduler's next ready time; an earlier ready time moves it in place
// (Simulator::reschedule_at).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ost/disk_model.h"
#include "ost/job_stats.h"
#include "ost/ps_disk.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "tbf/scheduler.h"

namespace adaptbf {

class Ost {
 public:
  struct Config {
    std::uint32_t id = 0;
    /// Lustre OSS I/O service thread count (ost_io threads). Bounds how many
    /// RPCs are in service concurrently.
    std::uint32_t num_threads = 16;
    DiskModel::Config disk;
  };

  using CompletionHook = std::function<void(const RpcCompletion&)>;

  /// The OST owns its scheduler; callers keep a typed pointer if they need
  /// rule management (see TbfScheduler).
  Ost(Simulator& sim, Config config,
      std::unique_ptr<RequestScheduler> scheduler);

  /// Client-facing entry point: hand an RPC to the server at sim.now().
  void submit(const Rpc& rpc);

  /// Registers an observer for RPC completions (metrics, client wakeups).
  /// Hooks run in registration order.
  void add_completion_hook(CompletionHook hook);

  [[nodiscard]] RequestScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] JobStatsTracker& job_stats() { return job_stats_; }
  [[nodiscard]] const DiskModel& disk_model() const { return disk_model_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Device capacity in RPCs/second for the given RPC shape; used to set
  /// the OST's maximum token rate T_i.
  [[nodiscard]] double max_token_rate(std::uint32_t rpc_size_bytes) const;

  [[nodiscard]] std::uint64_t completed_rpcs() const { return completed_; }
  [[nodiscard]] std::uint64_t completed_bytes() const {
    return completed_bytes_;
  }
  [[nodiscard]] std::uint32_t busy_threads() const {
    return config_.num_threads -
           static_cast<std::uint32_t>(free_slots_.size());
  }

 private:
  /// Dispatches eligible RPCs onto free threads; arms a wakeup otherwise.
  void pump();
  void on_disk_done(std::uint64_t slot);

  Simulator& sim_;
  Config config_;
  DiskModel disk_model_;
  std::unique_ptr<RequestScheduler> scheduler_;
  PsDisk disk_;
  JobStatsTracker job_stats_;
  std::vector<CompletionHook> hooks_;

  /// One slot per I/O thread; the slot index is the RPC's PsDisk tag.
  struct InService {
    Rpc rpc;
    SimTime start_service;
    bool busy = false;
  };
  std::vector<InService> slots_;
  /// Indices of idle slots in slots_ (a stack).
  std::vector<std::uint32_t> free_slots_;

  std::uint64_t completed_ = 0;
  std::uint64_t completed_bytes_ = 0;
  /// Pending scheduler wakeup; goes stale automatically once it fires, so
  /// no companion "armed" flag is needed. An earlier wakeup moves it in
  /// place (Simulator::reschedule_at).
  EventHandle wakeup_;
  SimTime wakeup_time_;
};

}  // namespace adaptbf
