// Rule Management Daemon (§III-D).
//
// Translates a window's token allocations into live NRS-TBF rules:
//   * stops rules whose job was not active this window (its RPCs then flow
//     through the fallback queue, so inactive jobs never starve),
//   * starts one JobID rule per newly active job,
//   * re-rates existing rules to the allocated tokens / Δt,
//   * ranks rules by job priority so the hierarchy prefers high-priority
//     queues (lower rank = classified and tie-broken first).
#pragma once

#include <cstdint>
#include <string>

#include "adaptbf/allocation_types.h"
#include "support/flat_map.h"
#include "tbf/tbf_scheduler.h"

namespace adaptbf {

struct RuleDaemonConfig {
  std::string rule_prefix = "job_";
  /// Lustre TBF refuses zero rates; a job allocated zero tokens is parked
  /// at this floor rather than frozen (its next RPCs keep flowing slowly
  /// and will re-activate it).
  double min_rate = 1.0;
  /// Bucket depth for created rules (Lustre default 3).
  double depth = 3.0;
};

class RuleDaemon {
 public:
  RuleDaemon(TbfScheduler& scheduler, RuleDaemonConfig config);

  /// Reconciles the scheduler's rule set with the window's allocations.
  void apply(const WindowResult& window, SimTime now);

  [[nodiscard]] std::uint64_t rules_started() const { return started_; }
  [[nodiscard]] std::uint64_t rules_changed() const { return changed_; }
  [[nodiscard]] std::uint64_t rules_stopped() const { return stopped_; }

  [[nodiscard]] std::string rule_name(JobId job) const;

 private:
  struct OwnedRule {
    std::string name;
    bool in_window = false;  ///< Scratch for apply(): the job is active.
  };

  TbfScheduler& scheduler_;
  RuleDaemonConfig config_;
  /// Rules this daemon started, by job. Keyed by job to consult the job's
  /// queue backlog before stopping (see apply()).
  FlatMap<JobId, OwnedRule> owned_rules_;
  std::uint64_t started_ = 0;
  std::uint64_t changed_ = 0;
  std::uint64_t stopped_ = 0;
};

}  // namespace adaptbf
