// Declarative experiment descriptions.
//
// A ScenarioSpec is everything needed to reproduce one of the paper's
// evaluation runs: the job mix (priorities = allocated compute nodes,
// per-process I/O patterns), the OST configuration, which bandwidth-control
// policy runs, and the observation window Δt. The cluster harness turns a
// spec into a wired simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ost/disk_model.h"
#include "rpc/rpc.h"
#include "sim/time.h"

namespace adaptbf {

/// Bandwidth-control policy under test (§IV-C evaluation baselines, plus
/// the GIFT-style comparator discussed there).
enum class BwControl {
  kNone,      ///< "No BW": FCFS, no TBF rules (Lustre default).
  kStatic,    ///< "Static BW": fixed TBF rules from global priorities.
  kAdaptive,  ///< AdapTBF: full borrowing/lending controller.
  kGift,      ///< GIFT-like centralized throttle-and-reward (see
              ///< adaptbf/gift_controller.h).
};

[[nodiscard]] std::string_view to_string(BwControl policy);

/// Config-file policy token: "none" | "static" | "adaptive" | "gift".
/// Unlike to_string (display names), these round-trip through
/// bw_control_from_name; the scenario/sweep loaders and the campaign
/// journal share them.
[[nodiscard]] std::string_view bw_control_config_name(BwControl policy);
[[nodiscard]] std::optional<BwControl> bw_control_from_name(
    std::string_view name);

/// Shape of one process's I/O within a job.
struct ProcessPattern {
  enum class Kind {
    kContinuous,     ///< Whole file released at start_delay.
    kPeriodicBurst,  ///< `burst` RPCs every `period` from start_delay.
    kPoisson,        ///< Single RPCs at exponential gaps (seeded).
  };
  Kind kind = Kind::kContinuous;
  std::uint64_t total_rpcs = 1024;  ///< 1 GiB file at 1 MiB RPCs.
  std::uint64_t burst_rpcs = 0;     ///< Only for kPeriodicBurst.
  SimDuration period{0};            ///< Only for kPeriodicBurst.
  double poisson_rate = 0.0;        ///< Mean RPCs/s, only for kPoisson.
  std::uint64_t seed = 1;           ///< Only for kPoisson.
  SimDuration start_delay{0};
  Locality locality = Locality::kSequential;
};

struct JobSpec {
  JobId id;
  std::string name;
  std::uint32_t nodes = 1;  ///< Allocated compute nodes: the priority input.
  std::vector<ProcessPattern> processes;
};

struct ScenarioSpec {
  std::string name;
  std::vector<JobSpec> jobs;

  // Server configuration.
  /// Independent OSTs on the OSS; each runs its own scheduler and (for
  /// AdapTBF) its own decentralized controller. Processes are assigned
  /// round-robin across OSTs (Lustre stripe_count=1 semantics: each
  /// file-per-process stream lands on one target).
  std::uint32_t num_osts = 1;
  std::uint32_t num_threads = 16;
  DiskModel::Config disk;

  // Client configuration.
  std::uint32_t rpc_size_bytes = 1024 * 1024;
  std::uint32_t max_inflight_per_process = 8;
  /// One-way network latency on each leg (request and response). Zero by
  /// default: the paper's testbed network (25 GbE) is never the
  /// bottleneck, but the model is available for WAN-ish studies.
  SimDuration network_latency{0};

  // Control configuration.
  BwControl control = BwControl::kAdaptive;
  SimDuration observation_period = SimDuration::millis(100);
  /// Framework processing cost per cycle (§IV-G measures ~25 ms): rules
  /// computed for a window take effect this long after it closes.
  SimDuration controller_apply_latency{0};
  /// Ablation switches forwarded to the allocator
  /// (docs/paper_deviations.md, "Ablation switches").
  bool enable_redistribution = true;
  bool enable_recompensation = true;
  bool enable_remainders = true;
  /// §IV-E extension: smooth the re-compensation demand estimate with an
  /// EWMA instead of the paper's d̄ = d assumption.
  bool use_ewma_estimator = false;
  double ewma_alpha = 0.3;
  /// TBF bucket depth used by AdapTBF/static rules (Lustre default 3).
  double bucket_depth = 3.0;
  /// OST max token rate T_i in tokens/s; <= 0 derives it from the disk
  /// model's sequential RPC capacity.
  double max_token_rate = -1.0;

  // Run configuration.
  SimDuration duration = SimDuration::seconds(120);
  /// Stop early once all processes finished (plus one settle window).
  bool stop_when_idle = true;
  SimDuration timeline_bin = SimDuration::millis(100);
};

/// Most events a trial of `spec` holds pending at once, were it to run
/// `processes` client processes in all: per process, the next pattern
/// release plus one event per in-flight RPC (each holds at most one, its
/// current network or service stage); per OST, a disk completion, one
/// token or queue wakeup per service thread and a few controller and
/// daemon periodics; plus slack for transients. Computed in std::size_t,
/// so no count wraps.
[[nodiscard]] std::size_t estimate_peak_events(const ScenarioSpec& spec,
                                               std::size_t processes);
/// estimate_peak_events over spec's own processes. run_experiment
/// pre-sizes the trial's event arena to it.
[[nodiscard]] std::size_t estimate_peak_events(const ScenarioSpec& spec);

/// The largest estimate_peak_events a scenario file or [grid] cell may
/// have: about 128 MiB of event slots.
inline constexpr std::size_t kMaxPeakEvents = std::size_t{1} << 20;

/// Helper constructors for the two pattern kinds.
[[nodiscard]] ProcessPattern continuous_pattern(std::uint64_t total_rpcs,
                                                SimDuration start_delay = SimDuration(0));
[[nodiscard]] ProcessPattern burst_pattern(std::uint64_t total_rpcs,
                                           std::uint64_t burst_rpcs,
                                           SimDuration period,
                                           SimDuration start_delay = SimDuration(0));
[[nodiscard]] ProcessPattern poisson_pattern(std::uint64_t total_rpcs,
                                             double rate_per_sec,
                                             std::uint64_t seed,
                                             SimDuration start_delay = SimDuration(0));

}  // namespace adaptbf
