// One campaign through the program's own path, as sweep_cli runs it.
//
// Local mode mirrors `sweep_cli --threads N [--output JOURNAL]`: expand the
// grid, open the journal (if any), run every trial with SweepRunner, then
// export CSV/JSON — from the journal when there is one, else from memory.
// Fleet mode mirrors `sweep_cli serve` with kThreads `sweep_cli work`
// processes, in one process: a DispatchCoordinator on an ephemeral
// loopback port and kThreads run_dispatch_worker threads with one runner
// thread each.
//
// Timing is taken from outside the library: milestones are stamped
// around its public calls, trial walls from on_trial_done callbacks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sweep/sweep_spec.h"
#include "sweep/trial_sink.h"

namespace perfbench {

class RecordingRelay;

/// Local: SweepRunner threads. Fleet: worker threads (one runner each).
/// Two runner threads leave the third core of a 4-core box to the fleet's
/// coordinator (or the benchmark's parent process) and the fourth idle.
inline constexpr std::uint32_t kThreads = 2;
/// Fleet lease size: a lease round trip on every fourth trial makes the
/// lease layer a visible share of a ~1 ms trial.
inline constexpr std::uint32_t kLease = 4;

struct CampaignConfig {
  bool fleet = false;
  std::string journal;  ///< Empty: in-memory mode (local only).
  std::string csv;
  std::string json;
};

struct CampaignRun {
  std::string error;  ///< Empty on success.
  std::size_t trials = 0;
  std::size_t done = 0;  ///< Trials whose completion the runner reported.
  double t_first = 0.0;      ///< First trial start (fleet: first lease).
  double t_durable = 0.0;    ///< Last row durable (runner/serve returned).
  double t_artifacts = 0.0;  ///< CSV/JSON written.
  std::uint64_t rpcs = 0;    ///< Σ job rpcs_completed over all trials.
  /// The campaign journal's own counters (local: its sink's registry;
  /// fleet: the coordinator's). Zero without a journal.
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_fsyncs = 0;
  /// Per trial: time since the same runner thread's previous completion
  /// (its first: since the runner started). Covers run_experiment,
  /// summarize_trial and the sink append; in the fleet, the first trial of
  /// each lease also carries that lease's round trip.
  std::vector<double> trial_ms;
};

/// Runs `trials` (the expansion of `sweep`) to artifacts. With `relay`,
/// fleet workers connect through it instead of directly.
[[nodiscard]] CampaignRun run_campaign(const CampaignConfig& config,
                                       const adaptbf::SweepSpec& sweep,
                                       const std::vector<adaptbf::TrialSpec>& trials,
                                       RecordingRelay* relay = nullptr);

/// Creates a fresh campaign journal for `trials`, as `sweep_cli --output`
/// does: refuses an existing journal, writes the header. Returns an error
/// message or "" with `sink` set.
[[nodiscard]] std::string open_journal(const std::string& path,
                                       const std::string& sweep_name,
                                       const std::vector<adaptbf::TrialSpec>& trials,
                                       const adaptbf::JsonlSinkOptions& options,
                                       std::unique_ptr<adaptbf::JsonlTrialSink>& sink);

/// Writes the CSV/JSON artifacts from a complete journal, as sweep_cli's
/// journaled and serve paths do. Returns an error message or "".
[[nodiscard]] std::string export_journal(const CampaignConfig& config,
                                         const adaptbf::SweepSpec& sweep,
                                         const std::vector<adaptbf::TrialSpec>& trials);

/// Writes a whole file; false on any I/O error.
bool write_file(const std::string& path, const std::string& contents);

}  // namespace perfbench
