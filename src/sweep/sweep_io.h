// Sweep file format: declarative campaign descriptions on disk.
//
// Example (see examples/sweeps/*.ini for complete files):
//
//   [sweep]
//   name = paper_campaign
//   policies = static, adaptive     ; comma list: none|static|adaptive|gift
//   scenario = token_allocation     ; builtin paper scenario, or a path to
//   scenario = custom/noisy.ini     ; a scenario_io.h file (repeatable)
//   repetitions = 4                 ; seeded repetitions per grid cell
//   base_seed = 42
//   start_jitter_ms = 200           ; optional per-process start jitter
//   duration_s = 20                 ; optional: a one-value duration_s axis
//
//   [grid]                          ; optional axes, outermost first
//   osts = 1, 2                     ; any [scenario]/[server]/[client] key
//   observation_ms = 50, 100        ; of scenario_io.h but name and control
//   token_rate = 1200, 1600         ; (token_rate sets max_token_rate)
//
//   [output]                        ; optional default export paths
//   csv = campaign.csv
//   json = campaign.json
//   jsonl = campaign.jsonl          ; durable trial journal (resumable)
//
// Builtin scenario names: token_allocation, redistribution,
// recompensation (the paper's §IV-D/E/F workloads). Any other value is
// treated as a scenario file path, resolved relative to the sweep file.
// docs/sweep_cli.md gives the [grid] grammar and its cell labels.
// Unknown sections/keys are errors, same stance as scenario_io.h.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sweep/sweep_spec.h"

namespace adaptbf {

struct SweepLoadResult {
  std::optional<SweepSpec> spec;
  std::string error;      ///< Empty on success.
  std::string csv_path;   ///< From [output] csv; empty if absent.
  std::string json_path;  ///< From [output] json; empty if absent.
  /// From [output] jsonl; empty if absent. Names the campaign journal
  /// (sweep/trial_sink.h): trials stream to it as they complete and an
  /// interrupted campaign resumes from it (sweep_cli --resume).
  std::string jsonl_path;
  /// Raw `[search]` entries in file order, untouched — the search layer
  /// (search/search_io.h) owns their grammar and validation, so the
  /// sweep loader stays ignorant of search keys. Empty = no [search]
  /// section; non-empty means the file describes a closed-loop search
  /// (`sweep_cli search`), not a plain campaign.
  std::vector<std::pair<std::string, std::string>> search_entries;
  /// True when the file has a [search] section, even an empty one (an
  /// empty section is a search-layer validation error, not a plain
  /// campaign).
  bool search_section = false;
  [[nodiscard]] bool has_search() const { return search_section; }
  [[nodiscard]] bool ok() const { return spec.has_value(); }
};

/// Parses a sweep file's contents. `base_dir` prefixes relative scenario
/// file paths (pass the sweep file's directory; empty = cwd).
[[nodiscard]] SweepLoadResult load_sweep(std::string_view text,
                                         const std::string& base_dir = "");

/// Reads and parses a sweep file from disk. Scenario paths resolve
/// relative to the sweep file's directory.
[[nodiscard]] SweepLoadResult load_sweep_file(const std::string& path);

}  // namespace adaptbf
