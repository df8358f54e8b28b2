// Scenario file format: declarative experiment descriptions on disk.
//
// Example (see examples/scenarios/*.ini for complete files):
//
//   [scenario]
//   name = demo
//   control = adaptive          ; none | static | adaptive | gift
//   duration_s = 30
//   observation_ms = 100
//   stop_when_idle = true
//
//   [server]
//   osts = 1
//   threads = 16
//   seq_bandwidth_mibps = 1600
//   rand_bandwidth_mibps = 400
//   overhead_us = 50
//
//   [client]
//   rpc_size_kib = 1024
//   max_inflight = 8
//
//   [job.1]
//   name = small
//   nodes = 1
//   ; process kinds: "continuous", "burst" and "poisson". count=
//   ; replicates the line.
//   process = continuous total=1024 delay_s=0 count=4
//   process = burst total=640 burst=64 period_s=5 delay_s=2 count=2 random=true
//   process = poisson total=512 rate=40 seed=7
//
// docs/formats.md lists every key with its range. Unknown sections and
// keys, repeated keys and bad values are errors that name the key: a typo
// silently ignored is a wrong experiment silently run.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "workload/scenario.h"

namespace adaptbf {

struct ScenarioLoadResult {
  std::optional<ScenarioSpec> spec;
  std::string error;  ///< Empty on success.
  [[nodiscard]] bool ok() const { return spec.has_value(); }
};

/// Parses a scenario file's contents.
[[nodiscard]] ScenarioLoadResult load_scenario(std::string_view text);

/// Applies one [scenario]/[server]/[client] key to `spec`, parsed and
/// range-checked as in a scenario file (and for every sweep grid axis).
/// Returns "", or an error naming the key and leaving `spec` unchanged.
[[nodiscard]] std::string apply_scenario_key(ScenarioSpec& spec,
                                             std::string_view key,
                                             std::string_view value);

/// Reads and parses a scenario file from disk.
[[nodiscard]] ScenarioLoadResult load_scenario_file(const std::string& path);

/// Renders a spec back to the file format (round-trips through
/// load_scenario).
[[nodiscard]] std::string scenario_to_ini(const ScenarioSpec& spec);

}  // namespace adaptbf
