// Declarative multi-trial experiment campaigns.
//
// A SweepSpec is a parameter grid over ScenarioSpec fields: the cross
// product of base scenarios x control policies x scenario-key axes,
// repeated over seeded repetitions. expand() materializes the grid into a
// flat trial list with dense indices; the runner executes trials in any
// order and the aggregator groups them back into grid cells. Everything
// downstream keys off TrialSpec::index, so results are independent of
// execution order (and hence of worker-thread count).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/scenario.h"

namespace adaptbf {

/// One base scenario entered into the grid. `label` names the grid axis
/// value (CSV/JSON cell key); the spec's own name is replaced by it.
struct SweepScenario {
  std::string label;
  ScenarioSpec spec;
};

/// One fully materialized run: grid coordinates plus the concrete spec.
struct TrialSpec {
  std::size_t index = 0;        ///< Dense [0, trial_count), row-major.
  std::string scenario;         ///< Label; docs/sweep_cli.md#grid-axes.
  BwControl policy = BwControl::kNone;
  std::uint32_t num_osts = 1;
  double max_token_rate = -1.0;  ///< <= 0: derived from the disk model.
  std::uint32_t repetition = 0;  ///< 0-based seed repetition.
  std::uint64_t seed = 0;        ///< Per-trial RNG stream seed.
  ScenarioSpec spec;

  /// Grid-cell identity: every coordinate except the repetition. Trials
  /// sharing a cell id are aggregated as seeded repetitions of one cell.
  [[nodiscard]] std::string cell_id() const;
};

/// One grid axis: a workload/scenario_io.h key other than name and
/// control, with `token_rate` as the one spelling of max_token_rate, and
/// its values in file order, applied through apply_scenario_key as a
/// scenario file's are.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// "" when `axis` has a grid key and values that all parse and are in
/// range; else an error naming the key.
[[nodiscard]] std::string validate_axis(const SweepAxis& axis);

struct SweepSpec {
  std::string name = "sweep";
  std::vector<SweepScenario> scenarios;
  /// Policies to run each scenario under. Must be non-empty to expand.
  std::vector<BwControl> policies;
  /// Scenario-key axes, outermost first, all inside the policy axis.
  /// `osts` and `token_rate` fill the trial's own fields and the grid
  /// hash covers the duration; every other axis, and a duration_s axis
  /// with two or more values, labels its cells `<scenario>@<key>=<value>`.
  std::vector<SweepAxis> axes;
  /// Seeded repetitions per grid cell.
  std::uint32_t repetitions = 1;
  /// Base seed; repetition r uses derive_stream_seed(base_seed, r), so the
  /// same workload randomness is paired across policies (paired-sample
  /// comparisons have lower variance than independent draws).
  std::uint64_t base_seed = 1;
  /// When > 0, each process's start_delay is jittered by a uniform draw in
  /// [0, jitter) from the trial's private RNG stream. Gives deterministic
  /// per-seed variability even for scenarios with no Poisson processes
  /// (real jobs never start in lockstep).
  SimDuration start_jitter{0};

  [[nodiscard]] std::size_t trial_count() const;

  /// Materializes the full grid, row-major over
  /// scenario x policy x axes... x repetition.
  [[nodiscard]] std::vector<TrialSpec> expand() const;
};

/// "" when every grid cell (each scenario under each combination of axis
/// values) fits the event budget of workload/scenario_io.h's
/// peak_events_error; else an error naming the cell's axis values.
[[nodiscard]] std::string validate_cells(const SweepSpec& spec);

}  // namespace adaptbf
