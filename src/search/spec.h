// Declarative search configuration: what to vary, what to promise, how
// to look.
//
// A search is layered ON a sweep file: the [sweep]/[grid] sections give
// the base workload (exactly one scenario, one policy), and the [search]
// section (search/search_io.h) — or CLI flags — pick an input key,
// a candidate ladder, SLO thresholds, and a step controller. The probe
// grid is the key trick: probe_sweep() materializes the ladder into an
// ordinary SweepSpec axis, so every probe the controller can ever
// request is a trial in a pre-expanded grid. Dispatch workers expand
// that same grid from the same file and prove it with the ordinary grid
// hash — the wire protocol, the journal row format, and the worker
// binary are all completely unchanged by search.
//
// search_hash() fingerprints everything that shapes the step SEQUENCE
// (controller, ladder, SLOs, budget, repetitions). A resumed search
// journal must carry the same hash: replaying a bisection under a
// different SLO would silently diverge from the recorded steps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "search/controller.h"
#include "search/score.h"
#include "sweep/sweep_spec.h"

namespace adaptbf {

enum class SearchControllerKind {
  kBisect,   ///< Largest feasible input (monotone feasibility).
  kGolden,   ///< Golden-section objective minimization (unimodal).
  kHalving,  ///< Successive halving over the whole ladder.
};

[[nodiscard]] const char* search_controller_name(SearchControllerKind kind);

struct SearchSpec {
  SearchControllerKind controller = SearchControllerKind::kBisect;
  /// The scenario key the ladder drives: any key a [grid] axis takes
  /// (sweep/sweep_spec.h), `token_rate` included.
  std::string input = "token_rate";

  /// Explicit candidate ladder (ascending after normalization). When
  /// empty, a uniform ladder of `points` values over [lo, hi] is used.
  std::vector<double> ladder;
  double lo = 0.0;
  double hi = 0.0;
  std::uint32_t points = 9;

  std::vector<Threshold> slo;
  MetricSpec objective{SearchMetric::kP99Ms};
  /// Normalized headroom band separating pass from raise (score.h).
  double pass_margin = 0.05;

  /// Max adjusting-stage steps (scored probes).
  std::uint32_t budget = 32;
  /// Repetitions per adjusting-stage probe (halving: round-0 base,
  /// doubled each round).
  std::uint32_t probe_repetitions = 1;
  /// Testing-stage repetitions at the converged input.
  std::uint32_t test_repetitions = 3;

  /// The resolved ascending candidate ladder (explicit or generated).
  [[nodiscard]] std::vector<double> inputs() const;

  /// inputs() as a grid axis on the input key. Rungs are written round-
  /// trip exact, so two distinct rungs never share a cell label.
  [[nodiscard]] SweepAxis ladder_axis() const;

  /// Validates the spec against its base sweep. Returns an error message
  /// ("" = ok): one scenario x one policy, one-value axes none of which
  /// sets the input, rungs the input key accepts, and a non-empty SLO.
  [[nodiscard]] std::string validate(const SweepSpec& base) const;

  /// Repetitions per ladder point the probe grid must hold: enough for
  /// the deepest adjusting round and for the testing stage.
  [[nodiscard]] std::uint32_t grid_repetitions() const;

  /// The probe grid: `base` plus ladder_axis() and repetitions =
  /// grid_repetitions(). Trial index of (ladder point k, repetition j) is
  /// k * grid_repetitions() + j — the driver checks this invariant against
  /// the expanded grid at startup.
  [[nodiscard]] SweepSpec probe_sweep(const SweepSpec& base) const;

  /// Fingerprint of everything that shapes the step sequence.
  [[nodiscard]] std::uint64_t search_hash() const;

  /// The configured step controller over the resolved ladder.
  [[nodiscard]] std::unique_ptr<StepController> make_controller() const;
};

}  // namespace adaptbf
