// [search] section grammar: declarative search configuration in a sweep
// file (sweep/sweep_io.h forwards the raw entries here untouched).
//
//   [search]
//   controller = bisect             ; bisect | golden | halving
//   input = token_rate              ; any [grid] key (docs/search.md)
//   ladder = 800, 1200, 1600, 2400  ; explicit candidate values, OR:
//   lo = 800                        ; uniform ladder over [lo, hi]
//   hi = 2400
//   points = 9                      ;   (default 9)
//   slo = p99_ms<=250, jain>=0.9    ; score.h grammar (CLI --slo overrides)
//   objective = p99_ms              ; metric the controller optimizes
//   pass_margin = 0.05              ; normalized pass band around the SLO
//   budget = 32                     ; max adjusting-stage steps
//   probe_repetitions = 1
//   test_repetitions = 3
//
// Unknown or duplicate keys are errors, same stance as every other
// config surface. `ladder` and `lo`/`hi`/`points` are mutually
// exclusive; everything except `slo` has a default.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "search/spec.h"

namespace adaptbf {

struct SearchLoadResult {
  std::optional<SearchSpec> spec;
  std::string error;  ///< Empty on success.
  [[nodiscard]] bool ok() const { return spec.has_value(); }
};

/// Parses raw `[search]` entries (key/value, file order) into a
/// SearchSpec whose ladder_axis() is a valid grid axis. Validation against
/// the base sweep (single scenario, free axis, ...) is
/// SearchSpec::validate's job. `require_slo` = false when the caller
/// supplies the SLO another way (sweep_cli search --slo overrides the
/// file's).
[[nodiscard]] SearchLoadResult load_search(
    const std::vector<std::pair<std::string, std::string>>& entries,
    bool require_slo = true);

}  // namespace adaptbf
