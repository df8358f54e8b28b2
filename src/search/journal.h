// Search journals: the resumable record of a closed-loop campaign.
//
// A search journal IS a campaign journal (sweep/trial_sink.h) — same
// header line, same trial-row bytes — plus two extensions:
//
//   1. the header carries a search stamp: `"search_step":1` (step-row
//      format generation) and `"search_hash"` (the SearchSpec
//      fingerprint, search/spec.h). The plain campaign scanner refuses
//      stamped journals by name; this scanner requires the stamp.
//   2. `search_step` rows interleave with trial rows: one per scored
//      controller step, written AFTER the trial rows its score was
//      computed from. Resume replays the step rows through a fresh
//      controller — controller state is never serialized, it is
//      re-derived — and the trial rows seed the driver's result memo so
//      replayed scores are bit-identical to the originals.
//
// The driver writes both row kinds through the campaign sink
// (JsonlTrialSink::append_line), and the scanner reads them through the
// shared journal walker (walk_journal, sweep/resume.h), so the crash
// rules are the campaign journal's: a partial tail line is discarded and
// a final unterminated row kept. Only the row policy is STRICTER:
// interior garbage is a hard error instead of a re-runnable gap — a
// search journal's byte layout is a pure function of the step history,
// so a torn interior line means the history itself is damaged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "search/controller.h"
#include "search/score.h"
#include "sweep/resume.h"
#include "sweep/sweep_spec.h"
#include "sweep/trial_sink.h"

namespace adaptbf {

/// Step-row format generation: the header's "search_step" stamp value.
inline constexpr std::uint32_t kSearchStepVersion = 1;

/// One journaled controller step: the scored probe plus the bracket
/// state after feeding it. `step` is 1-based and dense.
struct SearchStepRow {
  std::uint32_t step = 0;
  bool test_stage = false;  ///< "test" (fixed-budget stage) vs "adjust".
  std::uint32_t input_index = 0;  ///< Ladder index probed.
  double input = 0.0;             ///< Ladder value (round-trip exact).
  std::uint32_t repetitions = 0;  ///< Repetitions averaged into the score.
  ProbeMetrics metrics;           ///< Per-metric means over those reps.
  double objective = 0.0;
  Verdict verdict = Verdict::kLower;
  double bracket = 0.0;  ///< bracket_width() after the feed.
};

/// One-row serialization (no trailing newline); round-trip exact.
[[nodiscard]] std::string search_step_to_jsonl(const SearchStepRow& row);
/// Strict mirror parse; false on any malformation.
[[nodiscard]] bool search_step_from_jsonl(std::string_view line,
                                          SearchStepRow& out);

/// Result of scanning a search journal against its probe grid + spec.
struct SearchScan : JournalTail {
  /// Step rows in journal order (the replay input).
  std::vector<SearchStepRow> steps;
  /// Scalars of every kept trial row (the driver's memo seed).
  std::vector<TrialResult> rows;
  std::vector<bool> have;  ///< Per probe-grid index: row present.

  /// A testing-stage step row was journaled: the search finished.
  [[nodiscard]] bool test_complete() const {
    return !steps.empty() && steps.back().test_stage;
  }
};

/// Scans `path` against the expanded probe grid `trials` of the sweep
/// named `sweep_name`, requiring the search stamp (`search_hash`) to
/// match. A missing file comes back `fresh`.
[[nodiscard]] SearchScan scan_search_file(const std::string& path,
                                          const std::string& sweep_name,
                                          std::span<const TrialSpec> trials,
                                          std::uint64_t search_hash);

}  // namespace adaptbf
