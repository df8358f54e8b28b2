// Campaign resume: validate a JSONL journal against an expanded sweep and
// plan which trials still need to run.
//
// One walker, walk_journal, reads every journal file: it sits under both
// the campaign scanner here and the search scanner (search/journal.h).
// It rejects a header that names a different sweep or grid — resuming
// into the wrong grid would silently mix incompatible results — and
// tolerates every crash artifact an append-only journal can exhibit:
//   - a missing or zero-byte file, or an unterminated prefix of a header
//     (killed during the first writeout): start fresh
//   - a partial last line (killed mid-write): discarded; the sink truncates
//     it before appending resumes
//   - a complete last row missing its '\n' (killed between the row bytes
//     and the newline hitting disk): kept; the sink restores the newline
// The scanners differ only in their row policies. The campaign scanner
// ignores corrupt interior lines (torn sectors, hand edits) and re-runs
// their trials, and the first valid row of an index wins over duplicates
// (rows are deterministic, so duplicates are byte-identical anyway). The
// search scanner refuses both.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/shard.h"
#include "sweep/sweep_spec.h"
#include "sweep/trial_sink.h"

namespace adaptbf {

/// Fingerprint of an expanded trial list: grid coordinates, seeds, and the
/// salient materialized-spec fields (duration, jobs, process seeds/delays).
/// Two sweeps resume-compatible iff their hashes match.
[[nodiscard]] std::uint64_t sweep_grid_hash(std::span<const TrialSpec> trials);

/// True when a parsed journal/wire row is the row the expanded grid
/// expects at its index: in-range, same seed, repetition, and grid cell.
/// The per-row belt to the grid hash's suspender — the journal scanner
/// and the dispatch coordinator both refuse rows that fail it.
[[nodiscard]] bool trial_row_matches(const TrialResult& row,
                                     std::span<const TrialSpec> trials);

/// The crash state walk_journal leaves behind; both scanners extend it.
struct JournalTail {
  std::string error;  ///< Non-empty: journal unusable for this sweep.
  bool fresh = false; ///< Nothing to resume — start a new journal.

  /// The journal's parsed first line (valid whenever !fresh && ok()):
  /// gives callers the shard identity for diagnostics.
  CampaignHeader header;

  bool truncated_tail = false;     ///< Partial last line discarded.
  bool missing_final_newline = false;  ///< Last row valid but unterminated.
  /// Watermark for JsonlTrialSink::open: bytes to keep.
  std::uint64_t valid_bytes = 0;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// A scanner's own rules. Each refuses the journal by setting the
/// tail's error, which stops the walk.
struct JournalRules {
  /// Completes "written for a different " when the header's trial count
  /// or grid hash does not match `trials`.
  std::string_view grid_mismatch;
  /// Header checks beyond the sweep name and grid.
  std::function<void(const CampaignHeader& header)> header;
  /// One line after the header: true records it as a row, false marks
  /// it as not a row. `offset` is its first byte, `line_no` 1-based.
  std::function<bool(std::string_view line, std::uint64_t offset,
                     std::uint64_t line_no)>
      row;
  /// A terminated line that is not a row (interior garbage). Returning
  /// without an error keeps its bytes in place.
  std::function<void(std::uint64_t line_no)> garbage;
};

/// Reads `path` line by line into `tail`, applying the shared crash
/// rules (this file's header comment) around `rules`. A header must name
/// `sweep_name` and carry the grid hash and size of `trials`.
void walk_journal(const std::string& path, const std::string& sweep_name,
                  std::span<const TrialSpec> trials, const JournalRules& rules,
                  JournalTail& tail);

/// Result of scanning a journal against an expanded sweep.
struct CampaignScan : JournalTail {
  std::size_t trial_count = 0;  ///< Size of the expanded (full) grid.
  /// Rows this journal is expected to hold when complete: the scanned
  /// shard's subset size (== trial_count for the unsharded {0, 1}).
  std::size_t expected_rows = 0;
  std::size_t rows = 0;         ///< Distinct valid rows found.
  std::vector<bool> have;       ///< Per trial index: valid row present.
  /// Byte offset of each index's first valid row; -1 when missing.
  std::vector<std::int64_t> row_offset;
  /// 1-based journal line of each index's first valid row; 0 when
  /// missing. Line 1 is the header. Error messages cite these so a bad
  /// row in a multi-file merge is findable with sed -n 'Np'.
  std::vector<std::uint64_t> row_line;

  std::size_t corrupt_lines = 0;   ///< Interior lines that failed to parse.
  std::size_t duplicate_rows = 0;  ///< Extra valid rows for a present index.

  [[nodiscard]] bool complete() const {
    return !fresh && rows == expected_rows;
  }
};

/// Scans `path` against the expanded `trials` of the sweep named
/// `sweep_name`. A missing file is not an error: the scan comes back
/// `fresh` with every trial missing. Interior garbage is counted and
/// kept; its trials count as missing.
///
/// `shard` is the identity the caller expects the journal to carry: the
/// default {0, 1} accepts only unsharded journals, a sharded ref only the
/// matching shard's journal (so shard processes can never resume each
/// other's files, and a merged artifact can never be re-merged as a
/// slice). `trials` is always the FULL expanded grid either way — rows
/// are validated against their full-grid index; a valid row owned by a
/// DIFFERENT shard is a hard error (mixed-up journals double-count on
/// merge), not a corrupt line.
[[nodiscard]] CampaignScan scan_campaign_file(
    const std::string& path, const std::string& sweep_name,
    std::span<const TrialSpec> trials, ShardRef shard = {});

/// The trials a resumed run still has to execute, in index order.
/// `trials` may be the full grid or a shard's subset (ShardPlan::trials);
/// rows are looked up by each trial's own full-grid index, so a shard
/// resumes against exactly its slice.
[[nodiscard]] std::vector<TrialSpec> missing_trials(
    const CampaignScan& scan, std::span<const TrialSpec> trials);

}  // namespace adaptbf
