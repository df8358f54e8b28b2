// Durable per-trial result streaming for large campaigns.
//
// A TrialSink consumes finished TrialResults one at a time; the runner's
// sink mode appends each trial as it completes and then releases the
// per-trial payloads, so campaign memory no longer scales with the number
// of completed trials. The JSONL implementation is the journal that makes
// campaigns resumable:
//
//   line 1   campaign header: sweep name, expanded-grid hash, trial count
//   line 2+  one self-describing JSON object per completed trial
//
// Rows are appended in completion order (worker-dependent) and carry the
// trial index, so every derived artifact orders rows by index and is
// byte-identical for any thread count, interrupted or not. Doubles are
// written with round-trip precision (support/json.h) — reloading a row
// reconstructs the exact bits the simulator produced. Appends are batched
// and fsync'd, so a crash loses at most the current batch plus (at worst)
// one partial line, which the resume scanner detects and truncates.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "sweep/shard.h"
#include "sweep/sweep_runner.h"

namespace adaptbf {

/// Consumer of completed trials. The runner serializes calls under its
/// progress mutex, so implementations need not be thread-safe. append()
/// and flush() may throw on I/O failure; the runner's exception barrier
/// stops the campaign and rethrows on the caller thread.
class TrialSink {
 public:
  virtual ~TrialSink() = default;
  virtual void append(const TrialResult& result) = 0;
  virtual void flush() = 0;
};

/// Journal wire format generation: the value of the header's
/// "adaptbf_sweep" key. The shard and search stamps are backward-compatible
/// optional extensions, not new generations.
inline constexpr std::uint32_t kJournalFormatVersion = 1;

/// The bytes every journal header starts with: the format key, its
/// generation and the name key. The header writer, its parser and the
/// resume walker's torn-header rule all take the prefix from here.
[[nodiscard]] std::string journal_header_prefix();

/// First line of a campaign journal. The grid hash (resume.h) fingerprints
/// the expanded trial list so a journal is never resumed against a
/// different campaign. `trials` is always the FULL grid size — a shard
/// journal declares the whole campaign it is a slice of, plus its slice.
struct CampaignHeader {
  std::string sweep;
  std::uint64_t grid_hash = 0;
  std::uint64_t trials = 0;
  /// Which slice this journal holds. The unsharded {0, 1} serializes to
  /// the exact PR 2 header bytes, so pre-shard journals parse unchanged
  /// and merged journals are indistinguishable from single-process ones.
  ShardRef shard;
  /// Search-journal stamp (search/journal.h). 0 = a plain campaign
  /// journal, serialized to the exact pre-search header bytes. A search
  /// journal stamps the step-row format generation (currently 1) plus
  /// the SearchSpec fingerprint, and interleaves `search_step` rows with
  /// ordinary trial rows; the plain campaign scanner refuses it by name
  /// (its trial subset is probe-driven, not the full grid).
  std::uint32_t search_step = 0;
  std::uint64_t search_hash = 0;
};

/// Header line serialization (no trailing newline).
[[nodiscard]] std::string campaign_header_line(const CampaignHeader& header);
[[nodiscard]] bool parse_campaign_header(std::string_view line,
                                         CampaignHeader& out);

/// One-trial row serialization (no trailing newline). Round-trip exact:
/// trial_from_jsonl(trial_to_jsonl(t)) reproduces every field bit for bit.
[[nodiscard]] std::string trial_to_jsonl(const TrialResult& trial);

/// Strict full parse (jobs included). Returns false on any malformation —
/// a truncated or hand-edited line never yields a partial result.
[[nodiscard]] bool trial_from_jsonl(std::string_view line, TrialResult& out);

/// Validating scalar parse: same strictness (the whole line, jobs
/// included, must be well-formed) but job entries are discarded as they
/// are read, so aggregation passes never materialize per-job payloads.
[[nodiscard]] bool trial_scalars_from_jsonl(std::string_view line,
                                            TrialResult& out);

class Counter;
class MetricRegistry;

/// Metric names the journal sink registers when JsonlSinkOptions::metrics
/// is set (naming scheme: docs/observability.md).
inline constexpr char kMetricJournalRows[] = "adaptbf_journal_rows_total";
inline constexpr char kMetricJournalBytes[] = "adaptbf_journal_bytes_total";
inline constexpr char kMetricJournalFsyncs[] = "adaptbf_journal_fsyncs_total";

struct JsonlSinkOptions {
  /// Rows per durability batch: fflush + fsync every N appends (and on
  /// flush()/close). 1 = maximally durable, larger = fewer syncs.
  std::size_t flush_every = 32;
  /// Disable fsync (batched fflush only) for tests/throwaway runs.
  bool fsync = true;
  /// Optional telemetry (obs/metrics.h): rows appended, row bytes
  /// written (newlines included), fsync batches issued. Must outlive the
  /// sink.
  MetricRegistry* metrics = nullptr;
};

struct JournalTail;

/// Append-only JSONL journal writer with batched fsync. Campaign rows go
/// through append(); the search driver writes its trial and step rows as
/// exact bytes through append_line(). Either way a row is one line.
class JsonlTrialSink : public TrialSink {
 public:
  using Options = JsonlSinkOptions;
  struct OpenResult {
    std::unique_ptr<JsonlTrialSink> sink;
    std::string error;  ///< Non-empty when sink == nullptr.
    [[nodiscard]] bool ok() const { return sink != nullptr; }
  };

  /// Starts a new journal: truncates/creates `path`, writes the header.
  [[nodiscard]] static OpenResult open_fresh(const std::string& path,
                                             const CampaignHeader& header,
                                             Options options = {});

  /// Reopens an existing journal for appending. `keep_bytes` is the scan's
  /// valid-bytes watermark: the file is truncated there first, discarding
  /// a crash's partial tail line. `add_newline` terminates a final row the
  /// crash left unterminated (data intact, '\n' missing).
  [[nodiscard]] static OpenResult open_append(const std::string& path,
                                              std::uint64_t keep_bytes,
                                              bool add_newline,
                                              Options options = {});

  /// Opens the journal a scan (resume.h) describes: open_fresh with
  /// `header` when the scan came back fresh, otherwise open_append at the
  /// scan's watermark. `tail` must be ok().
  [[nodiscard]] static OpenResult open(const std::string& path,
                                       const JournalTail& tail,
                                       const CampaignHeader& header,
                                       Options options = {});

  ~JsonlTrialSink() override;

  JsonlTrialSink(const JsonlTrialSink&) = delete;
  JsonlTrialSink& operator=(const JsonlTrialSink&) = delete;

  /// append_line(trial_to_jsonl(result)).
  void append(const TrialResult& result) override;
  /// Appends `line` + '\n' (the line must not contain one). Throws on
  /// I/O failure.
  void append_line(std::string_view line);
  void flush() override;

  [[nodiscard]] std::size_t rows_appended() const { return rows_; }

 private:
  JsonlTrialSink(std::FILE* file, Options options);

  std::FILE* file_;
  Options options_;
  std::size_t pending_ = 0;  ///< Appends since the last durability point.
  std::size_t rows_ = 0;
  // Resolved once at construction (see JsonlSinkOptions::metrics).
  Counter* rows_metric_ = nullptr;
  Counter* bytes_metric_ = nullptr;
  Counter* fsyncs_metric_ = nullptr;
};

}  // namespace adaptbf
