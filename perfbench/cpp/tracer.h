// Span tracer for the benchmark's traced runs.
//
// Spans are opened and closed from the benchmark's own code, around its
// calls into the simulator's layers (see traced_trial.h for the seams).
// Each worker thread owns one Tracer; nothing here is thread-safe. A span
// knows its layer, start, end, parent and the trial it belongs to; the
// tracer keeps per-layer totals for every span, a record of every trial's
// root span, and records of every span of the trials marked detailed (up
// to kDetailedRecords per tracer: one paper trial has ~10^6 spans). Records
// stay in memory until the run writes them out at the end.
//
// Self time of a span = its duration minus the time its child spans
// cover. Summed over all layers, self times reproduce the root span's
// duration exactly, less the gaps no span covers; traced_campaign.cpp
// reports that ratio as trace.coverage_frac.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds on the same clock as now_ns(). On Linux this is
/// CLOCK_MONOTONIC, which Python's time.monotonic() also reads, so run.py
/// can compare its spawn time with the child's milestones.
[[nodiscard]] inline double now_s() { return static_cast<double>(now_ns()) / 1e9; }

enum class Layer : std::uint8_t {
  kTrial,            ///< Root: one trial as the runner sees it.
  kClusterSetup,     ///< Simulator reset + OSS/clients/controllers wiring.
  kSimRun,           ///< Simulator::run_until for one timeline bin.
  kTbf,              ///< RequestScheduler calls (TBF classify/queue/heap).
  kClientRoute,      ///< Completion routing back to the issuing process.
  kClientPattern,    ///< IoPattern::next_release.
  kMetricsRecord,    ///< Timeline + latency recording per completion.
  kClusterTeardown,  ///< Job summaries + destruction of the testbed.
  kMetricsSummary,   ///< summarize_trial (latency percentiles, fairness).
  kSweepAppend,      ///< TrialSink::append (row JSON, write, fsync).
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

/// Event counts gathered at the same seams as the spans.
struct Counts {
  std::uint64_t trials = 0;
  std::uint64_t rpcs = 0;         ///< Σ job rpcs_completed.
  std::uint64_t completions = 0;  ///< Completion-hook calls.
  std::uint64_t releases = 0;     ///< IoPattern::next_release calls.
  std::uint64_t tbf_enqueue = 0;
  std::uint64_t tbf_dequeue = 0;
  std::uint64_t tbf_dequeue_hits = 0;
  std::uint64_t tbf_ready = 0;
  std::uint64_t tbf_backlog = 0;
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t pool_reallocations = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t adaptive_trials = 0;  ///< Trials with AdapTBF controllers.
  std::uint64_t windows = 0;          ///< AdapTBF windows, all OSTs.
  std::uint64_t window_jobs = 0;      ///< Σ active jobs over those windows.
  std::uint64_t rule_ops = 0;         ///< Rules started + changed + stopped.

  void add(const Counts& other);
};

struct SpanRecord {
  Layer layer = Layer::kTrial;
  std::uint64_t trial = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index into the same records vector.
};

class Tracer {
 public:
  static constexpr std::size_t kDetailedRecords = 50'000;

  struct Totals {
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
  };

  /// Starts a trial's root span. `detailed` keeps a record of every span
  /// of the trial, not only the coarse ones.
  void begin_trial(std::uint64_t trial, bool detailed);
  /// Ends the root span and returns its duration.
  std::int64_t end_trial();

  void begin(Layer layer);
  /// Closes the innermost span and returns its duration.
  std::int64_t end();

  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  Counts counts;

  /// Folds another thread's totals, counts and records into this one.
  void merge(const Tracer& other);

  /// Measured cost of one empty span (begin + end), in ns.
  [[nodiscard]] static double span_cost_ns();

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t record;
  };

  std::vector<Frame> stack_;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<SpanRecord> records_;
  std::uint64_t trial_ = 0;
  bool detailed_ = false;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.begin(layer); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Writes records as JSON lines: {"name","trial","start_ns","end_ns",
/// "parent"}; start/end are relative to the earliest record.
bool write_spans(const std::string& path, const std::vector<SpanRecord>& records);

}  // namespace perfbench
