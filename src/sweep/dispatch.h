// Network-distributed campaign dispatch: one coordinator, N workers,
// TCP message passing instead of a shared filesystem.
//
// The shard backend (shard.h) fans a campaign out across processes that
// share a disk; this layer removes that requirement. The coordinator
// expands the grid once, opens ONE unsharded journal (trial_sink.h), and
// leases work units — small batches of trial indices — to workers that
// connect over TCP. Workers run their leases with the ordinary
// SweepRunner and stream each finished trial row back; the coordinator
// validates every row against the expanded grid (resume.h) and appends it
// to the journal. Because rows are deterministic and the journal is
// append-order-independent, the coordinator's journal is a first-class
// campaign journal: its derived CSV/JSON are byte-identical to a
// single-process run, no matter how trials were distributed, how many
// workers died, or how many duplicate rows arrived.
//
// Fault model:
//   - worker silent past the lease timeout, or its connection drops: the
//     lease's undelivered trials are re-queued and handed to another
//     worker (delivered rows are already journaled and never re-run)
//   - duplicate delivery (a re-leased trial finishing twice, a retried
//     frame): rows are deterministic, so the first valid row wins and
//     later copies are counted and discarded — the exact stance the
//     resume scanner takes on duplicate journal lines
//   - coordinator killed: the journal is an ordinary resumable journal;
//     restart `serve` with resume=true and only missing trials are
//     re-leased
//   - malformed frame, wrong protocol version, wrong sweep/grid: the
//     offending connection is rejected with a named error and dropped;
//     the campaign is never poisoned
//
// Workers need the same sweep file (they expand the grid themselves and
// prove it with the grid hash in their hello) but no shared storage.
// Wire format: net/frame.h frames carrying the JSON messages below;
// docs/formats.md documents every frame field-by-field.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/sweep_spec.h"
#include "sweep/trial_sink.h"

namespace adaptbf {

/// Dispatch protocol generation: the value of every message's
/// "adaptbf_dispatch" key. A coordinator rejects hellos from any other
/// generation by name, so mixed-version fleets fail loudly at connect.
inline constexpr std::uint32_t kDispatchProtocolVersion = 1;

/// Stats frame generation: the value of the stats/stats_reply messages'
/// "stats_version" key. Versioned separately from the dispatch protocol
/// so the telemetry schema can evolve without invalidating running
/// worker fleets; a coordinator rejects unknown stats generations by
/// name (tests/sweep/dispatch_test.cpp pins this).
inline constexpr std::uint32_t kStatsVersion = 1;

/// Metric names the coordinator registers (docs/observability.md).
/// Fleet row totals come ONLY from coordinator-side journaling — worker
/// heartbeat counters feed per-worker gauges, never fleet sums, so a
/// reclaimed-then-completed lease can never double-count.
inline constexpr char kMetricDispatchRowsJournaled[] =
    "adaptbf_dispatch_rows_journaled_total";
inline constexpr char kMetricDispatchRowsDuplicate[] =
    "adaptbf_dispatch_rows_duplicate_total";
inline constexpr char kMetricDispatchRowsDone[] = "adaptbf_dispatch_rows_done";
inline constexpr char kMetricDispatchTrialsTotal[] =
    "adaptbf_dispatch_trials_total";
inline constexpr char kMetricDispatchLeasesGranted[] =
    "adaptbf_dispatch_leases_granted_total";
inline constexpr char kMetricDispatchLeasesReclaimed[] =
    "adaptbf_dispatch_leases_reclaimed_total";
inline constexpr char kMetricDispatchLeasesOutstanding[] =
    "adaptbf_dispatch_leases_outstanding";
inline constexpr char kMetricDispatchWorkersConnected[] =
    "adaptbf_dispatch_workers_connected";
inline constexpr char kMetricDispatchWorkersSeen[] =
    "adaptbf_dispatch_workers_seen_total";
inline constexpr char kMetricDispatchFramesReceived[] =
    "adaptbf_dispatch_frames_received_total";
inline constexpr char kMetricDispatchRxBytes[] =
    "adaptbf_dispatch_rx_bytes_total";
inline constexpr char kMetricDispatchUptime[] =
    "adaptbf_dispatch_uptime_seconds";
inline constexpr char kMetricDispatchRowsPerSec[] =
    "adaptbf_dispatch_rows_per_second";
/// Per-worker series, labeled worker="<session id>".
inline constexpr char kMetricWorkerRows[] =
    "adaptbf_dispatch_worker_rows_journaled_total";
inline constexpr char kMetricWorkerDuplicates[] =
    "adaptbf_dispatch_worker_rows_duplicate_total";
inline constexpr char kMetricWorkerTrialsDone[] =
    "adaptbf_dispatch_worker_trials_done";
inline constexpr char kMetricWorkerRuntimeEwma[] =
    "adaptbf_dispatch_worker_runtime_ewma_ms";

// ------------------------------------------------------------ wire format
//
// One JSON object per frame, machine-written in a fixed dialect (exact
// key order, no whitespace) and read back with the strict support/json.h
// scanner. Builders and parser are public so tests — and future tooling —
// can speak the protocol without a live runner.

namespace dispatch_wire {

/// Worker -> coordinator, first frame: prove protocol + campaign identity.
[[nodiscard]] std::string hello(const std::string& sweep,
                                std::uint64_t grid_hash,
                                std::uint64_t trials);
/// Coordinator -> worker: hello accepted; `worker` is the session id.
[[nodiscard]] std::string welcome(std::uint32_t worker);
/// Coordinator -> worker: hello (or a later frame) rejected; the
/// connection closes after this frame.
[[nodiscard]] std::string error_msg(const std::string& message);
/// Worker -> coordinator: ready for a lease.
[[nodiscard]] std::string request();
/// Coordinator -> worker: run these trial indices under lease `lease`.
[[nodiscard]] std::string lease(std::uint64_t lease,
                                std::span<const std::uint64_t> trials);
/// Coordinator -> worker: nothing to lease right now; keep the connection
/// open — a lease (re-leased from a dead worker) or `done` will follow.
[[nodiscard]] std::string wait();
/// Worker -> coordinator: one finished trial. `row` is the EXACT
/// trial_to_jsonl line (no newline); embedding the bytes verbatim is what
/// keeps the coordinator's journal byte-identical to a local run's.
[[nodiscard]] std::string result(std::uint64_t lease, std::string_view row);
/// Worker -> coordinator: liveness while a long trial runs.
[[nodiscard]] std::string heartbeat();
/// Heartbeat with an attached counters payload: lifetime trials run by
/// this worker plus its per-trial runtime EWMA. The coordinator folds
/// these into per-worker gauges; the bare form stays valid (a frame from
/// before the worker's first counter flush parses identically).
[[nodiscard]] std::string heartbeat_counters(std::uint64_t trials_done,
                                             double runtime_ewma_ms);
/// Coordinator -> worker: campaign complete; exit cleanly.
[[nodiscard]] std::string done();
/// Anyone -> coordinator: one stats poll. Valid WITHOUT a hello — a
/// monitoring client never joins the campaign — and repeatable on one
/// connection (`--watch`). `format` is "json" or "prom".
[[nodiscard]] std::string stats_request(const std::string& format);
/// Coordinator -> poller: the rendered stats document (docs/formats.md).
[[nodiscard]] std::string stats_reply(std::string_view body);

struct Message {
  enum class Type {
    kHello,
    kWelcome,
    kError,
    kRequest,
    kLease,
    kWait,
    kResult,
    kHeartbeat,
    kDone,
    kStats,
    kStatsReply,
    /// Well-formed envelope, foreign "adaptbf_dispatch" generation.
    /// `version` holds the peer's; nothing else is parsed.
    kForeignVersion,
  };
  Type type = Type::kHeartbeat;
  std::uint32_t version = 0;

  std::string sweep;            ///< hello
  std::uint64_t grid_hash = 0;  ///< hello
  std::uint64_t trials = 0;     ///< hello: full expanded-grid size
  std::uint32_t worker = 0;     ///< welcome
  std::string message;          ///< error
  std::uint64_t lease = 0;      ///< lease, result
  std::vector<std::uint64_t> indices;  ///< lease
  std::string row;              ///< result: exact journal-row bytes

  bool has_counters = false;        ///< heartbeat: counters attached
  std::uint64_t trials_done = 0;    ///< heartbeat counters
  double runtime_ewma_ms = 0.0;     ///< heartbeat counters
  /// stats, stats_reply. A foreign stats generation parses with
  /// stats_version set and nothing else, mirroring kForeignVersion: the
  /// receiver rejects the STATS version by name.
  std::uint32_t stats_version = 0;
  std::string format;  ///< stats: "json" | "prom"
  std::string body;    ///< stats_reply: rendered document
};

/// Strict parse of one frame payload. False on any malformation — except
/// a well-formed envelope with a foreign protocol version, which parses
/// to kForeignVersion so the receiver can reject it BY NAME instead of
/// as garbage.
[[nodiscard]] bool parse(std::string_view payload, Message& out);

}  // namespace dispatch_wire

// ------------------------------------------------------------ coordinator

struct DispatchCoordinatorOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (tests read
  /// DispatchCoordinator::port() back).
  std::uint16_t port = 0;
  /// Trials per lease. Small leases spread load and shrink the re-run
  /// cost of a dead worker; large leases amortize round trips.
  std::uint32_t lease_size = 16;
  /// A lease whose worker sends nothing (rows, heartbeats, anything) for
  /// this long is reclaimed and its undelivered trials re-leased; the
  /// silent connection is dropped. Must exceed the workers' heartbeat
  /// interval with margin.
  double lease_timeout_s = 30.0;
  /// Journal durability knobs (tests disable fsync). The coordinator
  /// overrides sink.metrics with its own registry so journal counters
  /// show up in the stats endpoint.
  JsonlSinkOptions sink{};
  /// Keep serving `stats` polls for this long after the campaign
  /// completes (workers are released immediately). A scraper or the CI
  /// smoke can read the FINAL totals — without a linger the listener
  /// vanishes the instant the last row lands.
  double linger_s = 0.0;
  /// Called after each newly journaled trial, from the serve() thread.
  std::function<void(std::size_t rows_done, std::size_t total)> on_progress;
};

/// Outcome of one serve() call. rows/duplicates/leases count THIS call's
/// traffic (a resumed serve starts from the journal's existing rows).
struct DispatchServeResult {
  std::string error;  ///< Empty unless serving itself failed (I/O, bind).
  bool complete = false;          ///< Every trial journaled.
  std::size_t rows_received = 0;  ///< Newly journaled rows.
  std::size_t duplicate_rows = 0; ///< Valid re-deliveries, discarded.
  std::uint32_t workers_seen = 0;
  std::uint32_t leases_granted = 0;
  /// Leases reclaimed from silent/dead workers and re-queued.
  std::uint32_t leases_reclaimed = 0;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// The campaign coordinator: owns the listener and the single unsharded
/// journal. Construction (open) validates/creates the journal exactly
/// like a local `sweep_cli --output` run — a pre-existing journal needs
/// resume=true and must match the sweep name and grid hash; completed
/// trials found there are never re-leased.
class DispatchCoordinator {
 public:
  using Options = DispatchCoordinatorOptions;
  struct Open {
    std::unique_ptr<DispatchCoordinator> coordinator;
    std::string error;  ///< Non-empty when coordinator == nullptr.
    [[nodiscard]] bool ok() const { return coordinator != nullptr; }
  };

  /// `trials` is the full expanded grid and must outlive the coordinator.
  [[nodiscard]] static Open open(const std::string& journal_path,
                                 const std::string& sweep_name,
                                 std::span<const TrialSpec> trials,
                                 bool resume, Options options = {});

  /// Adaptive mode (search/driver.h): no journal and no fixed work list —
  /// the caller decides which trials to run, batch by batch, with
  /// serve_trials(). Workers are indistinguishable from campaign workers:
  /// they hello against the same grid, lease index batches, stream rows,
  /// and park on `wait` between batches (heartbeats keep them past the
  /// silence sweep). The caller owns journaling; the coordinator only
  /// validates rows and returns their exact bytes.
  [[nodiscard]] static Open open_adaptive(const std::string& sweep_name,
                                          std::span<const TrialSpec> trials,
                                          Options options = {});

  ~DispatchCoordinator();
  DispatchCoordinator(const DispatchCoordinator&) = delete;
  DispatchCoordinator& operator=(const DispatchCoordinator&) = delete;

  /// The bound listen port (the ephemeral pick when options.port == 0).
  [[nodiscard]] std::uint16_t port() const;

  /// Accepts workers and dispatches leases until every trial is journaled
  /// (or request_stop()). Blocking; single-threaded; run it on a
  /// dedicated thread if the caller needs to do anything else. The
  /// journal is flushed before returning, so even a stopped serve leaves
  /// a valid, resumable journal behind. The listener is closed on return:
  /// a worker that connects later is refused, never left waiting.
  [[nodiscard]] DispatchServeResult serve();

  /// Adaptive mode only. Accepts workers and leases exactly the given
  /// trial indices until every one has a validated row, then returns the
  /// exact row bytes in `indices` order (workers stay connected, parked
  /// on `wait`). Blocking, like serve(); returns a non-empty error if
  /// serving failed or request_stop() interrupted the batch. Indices
  /// whose rows arrived in an earlier batch (duplicates, re-leases) are
  /// answered from the collected set without re-leasing.
  [[nodiscard]] std::string serve_trials(
      const std::vector<std::size_t>& indices,
      std::vector<std::string>& rows_out);

  /// Adaptive mode only: releases the worker fleet (`done` + drain),
  /// keeps serving stats polls for Options::linger_s, then closes the
  /// listener like serve() does.
  void finish();

  /// The coordinator's metric registry — the one the `stats` endpoint
  /// renders. Adaptive callers register their own series here so search
  /// progress rides `sweep_cli stats --watch` for free.
  [[nodiscard]] MetricRegistry& registry();

  /// Thread-safe: makes a running serve() return at its next poll tick
  /// (<= ~50 ms). Used by tests and signal handlers.
  void request_stop();

 private:
  DispatchCoordinator();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ----------------------------------------------------------------- worker

struct DispatchWorkerOptions {
  /// SweepRunner worker threads per lease; 0 = hardware concurrency.
  std::uint32_t threads = 1;
  /// Liveness cadence; keep well under the coordinator's lease timeout.
  double heartbeat_interval_s = 2.0;
  /// Keep retrying a refused/unreachable connect for this long before
  /// giving up — workers routinely launch before their coordinator.
  double connect_wait_s = 10.0;
  /// Optional local journal: every finished trial is appended here BEFORE
  /// it is streamed, so a worker's completed work survives even if both
  /// the network and the coordinator die. Must not already exist.
  std::string journal_path;
  JsonlSinkOptions sink{};
  /// Called after each finished trial, serialized, before streaming.
  std::function<void(const TrialResult&)> on_trial_done;
  /// Test hook: after streaming this many rows, hard-close the socket and
  /// abandon the lease — simulates a worker killed mid-lease. 0 = never.
  std::size_t abort_after_rows = 0;
};

struct DispatchWorkResult {
  std::string error;  ///< Empty on a clean `done` from the coordinator.
  std::size_t trials_run = 0;
  std::uint32_t leases_completed = 0;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Connects to a coordinator and runs leases until it says `done`.
/// `trials` must be the same full expanded grid the coordinator serves
/// (the hello's grid hash proves it; a mismatch is rejected by name).
/// Any network failure abandons the in-flight lease and returns an error
/// — the coordinator's timeout machinery re-leases the remainder.
[[nodiscard]] DispatchWorkResult run_dispatch_worker(
    const std::string& host, std::uint16_t port, const std::string& sweep_name,
    std::span<const TrialSpec> trials, DispatchWorkerOptions options = {});

}  // namespace adaptbf
