// Campaign runner: executes a sweep file's full parameter grid on a
// worker pool and exports aggregate statistics.
//
//   $ ./sweep_cli examples/sweeps/paper_campaign.ini
//   $ ./sweep_cli --threads 8 --csv out.csv --json out.json campaign.ini
//   $ ./sweep_cli --list campaign.ini       # print trials without running
//
//   # Durable, resumable campaign: every finished trial is appended to a
//   # JSONL journal (fsync'd batches). Kill it at any point — including
//   # mid-write — and rerun with --resume to execute only the missing
//   # trials; the final CSV/JSON are byte-identical to an uninterrupted
//   # run at any thread count.
//   $ ./sweep_cli --threads 16 --output campaign.jsonl campaign.ini
//   $ ./sweep_cli --threads 16 --output campaign.jsonl --resume campaign.ini
//
//   # Sharded fan-out: split the grid across K independent OS processes
//   # (or machines sharing a filesystem). Each process journals its slice
//   # to <output>.shard-I-of-K and resumes independently; the merge
//   # validates the set and derives CSV/JSON byte-identical to a
//   # single-process run.
//   $ ./sweep_cli --shard-index 0 --shard-count 3 --output c.jsonl c.ini &
//   $ ./sweep_cli --shard-index 1 --shard-count 3 --output c.jsonl c.ini &
//   $ ./sweep_cli --shard-index 2 --shard-count 3 --output c.jsonl c.ini &
//   $ wait
//   $ ./sweep_cli merge --output merged.jsonl --csv c.csv --json c.json
//       c.ini c.jsonl.shard-*-of-3        (one line)
//
//   # Network-distributed fan-out: no shared filesystem needed. The
//   # coordinator leases trial batches to TCP workers and journals every
//   # returned row itself; artifacts are byte-identical to a local run.
//   $ ./sweep_cli serve --listen 7001 --output c.jsonl c.ini
//   $ ./sweep_cli work --connect host:7001 --threads 8 c.ini   # per machine
//
//   # Live telemetry: poll a running coordinator's stats endpoint
//   # (docs/observability.md) as JSON or Prometheus text, once or on a
//   # cadence. `serve --linger SEC` keeps the endpoint up after the
//   # campaign completes so the final totals stay readable.
//   $ ./sweep_cli stats host:7001                 # one JSON document
//   $ ./sweep_cli stats host:7001 --prom          # Prometheus exposition
//   $ ./sweep_cli stats host:7001 --watch 5       # re-poll every 5 s
//
//   # Closed-loop search (docs/search.md): a [search] section picks an
//   # input variable, a candidate ladder, and a step controller; the
//   # search drives probe trials until the SLO boundary is bracketed,
//   # journaling every probe AND every controller step — kill it and
//   # --resume replays the journal into the identical controller state.
//   # Probes run in-process, or fan out to ordinary `work` processes.
//   $ ./sweep_cli search --slo 'p99_ms<=250,jain>=0.9' search.ini
//   $ ./sweep_cli search --resume search.ini
//   $ ./sweep_cli search --listen 7001 search.ini   # + work processes
//
// Trials are independent simulations, so wall time scales down with
// --threads while results stay bit-identical: the CSV/JSON written with
// --threads 1 and --threads 8 match byte for byte. With --output, per-trial
// payloads are released as soon as they are journaled, so campaign memory
// stays bounded no matter how many trials have completed.
//
// Full reference, every flag and exit code: docs/sweep_cli.md.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/sweep_export.h"
#include "net/frame.h"
#include "net/socket.h"
#include "search/driver.h"
#include "search/search_io.h"
#include "support/cli_args.h"
#include "support/ini.h"
#include "support/json.h"
#include "support/log.h"
#include "support/table.h"
#include "sweep/dispatch.h"
#include "sweep/resume.h"
#include "sweep/shard.h"
#include "sweep/sweep_aggregator.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"
#include "sweep/trial_sink.h"

using namespace adaptbf;

namespace {

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << contents;
  return file.good();
}

SweepRunner::Options runner_options(std::uint32_t threads, TrialSink* sink) {
  SweepRunner::Options options;
  options.threads = threads;
  options.sink = sink;
  options.on_trial_done = [](std::size_t completed, std::size_t total,
                             const TrialResult& result) {
    std::fprintf(stderr, "  [%zu/%zu] %s / %s rep %u: %.1f MiB/s\n",
                 completed, total, result.scenario.c_str(),
                 std::string(to_string(result.policy)).c_str(),
                 result.repetition, result.aggregate_mibps);
  };
  return options;
}

/// Every flag's value. Each mode's table (cli_modes) names the flags that
/// mode accepts; the defaults here are the documented ones. A number
/// that must be told apart from "not given" is optional.
struct Flags {
  std::uint32_t threads = 0;  // 0 = hardware concurrency.
  const char* csv = nullptr;
  const char* json = nullptr;
  const char* output = nullptr;
  bool resume = false;
  std::optional<std::uint32_t> shard_index;
  std::optional<std::uint32_t> shard_count;
  bool list = false;
  std::optional<std::uint32_t> listen;
  std::uint32_t lease = 16;
  std::uint32_t lease_timeout_s = 30;
  std::uint32_t linger_s = 0;
  const char* connect = nullptr;
  bool stats_json = false;
  bool stats_prom = false;
  std::uint32_t watch_s = 0;  // 0 = poll once.
  const char* slo = nullptr;
  std::optional<std::uint32_t> budget;
};

/// One parsed command line and the synopsis its usage errors reprint.
struct Command {
  const Flags& flags;
  std::vector<const char*> operands;
  std::string synopsis;

  /// Usage errors name the problem AND reprint the mode's synopsis — a
  /// bare error string leaves the user grepping docs for the flag they
  /// half-remember.
  int usage_error(const std::string& message) const {
    std::fprintf(stderr, "error: %s\n\n%s", message.c_str(),
                 synopsis.c_str());
    return 2;
  }
};

/// HOST:PORT -> parts. Strict: a missing, zero, or out-of-range port (or
/// a bare host) is a usage error at the call site, never a default.
bool parse_endpoint(const std::string& endpoint, std::string& host,
                    std::uint16_t& port) {
  const std::size_t colon = endpoint.rfind(':');
  std::uint64_t number = 0;
  if (colon == std::string::npos || colon == 0 ||
      !parse_u64(std::string_view(endpoint).substr(colon + 1), number) ||
      number == 0 || number > 0xffff)
    return false;
  host = endpoint.substr(0, colon);
  port = static_cast<std::uint16_t>(number);
  return true;
}

int print_version(const Command&) {
  std::printf("sweep_cli (AdapTBF campaign runner)\n"
              "journal format:    %u  (JSONL campaign journal, "
              "\"adaptbf_sweep\" header key)\n"
              "dispatch protocol: %u  (coordinator/worker frames, "
              "\"adaptbf_dispatch\" key)\n"
              "search step format: %u  (search journal \"search_step\" "
              "rows, `search` subcommand)\n",
              kJournalFormatVersion, kDispatchProtocolVersion,
              kSearchStepVersion);
  return 0;
}

/// A loaded sweep file with its artifact paths resolved: CLI flags
/// override the file's [output] defaults. Shared by every subcommand so
/// they can never drift on how the same sweep file is interpreted. The
/// load error, if any, is already printed (identically everywhere);
/// callers just `return 1`.
struct LoadedSweep {
  SweepLoadResult loaded;
  std::string csv, json, jsonl;
  [[nodiscard]] bool ok() const { return loaded.ok(); }
  [[nodiscard]] const SweepSpec& sweep() const { return *loaded.spec; }
};

LoadedSweep load_sweep_with_outputs(const char* sweep_path,
                                    const char* csv_flag,
                                    const char* json_flag,
                                    const char* jsonl_flag) {
  LoadedSweep out;
  out.loaded = load_sweep_file(sweep_path);
  if (!out.loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", out.loaded.error.c_str());
    return out;
  }
  out.csv = csv_flag != nullptr ? csv_flag : out.loaded.csv_path;
  out.json = json_flag != nullptr ? json_flag : out.loaded.json_path;
  out.jsonl = jsonl_flag != nullptr ? jsonl_flag : out.loaded.jsonl_path;
  return out;
}

/// Streams the completed journal at `jsonl` into the per-cell table plus
/// optional CSV/JSON files. Shared by the journaled-run and merge paths.
int export_from_journal(const std::string& jsonl, const SweepSpec& sweep,
                        const std::vector<TrialSpec>& trials,
                        const std::string& csv, const std::string& json) {
  std::ofstream json_file;
  if (!json.empty()) {
    json_file.open(json, std::ios::binary);
    if (!json_file) {
      std::fprintf(stderr, "error: could not write %s\n", json.c_str());
      return 1;
    }
  }
  JsonlExportResult exported = export_campaign_from_jsonl(
      jsonl, sweep.name, trials, json.empty() ? nullptr : &json_file);
  if (!exported.ok()) {
    std::fprintf(stderr, "error: %s\n", exported.error.c_str());
    return 1;
  }
  if (!json.empty()) {
    json_file.flush();
    if (!json_file.good()) {
      std::fprintf(stderr, "error: could not write %s\n", json.c_str());
      return 1;
    }
    json_file.close();
    std::fprintf(stderr, "wrote %s\n", json.c_str());
  }

  const Table cell_table = sweep_cells_table(exported.cells);
  std::printf(
      "%s\n",
      cell_table.to_string("Campaign aggregates (mean over seeds, 95% CI)")
          .c_str());
  if (!csv.empty()) {
    if (!write_file(csv, cell_table.to_csv())) {
      std::fprintf(stderr, "error: could not write %s\n", csv.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", csv.c_str());
  }
  return 0;
}

/// `sweep_cli merge`: validate a shard set, write the merged journal, and
/// export its artifacts.
int run_merge(const Command& cmd) {
  const Flags& flags = cmd.flags;
  if (cmd.operands.empty())
    return cmd.usage_error("merge needs a <sweep.ini>");
  if (cmd.operands.size() == 1)
    return cmd.usage_error(
        "merge needs the shard journals to merge (<shard.jsonl>...)");
  const std::vector<std::string> shard_paths(cmd.operands.begin() + 1,
                                             cmd.operands.end());

  const LoadedSweep loaded = load_sweep_with_outputs(
      cmd.operands[0], flags.csv, flags.json, flags.output);
  if (!loaded.ok()) return 1;
  const SweepSpec& sweep = loaded.sweep();
  const std::string& csv = loaded.csv;
  const std::string& json = loaded.json;
  const std::string& merged = loaded.jsonl;
  if (merged.empty())
    return cmd.usage_error(
        "merge needs a destination (--output PATH or an [output] jsonl = "
        "line)");

  const std::vector<TrialSpec> trials = sweep.expand();
  const ShardMergeResult merge_result =
      merge_shard_journals(shard_paths, sweep.name, trials, merged);
  if (!merge_result.ok()) {
    std::fprintf(stderr, "error: %s\n", merge_result.error.c_str());
    return 1;
  }
  std::fprintf(stderr, "merged %zu trials from %u shard(s) into %s\n",
               merge_result.rows, merge_result.shard_count, merged.c_str());
  return export_from_journal(merged, sweep, trials, csv, json);
}

/// `sweep_cli serve`: coordinate a network-distributed campaign — lease
/// trials to TCP workers, journal every returned row, export artifacts.
int run_serve(const Command& cmd) {
  const Flags& flags = cmd.flags;
  if (cmd.operands.empty())
    return cmd.usage_error("serve needs a <sweep.ini>");
  if (!flags.listen) return cmd.usage_error("serve needs --listen PORT");
  const char* sweep_path = cmd.operands[0];

  const LoadedSweep loaded = load_sweep_with_outputs(
      sweep_path, flags.csv, flags.json, flags.output);
  if (!loaded.ok()) return 1;
  if (loaded.loaded.has_search()) {
    std::fprintf(stderr,
                 "error: '%s' has a [search] section; the search IS the "
                 "coordinator — run 'sweep_cli search --listen PORT %s'\n",
                 sweep_path, sweep_path);
    return 1;
  }
  const SweepSpec& sweep = loaded.sweep();
  const std::string& csv = loaded.csv;
  const std::string& json = loaded.json;
  const std::string& jsonl = loaded.jsonl;
  if (jsonl.empty())
    return cmd.usage_error(
        "serve needs a journal (--output PATH or an [output] jsonl = line) "
        "— the coordinator journals every trial workers return");

  const std::vector<TrialSpec> trials = sweep.expand();
  DispatchCoordinator::Options options;
  options.port = static_cast<std::uint16_t>(*flags.listen);
  options.lease_size = flags.lease;
  options.lease_timeout_s = flags.lease_timeout_s;
  options.linger_s = flags.linger_s;
  // Progress lines are rate-limited to one per few seconds: a fleet of
  // fast workers would otherwise scroll one line per trial. The rate (and
  // its ETA) counts only rows journaled by THIS serve — resumed rows are
  // done, not throughput.
  using ProgressClock = std::chrono::steady_clock;
  const auto serve_start = ProgressClock::now();
  auto last_progress = serve_start - std::chrono::hours(1);
  std::size_t resumed_rows = 0;
  bool first_progress = true;
  options.on_progress = [&](std::size_t done, std::size_t total) {
    if (first_progress) {
      first_progress = false;
      resumed_rows = done - 1;  // Everything before this serve's first row.
    }
    const auto now = ProgressClock::now();
    if (done < total && now - last_progress < std::chrono::seconds(5)) return;
    last_progress = now;
    const double elapsed =
        std::chrono::duration<double>(now - serve_start).count();
    const double rate =
        elapsed > 0 ? static_cast<double>(done - resumed_rows) / elapsed : 0.0;
    if (done < total && rate > 0)
      std::fprintf(stderr, "  [%zu/%zu] journaled, %.1f rows/s, ETA %.0fs\n",
                   done, total, rate,
                   static_cast<double>(total - done) / rate);
    else
      std::fprintf(stderr, "  [%zu/%zu] journaled, %.1f rows/s\n", done,
                   total, rate);
  };
  DispatchCoordinator::Open opened = DispatchCoordinator::open(
      jsonl, sweep.name, trials, flags.resume, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving sweep '%s' (%zu trials) on port %u; workers join "
               "with:\n  sweep_cli work --connect <this-host>:%u %s\n"
               "poll live telemetry with:\n"
               "  sweep_cli stats <this-host>:%u [--prom] [--watch SEC]\n",
               sweep.name.c_str(), trials.size(), opened.coordinator->port(),
               opened.coordinator->port(), sweep_path,
               opened.coordinator->port());
  const DispatchServeResult served = opened.coordinator->serve();
  if (!served.ok()) {
    std::fprintf(stderr,
                 "error: %s\ncompleted trials are journaled in '%s'; rerun "
                 "serve with --resume to continue\n",
                 served.error.c_str(), jsonl.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "campaign complete: %zu trials from %u worker(s), %u "
               "lease(s), %u reclaimed, %zu duplicate row(s) ignored\n",
               served.rows_received, served.workers_seen,
               served.leases_granted, served.leases_reclaimed,
               served.duplicate_rows);
  return export_from_journal(jsonl, sweep, trials, csv, json);
}

/// `sweep_cli work`: run leases for a coordinator until it says done.
int run_work(const Command& cmd) {
  const Flags& flags = cmd.flags;
  if (cmd.operands.empty())
    return cmd.usage_error("work needs a <sweep.ini>");
  if (flags.connect == nullptr)
    return cmd.usage_error("work needs --connect HOST:PORT");
  const std::string endpoint = flags.connect;
  std::string host;
  std::uint16_t port = 0;
  if (!parse_endpoint(endpoint, host, port))
    return cmd.usage_error("--connect needs HOST:PORT, got '" + endpoint +
                           "'");

  // The sweep file's [output] paths name the COORDINATOR's artifacts; a
  // worker's optional local journal comes only from its own --output.
  const LoadedSweep loaded =
      load_sweep_with_outputs(cmd.operands[0], nullptr, nullptr, nullptr);
  if (!loaded.ok()) return 1;
  const SweepSpec& sweep = loaded.sweep();
  // A [search] file's campaign is its PROBE grid: expand the same grid
  // the search coordinator serves so the hello's grid hash matches. The
  // SLO is irrelevant to the grid (and may live only in the
  // coordinator's --slo flag), so it is not required here.
  std::vector<TrialSpec> trials;
  if (loaded.loaded.has_search()) {
    const SearchLoadResult search_loaded =
        load_search(loaded.loaded.search_entries, /*require_slo=*/false);
    if (!search_loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", search_loaded.error.c_str());
      return 1;
    }
    trials = search_loaded.spec->probe_sweep(sweep).expand();
  } else {
    trials = sweep.expand();
  }
  DispatchWorkerOptions options;
  options.threads = flags.threads;
  if (flags.output != nullptr) options.journal_path = flags.output;
  options.on_trial_done = [](const TrialResult& result) {
    std::fprintf(stderr, "  trial %zu: %s / %s rep %u: %.1f MiB/s\n",
                 result.index, result.scenario.c_str(),
                 std::string(to_string(result.policy)).c_str(),
                 result.repetition, result.aggregate_mibps);
  };
  std::fprintf(stderr, "worker: sweep '%s' (%zu trials), coordinator %s\n",
               sweep.name.c_str(), trials.size(), endpoint.c_str());
  const DispatchWorkResult worked =
      run_dispatch_worker(host, port, sweep.name, trials, options);
  if (!worked.ok()) {
    std::fprintf(stderr, "error: %s\n", worked.error.c_str());
    return 1;
  }
  std::fprintf(stderr, "worker done: %zu trial(s) across %u lease(s)\n",
               worked.trials_run, worked.leases_completed);
  return 0;
}

/// `sweep_cli stats`: poll a live coordinator's telemetry endpoint. One
/// shot by default; --watch re-polls the SAME connection on a cadence and
/// exits cleanly when the coordinator goes away (campaign over).
int run_stats(const Command& cmd) {
  const Flags& flags = cmd.flags;
  if (cmd.operands.empty()) return cmd.usage_error("stats needs HOST:PORT");
  if (flags.stats_json && flags.stats_prom)
    return cmd.usage_error("--json and --prom are mutually exclusive");
  const std::string format = flags.stats_prom ? "prom" : "json";
  const std::string endpoint = cmd.operands[0];
  std::string host;
  std::uint16_t port = 0;
  if (!parse_endpoint(endpoint, host, port))
    return cmd.usage_error("stats needs HOST:PORT, got '" + endpoint + "'");

  TcpSocket::ConnectResult connected = TcpSocket::connect_to(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "error: cannot connect to %s: %s\n",
                 endpoint.c_str(), connected.error.c_str());
    return 1;
  }
  TcpSocket socket = std::move(connected.socket);

  bool first_poll = true;
  for (;;) {
    std::string payload, frame_error;
    dispatch_wire::Message msg;
    const bool sent =
        write_frame(socket, dispatch_wire::stats_request(format));
    if (!sent || !read_frame(socket, payload, frame_error)) {
      if (!first_poll) {
        // Mid-watch disappearance is the normal end of a watched
        // campaign, not a failure.
        std::fprintf(stderr,
                     "coordinator at %s closed the connection (campaign "
                     "over)\n",
                     endpoint.c_str());
        return 0;
      }
      std::fprintf(stderr, "error: %s\n",
                   frame_error.empty()
                       ? ("coordinator at " + endpoint +
                          " closed the connection")
                             .c_str()
                       : frame_error.c_str());
      return 1;
    }
    if (!dispatch_wire::parse(payload, msg)) {
      std::fprintf(stderr, "error: malformed frame from coordinator\n");
      return 1;
    }
    using Type = dispatch_wire::Message::Type;
    if (msg.type == Type::kError) {
      std::fprintf(stderr, "error: coordinator: %s\n", msg.message.c_str());
      return 1;
    }
    if (msg.type == Type::kForeignVersion) {
      std::fprintf(stderr,
                   "error: protocol version mismatch: this build speaks %u, "
                   "coordinator sent %u\n",
                   kDispatchProtocolVersion, msg.version);
      return 1;
    }
    if (msg.type != Type::kStatsReply ||
        msg.stats_version != kStatsVersion) {
      std::fprintf(stderr, "error: unexpected frame from coordinator\n");
      return 1;
    }
    std::printf("%s", msg.body.c_str());
    if (msg.body.empty() || msg.body.back() != '\n') std::printf("\n");
    std::fflush(stdout);
    first_poll = false;
    if (flags.watch_s == 0) return 0;
    std::this_thread::sleep_for(std::chrono::seconds(flags.watch_s));
  }
}

/// `sweep_cli search`: run (or resume) a closed-loop search. Probes run
/// in-process by default; --listen turns this process into an adaptive
/// coordinator and fans them out to ordinary `work` processes.
int run_search_cmd(const Command& cmd) {
  const Flags& flags = cmd.flags;
  if (cmd.operands.empty())
    return cmd.usage_error("search needs a <sweep.ini>");
  const char* sweep_path = cmd.operands[0];

  const LoadedSweep loaded =
      load_sweep_with_outputs(sweep_path, nullptr, nullptr, flags.output);
  if (!loaded.ok()) return 1;
  const SweepSpec& sweep = loaded.sweep();
  const std::string& jsonl = loaded.jsonl;
  if (!loaded.loaded.has_search()) {
    std::fprintf(stderr,
                 "error: '%s' has no [search] section — `search` needs one "
                 "(docs/search.md)\n",
                 sweep_path);
    return 1;
  }
  // The CLI --slo replaces the file's SLO wholesale, so the file may omit
  // its slo = line when the flag is present.
  const SearchLoadResult search_loaded =
      load_search(loaded.loaded.search_entries,
                  /*require_slo=*/flags.slo == nullptr);
  if (!search_loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", search_loaded.error.c_str());
    return 1;
  }
  SearchSpec spec = *search_loaded.spec;
  if (flags.slo != nullptr) {
    const SloParseResult slo = parse_slo(flags.slo);
    if (!slo.ok()) return cmd.usage_error("--slo: " + slo.error);
    spec.slo = slo.thresholds;
  }
  if (flags.budget) spec.budget = *flags.budget;
  const std::string invalid = spec.validate(sweep);
  if (!invalid.empty()) {
    std::fprintf(stderr, "error: %s\n", invalid.c_str());
    return 1;
  }
  if (jsonl.empty())
    return cmd.usage_error(
        "search needs a journal (--output PATH or an [output] jsonl = line) "
        "— every probe and controller step is journaled there");

  // The probe grid: every trial any controller step could request,
  // pre-expanded. Workers expand the identical grid from the same file
  // (their hello's grid hash proves it).
  const SweepSpec probe = spec.probe_sweep(sweep);
  const std::vector<TrialSpec> trials = probe.expand();
  std::fprintf(stderr,
               "search '%s': %s over %s, %zu-rung ladder, budget %u "
               "(probe grid: %zu trials)\n",
               sweep.name.c_str(), search_controller_name(spec.controller),
               spec.input.c_str(), spec.inputs().size(),
               spec.budget, trials.size());

  SearchDriverOptions options;
  options.on_step = [&spec](const SearchStepRow& row) {
    std::fprintf(stderr, "  step %u [%s] %s=%s verdict=%s bracket=%s\n",
                 row.step, row.test_stage ? "test" : "adjust",
                 spec.input.c_str(), json_num(row.input).c_str(),
                 verdict_name(row.verdict), json_num(row.bracket).c_str());
  };

  DispatchCoordinator::Open opened;
  std::unique_ptr<ProbeExecutor> executor;
  if (flags.listen) {
    DispatchCoordinator::Options coord;
    coord.port = static_cast<std::uint16_t>(*flags.listen);
    coord.lease_size = flags.lease;
    coord.lease_timeout_s = flags.lease_timeout_s;
    coord.linger_s = flags.linger_s;
    opened = DispatchCoordinator::open_adaptive(sweep.name, trials, coord);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "serving probes on port %u; workers join with:\n"
                 "  sweep_cli work --connect <this-host>:%u %s\n"
                 "poll live search telemetry with:\n"
                 "  sweep_cli stats <this-host>:%u [--prom] [--watch SEC]\n",
                 opened.coordinator->port(), opened.coordinator->port(),
                 sweep_path, opened.coordinator->port());
    // Driver gauges land in the coordinator's registry, so `stats`
    // pollers watch the bracket close live.
    options.metrics = &opened.coordinator->registry();
    executor = make_dispatch_probe_executor(*opened.coordinator);
  } else {
    executor = make_local_probe_executor(trials, flags.threads, nullptr);
  }

  const SearchOutcome outcome = run_search(spec, sweep.name, trials, jsonl,
                                           flags.resume, *executor, options);
  // Release the fleet (and linger for stats pollers) even on error —
  // abandoned workers would otherwise park on `wait` forever.
  if (opened.coordinator) opened.coordinator->finish();
  if (!outcome.ok()) {
    std::fprintf(stderr,
                 "error: %s\ncompleted probes are journaled in '%s'; rerun "
                 "with --resume to continue\n",
                 outcome.error.c_str(), jsonl.c_str());
    return 1;
  }

  // One machine-readable result line on stdout (numbers round-trip exact,
  // like the journal) — scripts and the CI smoke consume this.
  std::string line = "{\"adaptbf_search_result\":1";
  line += ",\"sweep\":" + json_quote(sweep.name);
  line += ",\"controller\":";
  line += json_quote(search_controller_name(spec.controller));
  line += ",\"input\":";
  line += json_quote(spec.input);
  line += outcome.converged ? ",\"converged\":true" : ",\"converged\":false";
  line += outcome.feasible ? ",\"feasible\":true" : ",\"feasible\":false";
  if (outcome.best_index.has_value()) {
    line += ",\"best_index\":" + std::to_string(*outcome.best_index);
    line += ",\"best_input\":" + json_num_exact(outcome.best_input);
    line += ",\"test_verdict\":";
    line += json_quote(verdict_name(outcome.test_verdict));
    line += ",\"mibps\":" + json_num_exact(outcome.test_metrics.mibps);
    line += ",\"fairness\":" + json_num_exact(outcome.test_metrics.fairness);
    line += ",\"p50_ms\":" + json_num_exact(outcome.test_metrics.p50_ms);
    line += ",\"p95_ms\":" + json_num_exact(outcome.test_metrics.p95_ms);
    line += ",\"p99_ms\":" + json_num_exact(outcome.test_metrics.p99_ms);
  } else {
    line += ",\"best_index\":null";
  }
  line += ",\"steps\":" + std::to_string(outcome.steps);
  line += ",\"steps_replayed\":" + std::to_string(outcome.steps_replayed);
  line += ",\"trials_run\":" + std::to_string(outcome.trials_run);
  line += ",\"bracket\":" + json_num_exact(outcome.bracket);
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);

  if (outcome.best_index.has_value())
    std::fprintf(stderr,
                 "search done: best %s = %s (%s, %s), %u step(s) (%u "
                 "replayed), %llu new trial(s)\n",
                 spec.input.c_str(),
                 json_num(outcome.best_input).c_str(),
                 outcome.converged ? "converged" : "budget exhausted",
                 outcome.feasible ? "feasible" : "NOT upheld by the test "
                                                "stage",
                 outcome.steps, outcome.steps_replayed,
                 static_cast<unsigned long long>(outcome.trials_run));
  else
    std::fprintf(stderr,
                 "search done: no feasible input on the ladder (every probe "
                 "violated the SLO)\n");
  return 0;
}

/// The default mode: run the full grid (or one shard of it) in this
/// process.
int run_campaign(const Command& cmd) {
  const Flags& flags = cmd.flags;
  if (cmd.operands.empty()) {
    std::fprintf(stderr, "%s", cmd.synopsis.c_str());
    return 2;
  }
  if (flags.shard_index.has_value() != flags.shard_count.has_value()) {
    // Half a shard identity would default the other half and silently run
    // the wrong slice (or the whole campaign).
    return cmd.usage_error(
        "--shard-index and --shard-count must be given together");
  }
  ShardRef shard;
  if (flags.shard_index) {
    shard = {*flags.shard_index, *flags.shard_count};
    const std::string shard_error = shard_ref_error(shard);
    if (!shard_error.empty()) return cmd.usage_error(shard_error);
  }
  const char* sweep_path = cmd.operands[0];

  const LoadedSweep loaded = load_sweep_with_outputs(
      sweep_path, flags.csv, flags.json, flags.output);
  if (!loaded.ok()) return 1;
  if (loaded.loaded.has_search()) {
    // Running the BASE grid of a search file would journal under the
    // wrong grid and strand the [search] intent silently.
    std::fprintf(stderr,
                 "error: '%s' has a [search] section; run it with "
                 "'sweep_cli search %s'\n",
                 sweep_path, sweep_path);
    return 1;
  }
  const SweepSpec& sweep = loaded.sweep();
  const std::string& csv = loaded.csv;
  const std::string& json = loaded.json;
  const std::string& jsonl = loaded.jsonl;
  if (flags.resume && jsonl.empty())
    return cmd.usage_error(
        "--resume needs a journal (--output PATH or an [output] jsonl = "
        "line)");
  if (shard.sharded() && jsonl.empty() && !flags.list)
    return cmd.usage_error(
        "a sharded run needs a journal base (--output PATH or an [output] "
        "jsonl = line); the shard writes PATH.shard-" +
        std::to_string(shard.index) + "-of-" + std::to_string(shard.count));

  const std::vector<TrialSpec> all_trials = sweep.expand();
  // Everything below runs the shard's slice. Unsharded runs alias the
  // full grid instead of copying it through a {0, 1} plan — materialized
  // TrialSpecs are the dominant spec memory on large campaigns.
  const ShardPlan plan =
      shard.sharded() ? plan_shard(all_trials, shard) : ShardPlan{};
  const std::vector<TrialSpec>& trials =
      shard.sharded() ? plan.trials : all_trials;
  std::fprintf(stderr,
               "sweep '%s': %zu scenario(s) x %zu policy(ies) x %zu grid "
               "point(s) x %u seed(s) => %zu trials\n",
               sweep.name.c_str(), sweep.scenarios.size(),
               sweep.policies.size(),
               all_trials.size() / sweep.scenarios.size() /
                   sweep.policies.size() / sweep.repetitions,
               sweep.repetitions, all_trials.size());
  if (shard.sharded())
    std::fprintf(stderr, "shard %s: %zu of %zu trials\n", shard.str().c_str(),
                 trials.size(), all_trials.size());

  if (flags.list) {
    Table table({"trial", "scenario", "policy", "osts", "token_rate",
                 "repetition", "seed"});
    for (const auto& trial : trials) {
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.6g", trial.max_token_rate);
      table.add_row({std::to_string(trial.index), trial.scenario,
                     std::string(to_string(trial.policy)),
                     std::to_string(trial.num_osts), rate,
                     std::to_string(trial.repetition),
                     std::to_string(trial.seed)});
    }
    std::printf("%s\n", table.to_string("Trial plan").c_str());
    return 0;
  }

  std::vector<CellStats> cells;
  std::string json_document;    // In-memory mode only; journaled mode
                                // streams the document to disk directly.

  if (!jsonl.empty()) {
    // ------------------------------------------- journaled (sink) mode
    const std::string journal = shard_journal_path(jsonl, shard);
    const CampaignScan scan =
        scan_campaign_file(journal, sweep.name, all_trials, shard);
    if (!scan.ok()) {
      std::fprintf(stderr, "error: %s\n", scan.error.c_str());
      return 1;
    }
    if (!flags.resume && !scan.fresh) {
      std::fprintf(stderr,
                   "error: journal '%s' already exists (%zu/%zu trials); "
                   "pass --resume to continue it or remove it to restart\n",
                   journal.c_str(), scan.rows, scan.expected_rows);
      return 1;
    }

    if (!scan.fresh) {
      if (scan.truncated_tail)
        std::fprintf(stderr,
                     "resume: discarding a partial trailing line "
                     "(crash mid-write)\n");
      if (scan.corrupt_lines > 0)
        std::fprintf(stderr, "resume: ignoring %zu corrupt line(s)\n",
                     scan.corrupt_lines);
      std::fprintf(stderr, "resume: %zu/%zu trials already journaled\n",
                   scan.rows, scan.expected_rows);
    }
    const CampaignHeader header{sweep.name, sweep_grid_hash(all_trials),
                                all_trials.size(), shard};
    JsonlTrialSink::OpenResult opened =
        JsonlTrialSink::open(journal, scan, header);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.error.c_str());
      return 1;
    }

    const std::vector<TrialSpec> todo = missing_trials(scan, trials);
    if (todo.empty()) {
      std::fprintf(stderr, "resume: campaign already complete\n");
    } else {
      const SweepRunner runner(
          runner_options(flags.threads, opened.sink.get()));
      try {
        (void)runner.run(todo);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "error: campaign stopped: %s\n"
                     "completed trials are journaled in '%s'; rerun with "
                     "--resume to continue\n",
                     e.what(), journal.c_str());
        return 1;
      }
    }
    opened.sink.reset();  // Flush + close before re-reading the journal.

    if (shard.sharded()) {
      // A slice has no artifacts of its own: aggregates over a subset of
      // seeds would look like — but not be — campaign numbers. Merging is
      // the only exit.
      std::fprintf(stderr,
                   "shard %s complete: %s\n"
                   "merge the full set when every shard is done:\n"
                   "  sweep_cli merge --output MERGED.jsonl %s "
                   "%s.shard-*-of-%u\n",
                   shard.str().c_str(), journal.c_str(), sweep_path,
                   jsonl.c_str(), shard.count);
      return 0;
    }

    // Every artifact derives from the journal, never from in-memory state:
    // interrupted-then-resumed and uninterrupted runs re-read the same
    // rows and therefore export byte-identical CSV/JSON. The JSON document
    // streams straight to its file — journaled mode never holds anything
    // proportional to the campaign size in memory.
    return export_from_journal(journal, sweep, all_trials, csv, json);
  }

  // ------------------------------------------------- in-memory mode
  const SweepRunner runner(runner_options(flags.threads, nullptr));
  std::vector<TrialResult> results;
  try {
    results = runner.run(trials);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: campaign stopped: %s\n", e.what());
    return 1;
  }
  cells = aggregate_sweep(results);
  if (!json.empty())
    json_document = sweep_to_json(sweep.name, results, cells);

  const Table cell_table = sweep_cells_table(cells);
  std::printf(
      "%s\n",
      cell_table.to_string("Campaign aggregates (mean over seeds, 95% CI)")
          .c_str());

  if (!csv.empty()) {
    if (!write_file(csv, cell_table.to_csv())) {
      std::fprintf(stderr, "error: could not write %s\n", csv.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", csv.c_str());
  }
  if (!json.empty()) {
    if (!write_file(json, json_document)) {
      std::fprintf(stderr, "error: could not write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json.c_str());
  }
  return 0;
}

struct Mode {
  CliMode cli;
  int (*run)(const Command&);
};

/// Every mode's flag table, bound to one Flags. The first mode is the
/// default run; a leading mode word selects any other. Rows that several
/// modes share are declared once, so a flag has one metavar and one range
/// everywhere.
std::vector<Mode> cli_modes(Flags& f) {
  const CliFlag threads{"--threads", "N", &f.threads};
  const CliFlag csv{"--csv", "PATH", &f.csv};
  const CliFlag json{"--json", "PATH", &f.json};
  const CliFlag journal{"--output", "JOURNAL.jsonl", &f.output};
  const CliFlag resume{"--resume", nullptr, &f.resume};
  const CliFlag listen{"--listen", "PORT", &f.listen, 0, 0xffff};
  const CliFlag lease{"--lease", "N", &f.lease, 1};
  const CliFlag lease_timeout{"--lease-timeout", "SEC", &f.lease_timeout_s,
                              1};
  const CliFlag linger{"--linger", "SEC", &f.linger_s};
  constexpr std::size_t kAnyCount = std::numeric_limits<std::size_t>::max();
  return {
      {{nullptr,
        {threads, csv, json, journal, resume,
         {"--shard-index", "I", &f.shard_index},
         {"--shard-count", "K", &f.shard_count},
         {"--list", nullptr, &f.list}},
        "<sweep.ini>", 1},
       run_campaign},
      {{"merge", {{"--output", "MERGED.jsonl", &f.output}, csv, json},
        "<sweep.ini> <shard.jsonl>...", kAnyCount},
       run_merge},
      {{"serve",
        {listen, journal, resume, lease, lease_timeout, linger, csv, json},
        "<sweep.ini>", 1},
       run_serve},
      {{"work", {{"--connect", "HOST:PORT", &f.connect}, threads, journal},
        "<sweep.ini>", 1},
       run_work},
      {{"stats",
        {{"--json", nullptr, &f.stats_json},
         {"--prom", nullptr, &f.stats_prom},
         {"--watch", "SEC", &f.watch_s, 1}},
        "HOST:PORT", 1},
       run_stats},
      {{"search",
        {threads, {"--slo", "EXPR", &f.slo}, {"--budget", "N", &f.budget, 1},
         journal, resume, listen, lease, lease_timeout, linger},
        "<sweep.ini>", 1},
       run_search_cmd},
      {{"--version", {}, "", 0}, print_version},
  };
}

/// The default mode's usage lists every mode: a command line without a
/// mode word may have meant any of them.
std::string global_usage(const char* argv0, const std::vector<Mode>& modes) {
  std::string out;
  for (const Mode& mode : modes) out += cli_synopsis(argv0, mode.cli);
  return out +
         "global: --log-level debug|info|warn|error|off (or "
         "ADAPTBF_LOG_LEVEL)\n"
         "exit codes: 0 success, 1 runtime/campaign error, 2 usage error "
         "(docs/sweep_cli.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  const std::vector<Mode> modes = cli_modes(flags);
  Command cmd{flags, {}, global_usage(argv[0], modes)};

  // Logging config first, so every subcommand (and load error) honors it.
  // Env is the fallback; an explicit --log-level (valid anywhere on the
  // command line, stripped before subcommand parsing) wins.
  if (!init_log_level_from_env())
    std::fprintf(stderr,
                 "warning: ignoring ADAPTBF_LOG_LEVEL (expected debug|info|"
                 "warn|error|off)\n");
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log-level") == 0) {
      if (i + 1 >= argc)
        return cmd.usage_error("--log-level needs debug|info|warn|error|off");
      const auto level = log_level_from_name(argv[++i]);
      if (!level)
        return cmd.usage_error(
            std::string("--log-level needs debug|info|warn|error|off, got '") +
            argv[i] + "'");
      set_log_level(*level);
      continue;
    }
    args.push_back(argv[i]);
  }

  const Mode* mode = &modes.front();
  std::span<char* const> words(args);
  for (const Mode& named : modes)
    if (named.cli.name != nullptr && !words.empty() &&
        std::strcmp(words.front(), named.cli.name) == 0)
      mode = &named;
  if (mode != &modes.front()) {
    words = words.subspan(1);
    cmd.synopsis = cli_synopsis(argv[0], mode->cli);
  }
  CliArgs parsed = parse_cli(mode->cli, words);
  if (!parsed.ok()) return cmd.usage_error(parsed.error);
  cmd.operands = std::move(parsed.operands);
  return mode->run(cmd);
}
