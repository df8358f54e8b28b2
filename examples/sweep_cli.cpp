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
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/sweep_export.h"
#include "net/frame.h"
#include "net/socket.h"
#include "search/driver.h"
#include "search/search_io.h"
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

/// Strict decimal parse for shard flags: a garbage or empty value (an
/// unset $SLURM_PROCID, say) must error, not atoi-coerce to shard 0 and
/// have two processes append to the same journal.
bool parse_u32_arg(const char* text, std::uint32_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      value > 0xffffffffUL)
    return false;
  out = static_cast<std::uint32_t>(value);
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--csv PATH] [--json PATH]\n"
               "          [--output JOURNAL.jsonl [--resume]]\n"
               "          [--shard-index I --shard-count K] [--list] "
               "<sweep.ini>\n"
               "       %s merge --output MERGED.jsonl [--csv PATH] "
               "[--json PATH]\n"
               "          <sweep.ini> <shard.jsonl>...\n"
               "       %s serve --listen PORT --output JOURNAL.jsonl "
               "[--resume]\n"
               "          [--lease N] [--lease-timeout SEC] [--linger SEC] "
               "[--csv PATH]\n"
               "          [--json PATH] <sweep.ini>\n"
               "       %s work --connect HOST:PORT [--threads N]\n"
               "          [--output JOURNAL.jsonl] <sweep.ini>\n"
               "       %s stats HOST:PORT [--json | --prom] [--watch SEC]\n"
               "       %s search [--threads N] [--slo EXPR] [--budget N]\n"
               "          [--output JOURNAL.jsonl] [--resume] [--listen "
               "PORT]\n"
               "          [--lease N] [--lease-timeout SEC] [--linger SEC] "
               "<sweep.ini>\n"
               "       %s --version\n"
               "global: --log-level debug|info|warn|error|off (or "
               "ADAPTBF_LOG_LEVEL)\n"
               "exit codes: 0 success, 1 runtime/campaign error, 2 usage "
               "error (docs/sweep_cli.md)\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Usage errors name the problem AND reprint the synopsis — a bare error
/// string leaves the user grepping docs for the flag they half-remember.
int usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n", message.c_str());
  return usage(argv0);
}

/// `expected` names the flag's real constraint ("a positive integer",
/// "a port number (0-65535)", ...) so a value that IS an integer but
/// fails a range check gets accurate guidance.
int bad_number(const char* argv0, const char* flag, const char* expected,
               const char* value) {
  return usage_error(argv0, std::string(flag) + " needs " + expected +
                                ", got '" + value + "'");
}

/// HOST:PORT -> parts. Strict: a missing, zero, or out-of-range port (or
/// a bare host) is a usage error at the call site, never a default.
bool parse_endpoint(const std::string& endpoint, std::string& host,
                    std::uint32_t& port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  if (!parse_u32_arg(endpoint.c_str() + colon + 1, port) || port == 0 ||
      port > 0xffff)
    return false;
  host = endpoint.substr(0, colon);
  return true;
}

int print_version() {
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
int run_merge(int argc, char** argv) {
  const char* csv_path = nullptr;
  const char* json_path = nullptr;
  const char* merged_path = nullptr;
  const char* sweep_path = nullptr;
  std::vector<std::string> shard_paths;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      merged_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage_error(argv[0],
                         std::string("unknown merge option '") + argv[i] +
                             "'");
    } else if (sweep_path == nullptr) {
      sweep_path = argv[i];
    } else {
      shard_paths.emplace_back(argv[i]);
    }
  }
  if (sweep_path == nullptr)
    return usage_error(argv[0], "merge needs a <sweep.ini>");
  if (shard_paths.empty())
    return usage_error(argv[0],
                       "merge needs the shard journals to merge "
                       "(<shard.jsonl>...)");

  const LoadedSweep loaded =
      load_sweep_with_outputs(sweep_path, csv_path, json_path, merged_path);
  if (!loaded.ok()) return 1;
  const SweepSpec& sweep = loaded.sweep();
  const std::string& csv = loaded.csv;
  const std::string& json = loaded.json;
  const std::string& merged = loaded.jsonl;
  if (merged.empty())
    return usage_error(argv[0],
                       "merge needs a destination (--output PATH or an "
                       "[output] jsonl = line)");

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
int run_serve(int argc, char** argv) {
  std::uint32_t port = 0;
  bool port_given = false;
  std::uint32_t lease_size = 16;
  std::uint32_t lease_timeout_s = 30;
  std::uint32_t linger_s = 0;
  bool resume = false;
  const char* csv_path = nullptr;
  const char* json_path = nullptr;
  const char* jsonl_path = nullptr;
  const char* sweep_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], port) || port > 0xffff)
        return bad_number(argv[0], "--listen", "a port number (0-65535)", argv[i]);
      port_given = true;
    } else if (std::strcmp(argv[i], "--lease") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], lease_size) || lease_size == 0)
        return bad_number(argv[0], "--lease", "a positive integer", argv[i]);
    } else if (std::strcmp(argv[i], "--lease-timeout") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], lease_timeout_s) || lease_timeout_s == 0)
        return bad_number(argv[0], "--lease-timeout", "a positive number of seconds", argv[i]);
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], linger_s))
        return bad_number(argv[0], "--linger", "a number of seconds", argv[i]);
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (argv[i][0] == '-') {
      return usage_error(argv[0],
                         std::string("unknown serve option '") + argv[i] +
                             "'");
    } else if (sweep_path == nullptr) {
      sweep_path = argv[i];
    } else {
      return usage_error(argv[0], std::string("unexpected argument '") +
                                      argv[i] + "'");
    }
  }
  if (sweep_path == nullptr)
    return usage_error(argv[0], "serve needs a <sweep.ini>");
  if (!port_given)
    return usage_error(argv[0], "serve needs --listen PORT");

  const LoadedSweep loaded =
      load_sweep_with_outputs(sweep_path, csv_path, json_path, jsonl_path);
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
    return usage_error(argv[0],
                       "serve needs a journal (--output PATH or an "
                       "[output] jsonl = line) — the coordinator journals "
                       "every trial workers return");

  const std::vector<TrialSpec> trials = sweep.expand();
  DispatchCoordinator::Options options;
  options.port = static_cast<std::uint16_t>(port);
  options.lease_size = lease_size;
  options.lease_timeout_s = lease_timeout_s;
  options.linger_s = linger_s;
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
  DispatchCoordinator::Open opened =
      DispatchCoordinator::open(jsonl, sweep.name, trials, resume, options);
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
int run_work(int argc, char** argv) {
  std::uint32_t threads = 0;
  const char* connect = nullptr;
  const char* jsonl_path = nullptr;
  const char* sweep_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], threads))
        return bad_number(argv[0], "--threads", "a non-negative integer", argv[i]);
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage_error(argv[0],
                         std::string("unknown work option '") + argv[i] +
                             "'");
    } else if (sweep_path == nullptr) {
      sweep_path = argv[i];
    } else {
      return usage_error(argv[0], std::string("unexpected argument '") +
                                      argv[i] + "'");
    }
  }
  if (sweep_path == nullptr)
    return usage_error(argv[0], "work needs a <sweep.ini>");
  if (connect == nullptr)
    return usage_error(argv[0], "work needs --connect HOST:PORT");
  const std::string endpoint = connect;
  std::string host;
  std::uint32_t port = 0;
  if (!parse_endpoint(endpoint, host, port))
    return usage_error(argv[0], "--connect needs HOST:PORT, got '" +
                                    endpoint + "'");

  // The sweep file's [output] paths name the COORDINATOR's artifacts; a
  // worker's optional local journal comes only from its own --output.
  const LoadedSweep loaded =
      load_sweep_with_outputs(sweep_path, nullptr, nullptr, nullptr);
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
  options.threads = threads;
  if (jsonl_path != nullptr) options.journal_path = jsonl_path;
  options.on_trial_done = [](const TrialResult& result) {
    std::fprintf(stderr, "  trial %zu: %s / %s rep %u: %.1f MiB/s\n",
                 result.index, result.scenario.c_str(),
                 std::string(to_string(result.policy)).c_str(),
                 result.repetition, result.aggregate_mibps);
  };
  std::fprintf(stderr, "worker: sweep '%s' (%zu trials), coordinator %s\n",
               sweep.name.c_str(), trials.size(), endpoint.c_str());
  const DispatchWorkResult worked = run_dispatch_worker(
      host, static_cast<std::uint16_t>(port), sweep.name, trials, options);
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
int run_stats(int argc, char** argv) {
  const char* endpoint_arg = nullptr;
  std::string format = "json";
  std::uint32_t watch_s = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      format = "json";
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      format = "prom";
    } else if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], watch_s) || watch_s == 0)
        return bad_number(argv[0], "--watch", "a positive number of seconds",
                          argv[i]);
    } else if (argv[i][0] == '-') {
      return usage_error(argv[0], std::string("unknown stats option '") +
                                      argv[i] + "'");
    } else if (endpoint_arg == nullptr) {
      endpoint_arg = argv[i];
    } else {
      return usage_error(argv[0], std::string("unexpected argument '") +
                                      argv[i] + "'");
    }
  }
  if (endpoint_arg == nullptr)
    return usage_error(argv[0], "stats needs HOST:PORT");
  const std::string endpoint = endpoint_arg;
  std::string host;
  std::uint32_t port = 0;
  if (!parse_endpoint(endpoint, host, port))
    return usage_error(argv[0],
                       "stats needs HOST:PORT, got '" + endpoint + "'");

  TcpSocket::ConnectResult connected =
      TcpSocket::connect_to(host, static_cast<std::uint16_t>(port));
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
    if (watch_s == 0) return 0;
    std::this_thread::sleep_for(std::chrono::seconds(watch_s));
  }
}

/// `search` has its own synopsis: its usage errors reprint THIS, not the
/// seven-subcommand wall, so the user sees the flags that exist here.
int search_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s search [--threads N] [--slo EXPR] [--budget N]\n"
               "          [--output JOURNAL.jsonl] [--resume] [--listen "
               "PORT]\n"
               "          [--lease N] [--lease-timeout SEC] [--linger SEC] "
               "<sweep.ini>\n"
               "the sweep file needs a [search] section (docs/search.md); "
               "--slo EXPR\n"
               "(e.g. 'p99_ms<=250,jain>=0.9') overrides the file's slo = "
               "line and\n"
               "--budget its step budget. --listen fans probes out to "
               "`%s work`\n"
               "processes instead of running them in-process.\n",
               argv0, argv0);
  return 2;
}

int search_usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n", message.c_str());
  return search_usage(argv0);
}

/// `sweep_cli search`: run (or resume) a closed-loop search. Probes run
/// in-process by default; --listen turns this process into an adaptive
/// coordinator and fans them out to ordinary `work` processes.
int run_search_cmd(int argc, char** argv) {
  std::uint32_t threads = 0;
  std::uint32_t port = 0;
  bool port_given = false;
  std::uint32_t lease_size = 16;
  std::uint32_t lease_timeout_s = 30;
  std::uint32_t linger_s = 0;
  std::uint32_t budget = 0;
  bool budget_given = false;
  bool resume = false;
  const char* slo_flag = nullptr;
  const char* jsonl_path = nullptr;
  const char* sweep_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], threads))
        return search_usage_error(argv[0],
                                  std::string("--threads needs a "
                                              "non-negative integer, got '") +
                                      argv[i] + "'");
    } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
      slo_flag = argv[++i];
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], budget) || budget == 0)
        return search_usage_error(argv[0],
                                  std::string("--budget needs a positive "
                                              "integer, got '") +
                                      argv[i] + "'");
      budget_given = true;
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], port) || port > 0xffff)
        return search_usage_error(argv[0],
                                  std::string("--listen needs a port number "
                                              "(0-65535), got '") +
                                      argv[i] + "'");
      port_given = true;
    } else if (std::strcmp(argv[i], "--lease") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], lease_size) || lease_size == 0)
        return search_usage_error(argv[0],
                                  std::string("--lease needs a positive "
                                              "integer, got '") +
                                      argv[i] + "'");
    } else if (std::strcmp(argv[i], "--lease-timeout") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], lease_timeout_s) || lease_timeout_s == 0)
        return search_usage_error(argv[0],
                                  std::string("--lease-timeout needs a "
                                              "positive number of seconds, "
                                              "got '") +
                                      argv[i] + "'");
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], linger_s))
        return search_usage_error(argv[0],
                                  std::string("--linger needs a number of "
                                              "seconds, got '") +
                                      argv[i] + "'");
    } else if (argv[i][0] == '-') {
      return search_usage_error(argv[0],
                                std::string("unknown search option '") +
                                    argv[i] + "'");
    } else if (sweep_path == nullptr) {
      sweep_path = argv[i];
    } else {
      return search_usage_error(argv[0], std::string("unexpected argument '") +
                                             argv[i] + "'");
    }
  }
  if (sweep_path == nullptr)
    return search_usage_error(argv[0], "search needs a <sweep.ini>");

  const LoadedSweep loaded =
      load_sweep_with_outputs(sweep_path, nullptr, nullptr, jsonl_path);
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
                  /*require_slo=*/slo_flag == nullptr);
  if (!search_loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", search_loaded.error.c_str());
    return 1;
  }
  SearchSpec spec = *search_loaded.spec;
  if (slo_flag != nullptr) {
    const SloParseResult slo = parse_slo(slo_flag);
    if (!slo.ok())
      return search_usage_error(argv[0], "--slo: " + slo.error);
    spec.slo = slo.thresholds;
  }
  if (budget_given) spec.budget = budget;
  const std::string invalid = spec.validate(sweep);
  if (!invalid.empty()) {
    std::fprintf(stderr, "error: %s\n", invalid.c_str());
    return 1;
  }
  if (jsonl.empty())
    return search_usage_error(argv[0],
                              "search needs a journal (--output PATH or an "
                              "[output] jsonl = line) — every probe and "
                              "controller step is journaled there");

  // The probe grid: every trial any controller step could request,
  // pre-expanded. Workers expand the identical grid from the same file
  // (their hello's grid hash proves it).
  const SweepSpec probe = spec.probe_sweep(sweep);
  const std::vector<TrialSpec> trials = probe.expand();
  std::fprintf(stderr,
               "search '%s': %s over %s, %zu-rung ladder, budget %u "
               "(probe grid: %zu trials)\n",
               sweep.name.c_str(), search_controller_name(spec.controller),
               search_input_name(spec.input), spec.inputs().size(),
               spec.budget, trials.size());

  SearchDriverOptions options;
  options.on_step = [&spec](const SearchStepRow& row) {
    std::fprintf(stderr, "  step %u [%s] %s=%s verdict=%s bracket=%s\n",
                 row.step, row.test_stage ? "test" : "adjust",
                 search_input_name(spec.input), json_num(row.input).c_str(),
                 verdict_name(row.verdict), json_num(row.bracket).c_str());
  };

  DispatchCoordinator::Open opened;
  std::unique_ptr<ProbeExecutor> executor;
  if (port_given) {
    DispatchCoordinator::Options coord;
    coord.port = static_cast<std::uint16_t>(port);
    coord.lease_size = lease_size;
    coord.lease_timeout_s = lease_timeout_s;
    coord.linger_s = linger_s;
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
    executor = make_local_probe_executor(trials, threads, nullptr);
  }

  const SearchOutcome outcome =
      run_search(spec, sweep.name, trials, jsonl, resume, *executor, options);
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
  line += json_quote(search_input_name(spec.input));
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
                 search_input_name(spec.input),
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

}  // namespace

int main(int argc, char** argv) {
  // Logging config first, so every subcommand (and load error) honors it.
  // Env is the fallback; an explicit --log-level (valid anywhere on the
  // command line, stripped before subcommand parsing) wins.
  if (!init_log_level_from_env())
    std::fprintf(stderr,
                 "warning: ignoring ADAPTBF_LOG_LEVEL (expected debug|info|"
                 "warn|error|off)\n");
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log-level") == 0) {
      if (i + 1 >= argc)
        return usage_error(argv[0],
                           "--log-level needs debug|info|warn|error|off");
      const auto level = log_level_from_name(argv[++i]);
      if (!level)
        return usage_error(
            argv[0],
            std::string("--log-level needs debug|info|warn|error|off, "
                        "got '") +
                argv[i] + "'");
      set_log_level(*level);
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc > 1 && std::strcmp(argv[1], "--version") == 0)
    return print_version();
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0)
    return run_merge(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
    return run_serve(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "work") == 0)
    return run_work(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "stats") == 0)
    return run_stats(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "search") == 0)
    return run_search_cmd(argc, argv);

  std::uint32_t threads = 0;
  bool list_only = false;
  bool resume = false;
  ShardRef shard;
  bool shard_index_given = false;
  bool shard_count_given = false;
  const char* csv_path = nullptr;
  const char* json_path = nullptr;
  const char* jsonl_path = nullptr;
  const char* sweep_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], threads))
        return bad_number(argv[0], "--threads", "a non-negative integer", argv[i]);
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shard-index") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], shard.index))
        return bad_number(argv[0], "--shard-index", "a non-negative integer", argv[i]);
      shard_index_given = true;
    } else if (std::strcmp(argv[i], "--shard-count") == 0 && i + 1 < argc) {
      if (!parse_u32_arg(argv[++i], shard.count))
        return bad_number(argv[0], "--shard-count", "a non-negative integer", argv[i]);
      shard_count_given = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else if (argv[i][0] == '-') {
      return usage_error(argv[0],
                         std::string("unknown option '") + argv[i] + "'");
    } else {
      sweep_path = argv[i];
    }
  }
  if (sweep_path == nullptr) return usage(argv[0]);
  if (shard_index_given != shard_count_given) {
    // Half a shard identity would default the other half and silently run
    // the wrong slice (or the whole campaign).
    return usage_error(argv[0],
                       "--shard-index and --shard-count must be given "
                       "together");
  }
  if (shard_index_given) {
    const std::string shard_error = shard_ref_error(shard);
    if (!shard_error.empty()) return usage_error(argv[0], shard_error);
  }

  const LoadedSweep loaded =
      load_sweep_with_outputs(sweep_path, csv_path, json_path, jsonl_path);
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
  if (resume && jsonl.empty())
    return usage_error(argv[0],
                       "--resume needs a journal (--output PATH or an "
                       "[output] jsonl = line)");
  if (shard.sharded() && jsonl.empty() && !list_only)
    return usage_error(argv[0],
                       "a sharded run needs a journal base (--output PATH "
                       "or an [output] jsonl = line); the shard writes "
                       "PATH.shard-" + std::to_string(shard.index) +
                       "-of-" + std::to_string(shard.count));

  const std::vector<TrialSpec> all_trials = sweep.expand();
  // Everything below runs the shard's slice. Unsharded runs alias the
  // full grid instead of copying it through a {0, 1} plan — materialized
  // TrialSpecs are the dominant spec memory on large campaigns.
  const ShardPlan plan =
      shard.sharded() ? plan_shard(all_trials, shard) : ShardPlan{};
  const std::vector<TrialSpec>& trials =
      shard.sharded() ? plan.trials : all_trials;
  std::fprintf(stderr,
               "sweep '%s': %zu scenario(s) x %zu policy(ies) x %u seed(s) "
               "=> %zu trials\n",
               sweep.name.c_str(), sweep.scenarios.size(),
               sweep.policies.size(), sweep.repetitions, all_trials.size());
  if (shard.sharded())
    std::fprintf(stderr, "shard %s: %zu of %zu trials\n", shard.str().c_str(),
                 trials.size(), all_trials.size());

  if (list_only) {
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
    if (!resume && !scan.fresh) {
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
      const SweepRunner runner(runner_options(threads, opened.sink.get()));
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
  if (shard.sharded()) {
    // Unreachable (sharded runs require a journal); kept as a guard for
    // future flag plumbing.
    std::fprintf(stderr, "error: sharded runs require --output\n");
    return 2;
  }
  const SweepRunner runner(runner_options(threads, nullptr));
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
