#include "sweep/dispatch.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "support/log.h"
#include "sweep/resume.h"
#include "sweep/sweep_runner.h"

namespace adaptbf {

namespace dispatch_wire {

namespace {

std::string envelope(const char* type) {
  std::string out = "{\"adaptbf_dispatch\":";
  out += std::to_string(kDispatchProtocolVersion);
  out += ",\"type\":\"";
  out += type;
  out += '"';
  return out;
}

}  // namespace

std::string hello(const std::string& sweep, std::uint64_t grid_hash,
                  std::uint64_t trials) {
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, grid_hash);
  std::string out = envelope("hello");
  out += ",\"sweep\":";
  out += json_quote(sweep);
  out += ",\"grid_hash\":\"";
  out += hash;
  out += "\",\"trials\":";
  out += std::to_string(trials);
  out += '}';
  return out;
}

std::string welcome(std::uint32_t worker) {
  return envelope("welcome") + ",\"worker\":" + std::to_string(worker) + "}";
}

std::string error_msg(const std::string& message) {
  return envelope("error") + ",\"message\":" + json_quote(message) + "}";
}

std::string request() { return envelope("request") + "}"; }

std::string lease(std::uint64_t lease, std::span<const std::uint64_t> trials) {
  std::string out = envelope("lease");
  out += ",\"lease\":";
  out += std::to_string(lease);
  out += ",\"trials\":[";
  bool first = true;
  for (const std::uint64_t index : trials) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(index);
  }
  out += "]}";
  return out;
}

std::string wait() { return envelope("wait") + "}"; }

std::string result(std::uint64_t lease, std::string_view row) {
  std::string out = envelope("result");
  out += ",\"lease\":";
  out += std::to_string(lease);
  out += ",\"row\":";
  out += row;
  out += '}';
  return out;
}

std::string heartbeat() { return envelope("heartbeat") + "}"; }

std::string heartbeat_counters(std::uint64_t trials_done,
                               double runtime_ewma_ms) {
  std::string out = envelope("heartbeat");
  out += ",\"trials_done\":";
  out += std::to_string(trials_done);
  out += ",\"runtime_ewma_ms\":";
  out += json_num_exact(runtime_ewma_ms);
  out += '}';
  return out;
}

std::string done() { return envelope("done") + "}"; }

std::string stats_request(const std::string& format) {
  std::string out = envelope("stats");
  out += ",\"stats_version\":";
  out += std::to_string(kStatsVersion);
  out += ",\"format\":";
  out += json_quote(format);
  out += '}';
  return out;
}

std::string stats_reply(std::string_view body) {
  std::string out = envelope("stats_reply");
  out += ",\"stats_version\":";
  out += std::to_string(kStatsVersion);
  out += ",\"body\":";
  out += json_quote(body);
  out += '}';
  return out;
}

bool parse(std::string_view payload, Message& out) {
  JsonCursor c(payload);
  out = Message{};
  if (!json_lit(c, "{\"adaptbf_dispatch\":") ||
      !json_parse_u32(c, out.version))
    return false;
  if (out.version != kDispatchProtocolVersion) {
    // A future (or past) generation: the envelope is recognizable but the
    // content is not ours to interpret. Parsed "successfully" so the
    // receiver rejects the VERSION by name, not the bytes as garbage.
    out.type = Message::Type::kForeignVersion;
    return true;
  }
  std::string type;
  if (!json_lit(c, ",\"type\":") || !json_parse_string(c, type)) return false;
  if (type == "hello") {
    out.type = Message::Type::kHello;
    if (!json_lit(c, ",\"sweep\":") || !json_parse_string(c, out.sweep))
      return false;
    if (!json_lit(c, ",\"grid_hash\":\"") ||
        !json_parse_hash16(c, out.grid_hash))
      return false;
    if (!json_lit(c, "\",\"trials\":") || !json_parse_u64(c, out.trials))
      return false;
  } else if (type == "welcome") {
    out.type = Message::Type::kWelcome;
    if (!json_lit(c, ",\"worker\":") || !json_parse_u32(c, out.worker))
      return false;
  } else if (type == "error") {
    out.type = Message::Type::kError;
    if (!json_lit(c, ",\"message\":") || !json_parse_string(c, out.message))
      return false;
  } else if (type == "request") {
    out.type = Message::Type::kRequest;
  } else if (type == "lease") {
    out.type = Message::Type::kLease;
    if (!json_lit(c, ",\"lease\":") || !json_parse_u64(c, out.lease))
      return false;
    if (!json_lit(c, ",\"trials\":[")) return false;
    bool first = true;
    while (!json_lit(c, "]")) {
      if (!first && !json_lit(c, ",")) return false;
      first = false;
      std::uint64_t index = 0;
      if (!json_parse_u64(c, index)) return false;
      out.indices.push_back(index);
    }
  } else if (type == "wait") {
    out.type = Message::Type::kWait;
  } else if (type == "result") {
    out.type = Message::Type::kResult;
    if (!json_lit(c, ",\"lease\":") || !json_parse_u64(c, out.lease))
      return false;
    if (!json_lit(c, ",\"row\":")) return false;
    // The row rides as verbatim bytes: everything up to the envelope's
    // closing brace. Semantic validation (trial_from_jsonl, grid match)
    // is the coordinator's job; here only the bracketing is checked.
    const std::size_t remaining = static_cast<std::size_t>(c.end - c.p);
    if (remaining < 3 || *c.p != '{' || c.end[-2] != '}') return false;
    out.row.assign(c.p, remaining - 1);
    c.p = c.end - 1;
  } else if (type == "heartbeat") {
    out.type = Message::Type::kHeartbeat;
    // Counters payload is optional: a bare heartbeat (the pre-telemetry
    // form, still emitted before a worker's first flush) closes here.
    if (json_lit(c, ",\"trials_done\":")) {
      if (!json_parse_u64(c, out.trials_done)) return false;
      if (!json_lit(c, ",\"runtime_ewma_ms\":") ||
          !json_parse_double_or_null(c, out.runtime_ewma_ms))
        return false;
      out.has_counters = true;
    }
  } else if (type == "done") {
    out.type = Message::Type::kDone;
  } else if (type == "stats") {
    out.type = Message::Type::kStats;
    if (!json_lit(c, ",\"stats_version\":") ||
        !json_parse_u32(c, out.stats_version))
      return false;
    if (out.stats_version != kStatsVersion) {
      // Foreign stats generation: the rest of the payload is not ours to
      // interpret (same stance as kForeignVersion). Parsed "successfully"
      // so the coordinator rejects the stats VERSION by name.
      c.p = c.end;
      return true;
    }
    if (!json_lit(c, ",\"format\":") || !json_parse_string(c, out.format))
      return false;
  } else if (type == "stats_reply") {
    out.type = Message::Type::kStatsReply;
    if (!json_lit(c, ",\"stats_version\":") ||
        !json_parse_u32(c, out.stats_version))
      return false;
    if (out.stats_version != kStatsVersion) {
      c.p = c.end;
      return true;
    }
    if (!json_lit(c, ",\"body\":") || !json_parse_string(c, out.body))
      return false;
  } else {
    return false;
  }
  if (!json_lit(c, "}")) return false;
  return c.done();
}

}  // namespace dispatch_wire

// ------------------------------------------------------------ coordinator

namespace {

using Clock = std::chrono::steady_clock;

/// One connected worker (or would-be worker: connections start anonymous
/// and must hello before anything else).
struct Conn {
  TcpSocket socket;
  FrameReader reader;
  std::uint32_t id = 0;
  bool helloed = false;
  /// Sent `wait`; gets a lease pushed as soon as one frees up.
  bool waiting = false;
  std::int64_t lease_id = -1;  ///< Active lease; -1 = none.
  Clock::time_point last_activity;
  bool dead = false;  ///< Marked for eviction at the end of the round.
  /// Per-worker series (created at hello, labeled worker="<id>").
  Counter* rows_metric = nullptr;
  Counter* dup_metric = nullptr;
  Gauge* trials_done_metric = nullptr;
  Gauge* runtime_ewma_metric = nullptr;
};

/// Prometheus label body for one worker's series.
std::string worker_label(std::uint32_t id) {
  return "worker=\"" + std::to_string(id) + "\"";
}

struct LeaseState {
  std::vector<std::size_t> remaining;  ///< Undelivered trial indices.
};

}  // namespace

struct DispatchCoordinator::Impl {
  std::string journal_path;
  std::string sweep_name;
  std::span<const TrialSpec> trials;
  std::uint64_t grid_hash = 0;
  Options options;
  TcpListener listener;
  /// Declared before `sink`: the sink holds counter refs into the
  /// registry, so member destruction order (reverse of declaration) must
  /// tear the sink down first.
  MetricRegistry metrics;
  std::unique_ptr<JsonlTrialSink> sink;

  std::vector<bool> have;
  std::size_t rows_done = 0;  ///< Journaled trials, resumed rows included.
  /// Adaptive mode (open_adaptive): no sink, no fixed work list. Rows are
  /// collected in memory for serve_trials() instead of journaled, and the
  /// campaign never "completes" on its own — finish() ends it.
  bool adaptive = false;
  std::map<std::size_t, std::string> collected;  ///< Adaptive: raw row bytes.
  std::deque<std::vector<std::size_t>> queue;
  std::map<std::uint64_t, LeaseState> leases;
  std::uint64_t next_lease_id = 1;
  std::uint32_t next_worker_id = 1;
  std::vector<std::unique_ptr<Conn>> conns;
  std::atomic<bool> stop{false};
  DispatchServeResult stats;
  Clock::time_point serve_start{};

  // Fleet-wide series, resolved once in open(). Counters are cumulative
  // over the serve; gauges are refreshed from coordinator state at each
  // stats poll (refresh_gauges).
  Counter* rows_journaled_metric = nullptr;
  Counter* rows_duplicate_metric = nullptr;
  Counter* leases_granted_metric = nullptr;
  Counter* leases_reclaimed_metric = nullptr;
  Counter* workers_seen_metric = nullptr;
  Counter* frames_metric = nullptr;
  Counter* rx_bytes_metric = nullptr;
  Gauge* rows_done_gauge = nullptr;
  Gauge* trials_total_gauge = nullptr;
  Gauge* leases_outstanding_gauge = nullptr;
  Gauge* workers_connected_gauge = nullptr;
  Gauge* uptime_gauge = nullptr;
  Gauge* rows_per_sec_gauge = nullptr;

  void init_metrics() {
    rows_journaled_metric = &metrics.counter(kMetricDispatchRowsJournaled);
    rows_duplicate_metric = &metrics.counter(kMetricDispatchRowsDuplicate);
    leases_granted_metric = &metrics.counter(kMetricDispatchLeasesGranted);
    leases_reclaimed_metric = &metrics.counter(kMetricDispatchLeasesReclaimed);
    workers_seen_metric = &metrics.counter(kMetricDispatchWorkersSeen);
    frames_metric = &metrics.counter(kMetricDispatchFramesReceived);
    rx_bytes_metric = &metrics.counter(kMetricDispatchRxBytes);
    rows_done_gauge = &metrics.gauge(kMetricDispatchRowsDone);
    trials_total_gauge = &metrics.gauge(kMetricDispatchTrialsTotal);
    leases_outstanding_gauge = &metrics.gauge(kMetricDispatchLeasesOutstanding);
    workers_connected_gauge = &metrics.gauge(kMetricDispatchWorkersConnected);
    uptime_gauge = &metrics.gauge(kMetricDispatchUptime);
    rows_per_sec_gauge = &metrics.gauge(kMetricDispatchRowsPerSec);
  }

  [[nodiscard]] std::uint32_t workers_connected() const {
    std::uint32_t connected = 0;
    for (const auto& conn : conns)
      if (!conn->dead && conn->helloed) ++connected;
    return connected;
  }

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - serve_start).count();
  }

  /// Re-derives the gauge series from coordinator state. Called at each
  /// stats poll, never on the row hot path — gauges are projections of
  /// state the coordinator already tracks.
  void refresh_gauges() {
    rows_done_gauge->set(static_cast<double>(rows_done));
    trials_total_gauge->set(static_cast<double>(trials.size()));
    leases_outstanding_gauge->set(static_cast<double>(leases.size()));
    workers_connected_gauge->set(static_cast<double>(workers_connected()));
    const double elapsed = elapsed_s();
    uptime_gauge->set(elapsed);
    // Serve-average delivery rate: rows journaled by THIS serve over its
    // lifetime (resumed rows excluded — they predate the serve).
    rows_per_sec_gauge->set(
        elapsed > 0 ? static_cast<double>(stats.rows_received) / elapsed : 0.0);
  }

  /// The `stats` endpoint body. "prom" is the registry rendered as a
  /// Prometheus scrape; "json" wraps the registry snapshot in a top-level
  /// summary object (schema: docs/observability.md) so shell consumers
  /// can grep one key instead of walking the metric array.
  [[nodiscard]] std::string render_stats(const std::string& format) {
    refresh_gauges();
    const MetricsSnapshot snap = metrics.snapshot();
    if (format == "prom") return snap.to_prometheus();
    std::string out = "{\"adaptbf_stats\":1,\"sweep\":";
    out += json_quote(sweep_name);
    out += ",\"complete\":";
    out += rows_done == trials.size() ? "true" : "false";
    out += ",\"trials\":";
    out += std::to_string(trials.size());
    out += ",\"rows_done\":";
    out += std::to_string(rows_done);
    out += ",\"rows_received\":";
    out += std::to_string(stats.rows_received);
    out += ",\"duplicate_rows\":";
    out += std::to_string(stats.duplicate_rows);
    out += ",\"workers_connected\":";
    out += std::to_string(workers_connected());
    out += ",\"workers_seen\":";
    out += std::to_string(stats.workers_seen);
    out += ",\"leases_outstanding\":";
    out += std::to_string(leases.size());
    out += ",\"leases_granted\":";
    out += std::to_string(stats.leases_granted);
    out += ",\"leases_reclaimed\":";
    out += std::to_string(stats.leases_reclaimed);
    out += ",\"elapsed_s\":";
    out += json_num_exact(elapsed_s());
    out += ",\"rows_per_s\":";
    out += json_num_exact(rows_per_sec_gauge->value());
    out += ",\"registry\":";
    out += snap.to_json();
    out += '}';
    return out;
  }

  void evict(Conn& conn) {
    if (conn.dead) return;
    conn.dead = true;
    reclaim(conn);
    conn.socket.close();
  }

  void reject(Conn& conn, const std::string& message) {
    ADAPTBF_LOG_WARN("dispatch", "rejecting connection: %s", message.c_str());
    (void)write_frame(conn.socket, dispatch_wire::error_msg(message));
    evict(conn);
  }

  /// Returns a dead/evicted worker's undelivered trials to the queue.
  void reclaim(Conn& conn) {
    if (conn.lease_id < 0) return;
    const std::uint64_t lease_id = static_cast<std::uint64_t>(conn.lease_id);
    auto it = leases.find(lease_id);
    conn.lease_id = -1;
    if (it == leases.end()) return;
    // Drop trials the journal already has: other workers (or non-owner
    // deliveries) may have journaled this lease's trials while its owner
    // was silent. Filtering BEFORE the requeue decision keeps a
    // reclaimed-then-completed lease from counting as reclaimed work —
    // its rows sit in `rows_done` (and possibly `duplicates`) already,
    // and requeueing them would only mint more duplicates.
    std::erase_if(it->second.remaining,
                  [&](std::size_t index) { return have[index]; });
    if (!it->second.remaining.empty()) {
      ADAPTBF_LOG_INFO("dispatch", "reclaiming lease %llu (%zu trials re-queued)",
                       static_cast<unsigned long long>(lease_id),
                       it->second.remaining.size());
      queue.push_back(std::move(it->second.remaining));
      ++stats.leases_reclaimed;
      leases_reclaimed_metric->inc();
    }
    leases.erase(it);
  }

  /// Hands `conn` the next work unit, or parks it (`wait`) when all
  /// remaining trials are leased out elsewhere.
  void grant_or_wait(Conn& conn) {
    // Drop trials that arrived (via duplicates/re-leases) since the chunk
    // was queued; skip chunks that emptied entirely.
    while (!queue.empty()) {
      auto& chunk = queue.front();
      std::erase_if(chunk, [&](std::size_t i) { return have[i]; });
      if (!chunk.empty()) break;
      queue.pop_front();
    }
    if (queue.empty()) {
      conn.waiting = true;
      if (!write_frame(conn.socket, dispatch_wire::wait())) evict(conn);
      return;
    }
    std::vector<std::size_t> chunk = std::move(queue.front());
    queue.pop_front();
    const std::uint64_t id = next_lease_id++;
    std::vector<std::uint64_t> indices(chunk.begin(), chunk.end());
    leases[id].remaining = std::move(chunk);
    conn.lease_id = static_cast<std::int64_t>(id);
    conn.waiting = false;
    if (!write_frame(conn.socket, dispatch_wire::lease(id, indices))) {
      evict(conn);  // reclaim() re-queues the chunk.
      return;
    }
    ++stats.leases_granted;
    leases_granted_metric->inc();
    ADAPTBF_LOG_DEBUG("dispatch", "lease %llu (%zu trials) -> worker %u",
                      static_cast<unsigned long long>(id), indices.size(),
                      conn.id);
  }

  /// Pushes freed leases to parked workers (after reclaims/completions).
  void dispatch_to_waiting() {
    for (auto& conn : conns) {
      if (queue.empty()) return;
      if (!conn->dead && conn->helloed && conn->waiting) grant_or_wait(*conn);
    }
  }

  /// Handles one complete frame from `conn`. May evict it.
  void handle_frame(Conn& conn, std::string_view payload) {
    dispatch_wire::Message msg;
    if (!dispatch_wire::parse(payload, msg)) {
      reject(conn, "malformed dispatch message");
      return;
    }
    conn.last_activity = Clock::now();
    using Type = dispatch_wire::Message::Type;
    switch (msg.type) {
      case Type::kForeignVersion:
        reject(conn, "protocol version mismatch: coordinator speaks " +
                         std::to_string(kDispatchProtocolVersion) +
                         ", peer sent " + std::to_string(msg.version) +
                         " (mixed sweep_cli builds?)");
        return;
      case Type::kHello: {
        if (conn.helloed) {
          reject(conn, "duplicate hello");
          return;
        }
        if (msg.sweep != sweep_name) {
          reject(conn, "coordinator serves sweep '" + sweep_name +
                           "', worker expanded '" + msg.sweep + "'");
          return;
        }
        if (msg.grid_hash != grid_hash || msg.trials != trials.size()) {
          reject(conn,
                 "worker expanded a different campaign grid (sweep file "
                 "differs between the two machines? re-distribute it)");
          return;
        }
        conn.helloed = true;
        conn.id = next_worker_id++;
        ++stats.workers_seen;
        workers_seen_metric->inc();
        // Per-worker series. create-or-get: a worker id is never reused
        // within one serve, but labels survive the worker (a dead
        // worker's totals stay visible in scrapes).
        const std::string label = worker_label(conn.id);
        conn.rows_metric = &metrics.counter(kMetricWorkerRows, label);
        conn.dup_metric = &metrics.counter(kMetricWorkerDuplicates, label);
        conn.trials_done_metric =
            &metrics.gauge(kMetricWorkerTrialsDone, label);
        conn.runtime_ewma_metric =
            &metrics.gauge(kMetricWorkerRuntimeEwma, label);
        ADAPTBF_LOG_INFO("dispatch", "worker %u joined sweep '%s'", conn.id,
                         sweep_name.c_str());
        if (!write_frame(conn.socket, dispatch_wire::welcome(conn.id)))
          evict(conn);
        return;
      }
      case Type::kRequest:
        if (!conn.helloed || conn.lease_id >= 0) {
          reject(conn, conn.helloed ? "request while holding a lease"
                                    : "request before hello");
          return;
        }
        // Adaptive mode has no fixed finish line — workers park on `wait`
        // between batches until finish() releases them.
        if (!adaptive && rows_done == trials.size()) {
          (void)write_frame(conn.socket, dispatch_wire::done());
          evict(conn);
          return;
        }
        grant_or_wait(conn);
        return;
      case Type::kResult: {
        if (!conn.helloed) {
          reject(conn, "result before hello");
          return;
        }
        TrialResult row;
        if (!trial_from_jsonl(msg.row, row) ||
            !trial_row_matches(row, trials)) {
          reject(conn, "result row does not match the campaign grid");
          return;
        }
        if (have[row.index]) {
          // Re-delivery of a trial another worker (or a previous serve)
          // already journaled. Rows are deterministic, so the copies are
          // byte-identical; count and discard — same stance as the
          // resume scanner on duplicate journal lines.
          ++stats.duplicate_rows;
          rows_duplicate_metric->inc();
          if (conn.dup_metric != nullptr) conn.dup_metric->inc();
        } else {
          if (adaptive)
            collected[row.index] = msg.row;  // Caller journals; exact bytes.
          else
            sink->append(row);  // Throws on I/O failure; serve() catches.
          have[row.index] = true;
          ++rows_done;
          ++stats.rows_received;
          rows_journaled_metric->inc();
          if (conn.rows_metric != nullptr) conn.rows_metric->inc();
          if (options.on_progress)
            options.on_progress(rows_done, trials.size());
        }
        // Retire the index ONLY from the sender's own lease. Honoring
        // msg.lease unchecked would let a peer (anyone with the sweep
        // file can forge valid rows) name another live worker's lease id,
        // empty it, and leave that honest worker holding a dangling
        // lease_id — evicted at its next request. A non-owner's valid row
        // is still journaled above; the true owner's later copy is just a
        // counted duplicate and its lease retires on its own deliveries.
        if (conn.lease_id >= 0 &&
            static_cast<std::uint64_t>(conn.lease_id) == msg.lease) {
          auto it = leases.find(msg.lease);
          if (it != leases.end()) {
            std::erase(it->second.remaining, row.index);
            if (it->second.remaining.empty()) {
              leases.erase(it);
              conn.lease_id = -1;
            }
          }
        }
        return;
      }
      case Type::kHeartbeat:
        // Liveness only counts for workers that proved their identity —
        // an anonymous connection heartbeating would dodge the silence
        // sweep and hold its fd + poll slot forever.
        if (!conn.helloed) {
          reject(conn, "heartbeat before hello");
          return;
        }
        if (msg.has_counters) {
          // Worker self-reports feed per-worker GAUGES only. Fleet row
          // totals always derive from coordinator-side journaling; summing
          // worker counters would double-count re-leased work.
          conn.trials_done_metric->set(static_cast<double>(msg.trials_done));
          conn.runtime_ewma_metric->set(msg.runtime_ewma_ms);
        }
        return;  // last_activity is already refreshed.
      case Type::kStats: {
        // Stats polls are welcome from anyone, hello or not — a monitor
        // never joins the campaign — and repeatable on one connection.
        if (msg.stats_version != kStatsVersion) {
          reject(conn, "stats version mismatch: coordinator speaks " +
                           std::to_string(kStatsVersion) + ", client sent " +
                           std::to_string(msg.stats_version));
          return;
        }
        if (msg.format != "json" && msg.format != "prom") {
          reject(conn, "unknown stats format '" + msg.format +
                           "' (expected \"json\" or \"prom\")");
          return;
        }
        const std::string body = render_stats(msg.format);
        if (!write_frame(conn.socket, dispatch_wire::stats_reply(body)))
          evict(conn);
        return;
      }
      case Type::kWelcome:
      case Type::kLease:
      case Type::kWait:
      case Type::kDone:
      case Type::kError:
      case Type::kStatsReply:
        reject(conn, "coordinator-only message from a worker");
        return;
    }
  }

  /// Goodbye protocol for every surviving HELLOED connection: send
  /// `done`, half-close, drain each peer to EOF (bounded). A straight
  /// close() would race the worker's in-flight request/heartbeat: that
  /// write would draw an RST flushing the unread `done` from the worker's
  /// receive queue, turning a fully successful worker into a spurious
  /// "lost connection" exit. Anonymous connections (stats monitors,
  /// probes) are left untouched.
  void release_workers() {
    for (auto& conn : conns) {
      if (conn->dead || !conn->helloed) continue;
      (void)write_frame(conn->socket, dispatch_wire::done());
      conn->socket.shutdown_write();
    }
    const auto drain_deadline = Clock::now() + std::chrono::seconds(2);
    for (auto& conn : conns) {
      if (conn->dead || !conn->helloed) continue;
      char discard[4096];
      while (Clock::now() < drain_deadline) {
        pollfd pfd{conn->socket.fd(), POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0) continue;
        if (conn->socket.recv_some(discard, sizeof(discard)) <= 0) break;
      }
      // Campaign is over (or the serve is stopping): nothing to reclaim,
      // just drop the connection.
      conn->dead = true;
      conn->socket.close();
    }
    std::erase_if(conns, [](const std::unique_ptr<Conn>& conn) {
      return conn->dead;
    });
  }

  /// One accept/read/sweep/dispatch round: poll (<= 50 ms), accept new
  /// connections, drain complete frames, drop silent connections, erase
  /// the dead, and push freed leases to parked workers. The body of both
  /// serve modes; throws on poll or journal I/O failure.
  void poll_round(std::chrono::duration<double> lease_timeout) {
    std::vector<pollfd> fds;
    fds.reserve(conns.size() + 1);
    fds.push_back({listener.fd(), POLLIN, 0});
    for (const auto& conn : conns)
      fds.push_back({conn->socket.fd(), POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), /*timeout=*/50);
    if (ready < 0 && errno != EINTR)
      throw std::runtime_error("dispatch poll failed");

    if (fds[0].revents & POLLIN) {
      TcpSocket accepted = listener.accept_one();
      if (accepted.valid()) {
        auto conn = std::make_unique<Conn>();
        conn->socket = std::move(accepted);
        conn->last_activity = Clock::now();
        conns.push_back(std::move(conn));
      }
    }

    // fds[1 + i] is conns[i]; connections accepted above aren't in
    // fds yet and get their first read next round.
    for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
      Conn& conn = *conns[i];
      if (conn.dead || !(fds[i + 1].revents & (POLLIN | POLLHUP))) continue;
      char buffer[64 * 1024];
      const long got = conn.socket.recv_some(buffer, sizeof(buffer));
      if (got <= 0) {
        evict(conn);  // EOF or error: a dead worker's lease re-queues.
        continue;
      }
      rx_bytes_metric->inc(static_cast<std::uint64_t>(got));
      conn.reader.feed(buffer, static_cast<std::size_t>(got));
      std::string payload, frame_error;
      for (;;) {
        if (conn.dead) break;
        const FrameReader::Status status =
            conn.reader.next(payload, frame_error);
        if (status == FrameReader::Status::kNeedMore) break;
        if (status == FrameReader::Status::kBad) {
          reject(conn, frame_error);
          break;
        }
        frames_metric->inc();
        handle_frame(conn, payload);
      }
    }

    // Silence sweep: ANY connection that has sent nothing for the
    // timeout is dropped (and a held lease re-queued). Workers
    // heartbeat for their whole lifetime — hello through done — at a
    // cadence well under the timeout, so this only trips genuinely
    // hung/dead workers and strangers (port scanners, health probes)
    // that would otherwise hold an fd and a poll slot forever.
    const auto now = Clock::now();
    for (auto& conn : conns) {
      if (!conn->dead && now - conn->last_activity > lease_timeout) {
        ADAPTBF_LOG_WARN("dispatch",
                         "connection silent past the %.1fs lease timeout "
                         "(worker %u); dropping it",
                         lease_timeout.count(), conn->id);
        evict(*conn);
      }
    }

    std::erase_if(conns, [](const std::unique_ptr<Conn>& conn) {
      return conn->dead;
    });
    dispatch_to_waiting();
  }

  [[nodiscard]] std::chrono::duration<double> lease_timeout() const {
    return std::chrono::duration<double>(
        options.lease_timeout_s > 0 ? options.lease_timeout_s : 30.0);
  }

  DispatchServeResult serve() {
    stats = DispatchServeResult{};
    serve_start = Clock::now();
    const auto timeout = lease_timeout();
    Clock::time_point linger_deadline{};
    try {
      while (!stop.load(std::memory_order_relaxed)) {
        if (rows_done == trials.size()) {
          if (!stats.complete) {
            // Completion edge: release the fleet immediately, then keep
            // the listener alive for linger_s so scrapers (and the CI
            // smoke) can poll the FINAL totals.
            stats.complete = true;
            linger_deadline =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       options.linger_s > 0 ? options.linger_s
                                                            : 0.0));
            ADAPTBF_LOG_INFO(
                "dispatch",
                "campaign complete: %zu rows journaled, %zu duplicates",
                stats.rows_received, stats.duplicate_rows);
            release_workers();
          }
          if (Clock::now() >= linger_deadline) break;
        }
        poll_round(timeout);
      }
    } catch (const std::exception& e) {
      stats.error = e.what();
    }

    // Tell every surviving worker the campaign is over (or the serve is
    // stopping); then make the journal durable. A stopped or failed serve
    // still leaves a valid journal — resume continues it. On the
    // completion path this is a no-op: workers were already released at
    // the completion edge, before the linger.
    release_workers();
    conns.clear();  // Conn destructors close the monitors' sockets.
    // A worker connecting from here on would park in the accept backlog
    // with nobody to answer it; closing refuses it instead.
    listener.close();
    if (sink != nullptr && stats.error.empty()) {
      try {
        sink->flush();
      } catch (const std::exception& e) {
        stats.error = e.what();
      }
    }
    return stats;
  }

  /// Adaptive mode: lease out exactly `indices` (the not-yet-collected
  /// ones), block until every requested row arrived, and hand back the
  /// exact bytes in request order. Workers stay parked afterwards.
  std::string serve_trials(const std::vector<std::size_t>& indices,
                           std::vector<std::string>& rows_out) {
    rows_out.clear();
    for (const std::size_t index : indices)
      if (index >= trials.size())
        return "serve_trials: trial index " + std::to_string(index) +
               " outside the probe grid";
    // Queue only the missing ones, in index order, lease_size per chunk.
    std::vector<std::size_t> todo;
    for (const std::size_t index : indices)
      if (!have[index]) todo.push_back(index);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    std::vector<std::size_t> chunk;
    for (const std::size_t index : todo) {
      chunk.push_back(index);
      if (chunk.size() == options.lease_size) {
        queue.push_back(std::move(chunk));
        chunk.clear();
      }
    }
    if (!chunk.empty()) queue.push_back(std::move(chunk));

    const auto timeout = lease_timeout();
    try {
      dispatch_to_waiting();
      for (;;) {
        bool missing = false;
        for (const std::size_t index : todo)
          if (!have[index]) { missing = true; break; }
        if (!missing) break;
        if (stop.load(std::memory_order_relaxed))
          return "serve_trials: stopped before the batch completed";
        poll_round(timeout);
      }
    } catch (const std::exception& e) {
      return e.what();
    }
    rows_out.reserve(indices.size());
    for (const std::size_t index : indices)
      rows_out.push_back(collected.at(index));
    return "";
  }

  /// Adaptive mode: end of the search — release the fleet, then keep the
  /// listener answering stats polls for linger_s.
  void finish() {
    release_workers();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.linger_s > 0 ? options.linger_s : 0.0));
    const auto timeout = lease_timeout();
    try {
      while (!stop.load(std::memory_order_relaxed) && Clock::now() < deadline)
        poll_round(timeout);
    } catch (const std::exception&) {
      // Linger is best-effort; the search result is already decided.
    }
    release_workers();
    conns.clear();
    listener.close();  // Refuse late workers, as serve() does.
  }
};

DispatchCoordinator::DispatchCoordinator() : impl_(new Impl) {}
DispatchCoordinator::~DispatchCoordinator() = default;

std::uint16_t DispatchCoordinator::port() const {
  return impl_->listener.port();
}

void DispatchCoordinator::request_stop() {
  impl_->stop.store(true, std::memory_order_relaxed);
}

DispatchServeResult DispatchCoordinator::serve() { return impl_->serve(); }

std::string DispatchCoordinator::serve_trials(
    const std::vector<std::size_t>& indices,
    std::vector<std::string>& rows_out) {
  return impl_->serve_trials(indices, rows_out);
}

void DispatchCoordinator::finish() { impl_->finish(); }

MetricRegistry& DispatchCoordinator::registry() { return impl_->metrics; }

DispatchCoordinator::Open DispatchCoordinator::open_adaptive(
    const std::string& sweep_name, std::span<const TrialSpec> trials,
    Options options) {
  Open result;
  std::unique_ptr<DispatchCoordinator> coordinator(new DispatchCoordinator);
  Impl& impl = *coordinator->impl_;
  impl.sweep_name = sweep_name;
  impl.trials = trials;
  impl.grid_hash = sweep_grid_hash(trials);
  impl.options = options;
  if (impl.options.lease_size == 0) impl.options.lease_size = 1;
  impl.init_metrics();
  impl.adaptive = true;
  impl.have.assign(trials.size(), false);
  impl.serve_start = Clock::now();

  TcpListener::ListenResult listening = TcpListener::listen_on(options.port);
  if (!listening.ok()) {
    result.error = "cannot listen on port " + std::to_string(options.port) +
                   ": " + listening.error;
    return result;
  }
  impl.listener = std::move(listening.listener);
  result.coordinator = std::move(coordinator);
  return result;
}

DispatchCoordinator::Open DispatchCoordinator::open(
    const std::string& journal_path, const std::string& sweep_name,
    std::span<const TrialSpec> trials, bool resume, Options options) {
  Open result;
  std::unique_ptr<DispatchCoordinator> coordinator(new DispatchCoordinator);
  Impl& impl = *coordinator->impl_;
  impl.journal_path = journal_path;
  impl.sweep_name = sweep_name;
  impl.trials = trials;
  impl.grid_hash = sweep_grid_hash(trials);
  impl.options = options;
  if (impl.options.lease_size == 0) impl.options.lease_size = 1;
  // The journal sink reports into the coordinator's registry so journal
  // counters (rows/bytes/fsyncs) ride the stats endpoint for free.
  impl.options.sink.metrics = &impl.metrics;
  impl.init_metrics();

  // Bind the port before touching the journal: a bind failure must not
  // strand a freshly created header-only journal that would then block
  // the retry with "already exists".
  TcpListener::ListenResult listening = TcpListener::listen_on(options.port);
  if (!listening.ok()) {
    result.error = "cannot listen on port " + std::to_string(options.port) +
                   ": " + listening.error;
    return result;
  }
  impl.listener = std::move(listening.listener);

  // The journal contract is exactly the local --output one: fresh runs
  // refuse to clobber, resumes validate the grid and keep finished rows.
  const CampaignScan scan =
      scan_campaign_file(journal_path, sweep_name, trials, ShardRef{});
  if (!scan.ok()) {
    result.error = scan.error;
    return result;
  }
  if (!resume && !scan.fresh) {
    result.error = "journal '" + journal_path + "' already exists (" +
                   std::to_string(scan.rows) + "/" +
                   std::to_string(scan.expected_rows) +
                   " trials); pass resume to continue it or remove it to "
                   "restart";
    return result;
  }
  const CampaignHeader header{sweep_name, impl.grid_hash, trials.size(),
                              ShardRef{}};
  JsonlTrialSink::OpenResult opened =
      JsonlTrialSink::open(journal_path, scan, header, impl.options.sink);
  if (!opened.ok()) {
    result.error = opened.error;
    return result;
  }
  impl.sink = std::move(opened.sink);
  impl.have = scan.have;
  impl.rows_done = scan.rows;

  // Work units: the missing trials in index order, lease_size per chunk.
  std::vector<std::size_t> chunk;
  for (std::size_t index = 0; index < trials.size(); ++index) {
    if (impl.have[index]) continue;
    chunk.push_back(index);
    if (chunk.size() == impl.options.lease_size) {
      impl.queue.push_back(std::move(chunk));
      chunk.clear();
    }
  }
  if (!chunk.empty()) impl.queue.push_back(std::move(chunk));

  result.coordinator = std::move(coordinator);
  return result;
}

// ----------------------------------------------------------------- worker

namespace {

/// Thrown by the test hook that simulates a worker dying mid-lease.
struct AbortLease : std::exception {
  const char* what() const noexcept override {
    return "worker aborted mid-lease (test hook)";
  }
};

/// Worker-side sink: journals locally (optional), then streams the exact
/// row bytes to the coordinator. SweepRunner serializes append() calls
/// under its progress mutex; the send mutex additionally serializes
/// against the heartbeat thread.
class SocketTrialSink : public TrialSink {
 public:
  SocketTrialSink(TcpSocket& socket, std::mutex& send_mutex,
                  JsonlTrialSink* local, std::size_t abort_after_rows)
      : socket_(socket),
        send_mutex_(send_mutex),
        local_(local),
        abort_after_rows_(abort_after_rows) {}

  void set_lease(std::uint64_t lease) { lease_ = lease; }
  [[nodiscard]] std::size_t rows_sent() const { return rows_sent_; }

  void append(const TrialResult& result) override {
    if (local_ != nullptr) local_->append(result);
    const std::string row = trial_to_jsonl(result);
    const std::lock_guard<std::mutex> lock(send_mutex_);
    if (!write_frame(socket_, dispatch_wire::result(lease_, row)))
      throw std::runtime_error("lost connection to coordinator");
    ++rows_sent_;
    if (abort_after_rows_ > 0 && rows_sent_ >= abort_after_rows_) {
      socket_.close();  // Abrupt death: no goodbye, the lease just stops.
      throw AbortLease{};
    }
  }

  void flush() override {
    if (local_ != nullptr) local_->flush();
  }

 private:
  TcpSocket& socket_;
  std::mutex& send_mutex_;
  JsonlTrialSink* local_;
  std::size_t abort_after_rows_;
  std::uint64_t lease_ = 0;
  std::size_t rows_sent_ = 0;
};

}  // namespace

DispatchWorkResult run_dispatch_worker(const std::string& host,
                                       std::uint16_t port,
                                       const std::string& sweep_name,
                                       std::span<const TrialSpec> trials,
                                       DispatchWorkerOptions options) {
  DispatchWorkResult out;
  // Workers routinely start before their coordinator binds; retry the
  // connect for the grace window instead of failing the fleet's launch
  // order.
  const auto connect_deadline =
      Clock::now() + std::chrono::duration<double>(
                         options.connect_wait_s > 0 ? options.connect_wait_s
                                                    : 0.0);
  TcpSocket::ConnectResult connected;
  for (;;) {
    connected = TcpSocket::connect_to(host, port);
    if (connected.ok() || Clock::now() >= connect_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!connected.ok()) {
    out.error = "cannot connect to " + host + ":" + std::to_string(port) +
                ": " + connected.error;
    return out;
  }
  TcpSocket socket = std::move(connected.socket);
  std::mutex send_mutex;

  // Worker-local telemetry: the runner (and optional local journal)
  // write lock-free counters here; the heartbeat thread snapshots them.
  // Declared before the local sink so the sink's counter refs die first.
  MetricRegistry registry;
  Counter& trials_done_counter = registry.counter(kMetricTrialsDone);
  Histogram& runtime_hist =
      registry.histogram(kMetricTrialRuntime, trial_runtime_bounds_s());

  const std::uint64_t grid_hash = sweep_grid_hash(trials);
  if (!write_frame(socket,
                   dispatch_wire::hello(sweep_name, grid_hash,
                                        trials.size()))) {
    out.error = "connection lost sending hello";
    return out;
  }

  std::unique_ptr<JsonlTrialSink> local;
  if (!options.journal_path.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(options.journal_path, ec)) {
      out.error = "local journal '" + options.journal_path +
                  "' already exists; remove it or choose another path";
      return out;
    }
    CampaignHeader header;
    header.sweep = sweep_name;
    header.grid_hash = grid_hash;
    header.trials = trials.size();
    options.sink.metrics = &registry;
    auto opened = JsonlTrialSink::open_fresh(options.journal_path, header,
                                             options.sink);
    if (!opened.ok()) {
      out.error = opened.error;
      return out;
    }
    local = std::move(opened.sink);
  }

  // Liveness thread: one heartbeat per interval, so the coordinator can
  // tell "running a long trial" from "dead" without waiting for rows.
  // Each beat carries this worker's counters: lifetime trials done plus a
  // per-trial runtime EWMA fed from the runtime histogram's interval
  // deltas (mean runtime of the trials finished since the last beat).
  std::atomic<bool> stop_heartbeat{false};
  const auto heartbeat_interval = std::chrono::duration<double>(
      options.heartbeat_interval_s > 0 ? options.heartbeat_interval_s : 2.0);
  std::thread heartbeat([&] {
    Ewma runtime_ewma;
    std::uint64_t last_count = 0;
    double last_sum = 0.0;
    auto next_beat = Clock::now() + heartbeat_interval;
    while (!stop_heartbeat.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (Clock::now() < next_beat) continue;
      next_beat += heartbeat_interval;
      const std::uint64_t count = runtime_hist.count();
      const double sum = runtime_hist.sum();
      if (count > last_count) {
        runtime_ewma.observe((sum - last_sum) /
                             static_cast<double>(count - last_count) * 1000.0);
        last_count = count;
        last_sum = sum;
      }
      const std::lock_guard<std::mutex> lock(send_mutex);
      // A failed beat means the socket is gone; the main loop's next
      // send/recv reports it with better context.
      (void)write_frame(socket,
                        dispatch_wire::heartbeat_counters(
                            trials_done_counter.value(), runtime_ewma.value()));
    }
  });

  SocketTrialSink sink(socket, send_mutex, local.get(),
                       options.abort_after_rows);

  // Main protocol loop. Runs leases until the coordinator says done.
  const auto run = [&]() -> void {
    using Type = dispatch_wire::Message::Type;
    std::string payload, frame_error;
    dispatch_wire::Message msg;

    if (!read_frame(socket, payload, frame_error)) {
      out.error = frame_error.empty() ? "coordinator closed the connection"
                                      : frame_error;
      return;
    }
    if (!dispatch_wire::parse(payload, msg)) {
      out.error = "malformed frame from coordinator";
      return;
    }
    if (msg.type == Type::kError) {
      out.error = "coordinator rejected this worker: " + msg.message;
      return;
    }
    if (msg.type == Type::kForeignVersion) {
      out.error = "protocol version mismatch: worker speaks " +
                  std::to_string(kDispatchProtocolVersion) +
                  ", coordinator sent " + std::to_string(msg.version);
      return;
    }
    if (msg.type != Type::kWelcome) {
      out.error = "expected welcome from coordinator";
      return;
    }

    bool send_request = true;
    for (;;) {
      if (send_request) {
        const std::lock_guard<std::mutex> lock(send_mutex);
        if (!write_frame(socket, dispatch_wire::request())) {
          out.error = "lost connection to coordinator";
          return;
        }
      }
      send_request = false;
      if (!read_frame(socket, payload, frame_error)) {
        out.error = frame_error.empty()
                        ? "coordinator closed the connection mid-campaign"
                        : frame_error;
        return;
      }
      if (!dispatch_wire::parse(payload, msg)) {
        out.error = "malformed frame from coordinator";
        return;
      }
      switch (msg.type) {
        case Type::kWait:
          continue;  // Parked: block until a lease or done is pushed.
        case Type::kDone:
          return;
        case Type::kError:
          out.error = "coordinator: " + msg.message;
          return;
        case Type::kLease: {
          std::vector<TrialSpec> todo;
          todo.reserve(msg.indices.size());
          for (const std::uint64_t index : msg.indices) {
            if (index >= trials.size() || trials[index].index != index) {
              out.error = "lease names trial " + std::to_string(index) +
                          " outside the expanded grid";
              return;
            }
            todo.push_back(trials[index]);
          }
          sink.set_lease(msg.lease);
          SweepRunner::Options runner_options;
          runner_options.threads = options.threads;
          runner_options.sink = &sink;
          runner_options.metrics = &registry;
          if (options.on_trial_done)
            runner_options.on_trial_done =
                [&](std::size_t, std::size_t, const TrialResult& result) {
                  options.on_trial_done(result);
                };
          const std::size_t sent_before = sink.rows_sent();
          try {
            (void)SweepRunner(runner_options).run(todo);
          } catch (const std::exception& e) {
            // Covers the AbortLease test hook too (its what() says so).
            out.trials_run += sink.rows_sent() - sent_before;
            out.error = e.what();
            return;
          }
          out.trials_run += todo.size();
          ++out.leases_completed;
          send_request = true;
          continue;
        }
        case Type::kHello:
        case Type::kWelcome:
        case Type::kRequest:
        case Type::kResult:
        case Type::kHeartbeat:
        case Type::kStats:
        case Type::kStatsReply:
        case Type::kForeignVersion:
          out.error = "unexpected frame from coordinator";
          return;
      }
    }
  };
  run();

  stop_heartbeat.store(true, std::memory_order_relaxed);
  heartbeat.join();
  return out;
}

}  // namespace adaptbf
