// Network-distributed dispatch, proven equivalent by bytes: a campaign
// served to TCP workers over loopback — including workers that die
// mid-lease, go silent, or deliver duplicates — must leave a journal
// whose CSV/JSON artifacts are byte-identical to a single-process run.
// Protocol misuse (foreign version, wrong sweep, wrong grid, bad magic)
// must be rejected by name without poisoning the campaign.
#include "sweep/dispatch.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/sweep_export.h"
#include "obs/metrics.h"
#include "net/frame.h"
#include "net/socket.h"
#include "sweep/resume.h"
#include "sweep/sweep_runner.h"
#include "sweep/trial_sink.h"

namespace adaptbf {
namespace {

using dispatch_wire::Message;

SweepSpec small_sweep() {
  ScenarioSpec scenario;
  scenario.name = "small";
  for (std::uint32_t j = 1; j <= 2; ++j) {
    JobSpec job;
    job.id = JobId(j);
    job.name = "J" + std::to_string(j);
    job.nodes = j;
    job.processes.push_back(continuous_pattern(32));
    job.processes.push_back(poisson_pattern(32, 200.0, /*seed=*/j));
    scenario.jobs.push_back(std::move(job));
  }
  scenario.duration = SimDuration::seconds(5);
  scenario.stop_when_idle = true;

  SweepSpec sweep;
  sweep.name = "small";
  sweep.scenarios.push_back({"small", std::move(scenario)});
  sweep.policies = {BwControl::kNone, BwControl::kAdaptive};
  sweep.repetitions = 3;
  sweep.base_seed = 11;
  sweep.start_jitter = SimDuration::millis(50);
  return sweep;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

JsonlSinkOptions test_sink_options() {
  JsonlSinkOptions options;
  options.fsync = false;  // Logic tests, not disk durability tests.
  return options;
}

struct Artifacts {
  std::string csv;
  std::string json;
};

Artifacts export_artifacts(const std::string& path, const SweepSpec& sweep,
                           const std::vector<TrialSpec>& trials) {
  std::ostringstream json;
  const JsonlExportResult exported =
      export_campaign_from_jsonl(path, sweep.name, trials, &json);
  EXPECT_TRUE(exported.ok()) << exported.error;
  return {sweep_cells_table(exported.cells).to_csv(), json.str()};
}

/// Single-process golden run into `path`; returns its artifacts.
Artifacts golden_artifacts(const SweepSpec& sweep,
                           const std::vector<TrialSpec>& trials,
                           const std::string& path) {
  std::remove(path.c_str());
  CampaignHeader header{sweep.name, sweep_grid_hash(trials), trials.size(),
                        ShardRef{}};
  auto opened = JsonlTrialSink::open_fresh(path, header, test_sink_options());
  EXPECT_TRUE(opened.ok()) << opened.error;
  SweepRunner::Options options;
  options.threads = 1;
  options.sink = opened.sink.get();
  (void)SweepRunner(options).run(trials);
  opened.sink.reset();
  return export_artifacts(path, sweep, trials);
}

/// Golden journal rows keyed by trial index — the EXACT bytes a correct
/// worker would stream, for raw protocol clients.
std::map<std::size_t, std::string> golden_rows(const std::string& path) {
  std::map<std::size_t, std::string> rows;
  std::ifstream file(path, std::ios::binary);
  std::string line;
  std::getline(file, line);  // header
  while (std::getline(file, line)) {
    TrialResult row;
    if (trial_scalars_from_jsonl(line, row)) rows[row.index] = line;
  }
  return rows;
}

DispatchCoordinatorOptions coordinator_options() {
  DispatchCoordinatorOptions options;
  options.port = 0;  // Ephemeral; tests read port() back.
  options.lease_size = 2;
  options.lease_timeout_s = 30.0;
  options.sink = test_sink_options();
  return options;
}

DispatchWorkerOptions worker_options() {
  DispatchWorkerOptions options;
  options.threads = 2;
  options.heartbeat_interval_s = 0.05;
  options.sink = test_sink_options();
  return options;
}

/// Runs serve() on a thread with a watchdog that force-stops a hung
/// coordinator so a logic bug fails the test instead of wedging CI.
class ServeThread {
 public:
  explicit ServeThread(DispatchCoordinator& coordinator)
      : coordinator_(coordinator), thread_([this] {
          result_ = coordinator_.serve();
          done_.store(true);
        }),
        watchdog_([this] {
          for (int i = 0; i < 600 && !done_.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          coordinator_.request_stop();
        }) {}

  DispatchServeResult join() {
    thread_.join();
    done_.store(true);
    watchdog_.join();
    return result_;
  }

 private:
  DispatchCoordinator& coordinator_;
  std::atomic<bool> done_{false};
  DispatchServeResult result_;
  std::thread thread_;
  std::thread watchdog_;
};

/// Minimal hand-driven protocol client for misuse/duplicate tests.
struct RawClient {
  TcpSocket socket;

  bool connect(std::uint16_t port) {
    auto connected = TcpSocket::connect_to("127.0.0.1", port);
    if (!connected.ok()) return false;
    socket = std::move(connected.socket);
    return true;
  }
  bool send(std::string_view payload) {
    return write_frame(socket, payload);
  }
  bool read(Message& msg) {
    std::string payload, error;
    if (!read_frame(socket, payload, error)) return false;
    return dispatch_wire::parse(payload, msg);
  }
};

// -------------------------------------------------------- wire round trip

TEST(DispatchWire, BuildersParseBackExactly) {
  Message msg;
  ASSERT_TRUE(dispatch_wire::parse(
      dispatch_wire::hello("camp", 0xdeadbeefcafef00dull, 24), msg));
  EXPECT_EQ(msg.type, Message::Type::kHello);
  EXPECT_EQ(msg.version, kDispatchProtocolVersion);
  EXPECT_EQ(msg.sweep, "camp");
  EXPECT_EQ(msg.grid_hash, 0xdeadbeefcafef00dull);
  EXPECT_EQ(msg.trials, 24u);

  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::welcome(7), msg));
  EXPECT_EQ(msg.type, Message::Type::kWelcome);
  EXPECT_EQ(msg.worker, 7u);

  ASSERT_TRUE(
      dispatch_wire::parse(dispatch_wire::error_msg("no \"thanks\""), msg));
  EXPECT_EQ(msg.type, Message::Type::kError);
  EXPECT_EQ(msg.message, "no \"thanks\"");

  const std::vector<std::uint64_t> indices{3, 5, 8};
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::lease(42, indices), msg));
  EXPECT_EQ(msg.type, Message::Type::kLease);
  EXPECT_EQ(msg.lease, 42u);
  EXPECT_EQ(msg.indices, indices);

  const std::string row = "{\"trial\":3,\"fake\":true}";
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::result(42, row), msg));
  EXPECT_EQ(msg.type, Message::Type::kResult);
  EXPECT_EQ(msg.lease, 42u);
  EXPECT_EQ(msg.row, row) << "row bytes must survive verbatim";

  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::request(), msg));
  EXPECT_EQ(msg.type, Message::Type::kRequest);
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::wait(), msg));
  EXPECT_EQ(msg.type, Message::Type::kWait);
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::heartbeat(), msg));
  EXPECT_EQ(msg.type, Message::Type::kHeartbeat);
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::done(), msg));
  EXPECT_EQ(msg.type, Message::Type::kDone);
}

TEST(DispatchWire, ForeignVersionParsesToItsOwnType) {
  Message msg;
  ASSERT_TRUE(dispatch_wire::parse(
      "{\"adaptbf_dispatch\":2,\"type\":\"hello\",\"future\":1}", msg));
  EXPECT_EQ(msg.type, Message::Type::kForeignVersion);
  EXPECT_EQ(msg.version, 2u);
}

TEST(DispatchWire, MalformedPayloadsRejectedWhole) {
  Message msg;
  EXPECT_FALSE(dispatch_wire::parse("", msg));
  EXPECT_FALSE(dispatch_wire::parse("{}", msg));
  EXPECT_FALSE(dispatch_wire::parse("{\"adaptbf_dispatch\":", msg));
  EXPECT_FALSE(
      dispatch_wire::parse("{\"adaptbf_dispatch\":1,\"type\":\"nope\"}", msg));
  // Truncated mid-structure.
  const std::string lease = dispatch_wire::lease(1, std::vector<std::uint64_t>{1, 2});
  EXPECT_FALSE(dispatch_wire::parse(
      std::string_view(lease).substr(0, lease.size() - 3), msg));
  // Trailing garbage.
  EXPECT_FALSE(dispatch_wire::parse(dispatch_wire::done() + "x", msg));
  // Result whose row isn't an object.
  EXPECT_FALSE(dispatch_wire::parse(
      "{\"adaptbf_dispatch\":1,\"type\":\"result\",\"lease\":1,\"row\":42}",
      msg));
}

TEST(DispatchWire, TelemetryFramesRoundTrip) {
  Message msg;
  // Heartbeat with counters attached...
  ASSERT_TRUE(dispatch_wire::parse(
      dispatch_wire::heartbeat_counters(7, 123.5), msg));
  EXPECT_EQ(msg.type, Message::Type::kHeartbeat);
  EXPECT_TRUE(msg.has_counters);
  EXPECT_EQ(msg.trials_done, 7u);
  EXPECT_EQ(msg.runtime_ewma_ms, 123.5);
  // ...while the bare pre-telemetry form still parses, counters absent.
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::heartbeat(), msg));
  EXPECT_EQ(msg.type, Message::Type::kHeartbeat);
  EXPECT_FALSE(msg.has_counters);

  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::stats_request("json"), msg));
  EXPECT_EQ(msg.type, Message::Type::kStats);
  EXPECT_EQ(msg.stats_version, kStatsVersion);
  EXPECT_EQ(msg.format, "json");
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::stats_request("prom"), msg));
  EXPECT_EQ(msg.format, "prom");

  const std::string body = "{\"adaptbf_stats\":1,\"rows_done\":3}";
  ASSERT_TRUE(dispatch_wire::parse(dispatch_wire::stats_reply(body), msg));
  EXPECT_EQ(msg.type, Message::Type::kStatsReply);
  EXPECT_EQ(msg.stats_version, kStatsVersion);
  EXPECT_EQ(msg.body, body) << "body must survive quoting verbatim";
}

TEST(DispatchWire, ForeignStatsVersionParsesToVersionOnly) {
  // A foreign stats generation mirrors kForeignVersion: the envelope and
  // version parse, the rest is not ours to interpret, and the receiver
  // rejects the stats VERSION by name.
  Message msg;
  ASSERT_TRUE(dispatch_wire::parse(
      "{\"adaptbf_dispatch\":1,\"type\":\"stats\",\"stats_version\":99,"
      "\"mystery\":true}",
      msg));
  EXPECT_EQ(msg.type, Message::Type::kStats);
  EXPECT_EQ(msg.stats_version, 99u);
  EXPECT_TRUE(msg.format.empty());

  ASSERT_TRUE(dispatch_wire::parse(
      "{\"adaptbf_dispatch\":1,\"type\":\"stats_reply\",\"stats_version\":7,"
      "\"whatever\":0}",
      msg));
  EXPECT_EQ(msg.type, Message::Type::kStatsReply);
  EXPECT_EQ(msg.stats_version, 7u);
  EXPECT_TRUE(msg.body.empty());

  // OUR generation with missing fields is still malformed, whole.
  EXPECT_FALSE(dispatch_wire::parse(
      "{\"adaptbf_dispatch\":1,\"type\":\"stats\"}", msg));
  EXPECT_FALSE(dispatch_wire::parse(
      "{\"adaptbf_dispatch\":1,\"type\":\"stats\",\"stats_version\":1}", msg));
}

// ------------------------------------------- loopback byte equivalence

TEST(DispatchEquivalence, TwoWorkersMatchSingleProcessByteForByte) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string golden_path = testing::TempDir() + "dispatch_golden.jsonl";
  const Artifacts golden = golden_artifacts(sweep, trials, golden_path);

  const std::string journal = testing::TempDir() + "dispatch_2w.jsonl";
  std::remove(journal.c_str());
  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/false,
                                          coordinator_options());
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint16_t port = opened.coordinator->port();
  ServeThread serving(*opened.coordinator);

  const std::string worker_journal =
      testing::TempDir() + "dispatch_2w.worker0.jsonl";
  std::remove(worker_journal.c_str());
  DispatchWorkResult results[2];
  std::thread workers[2];
  for (int w = 0; w < 2; ++w) {
    workers[w] = std::thread([&, w] {
      DispatchWorkerOptions options = worker_options();
      if (w == 0) options.journal_path = worker_journal;  // local cache
      results[w] = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                       options);
    });
  }
  for (auto& worker : workers) worker.join();
  const DispatchServeResult served = serving.join();

  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(served.complete);
  EXPECT_EQ(served.rows_received, trials.size());
  EXPECT_EQ(served.workers_seen, 2u);
  EXPECT_EQ(served.duplicate_rows, 0u);
  std::size_t total_run = 0;
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.error;
    total_run += result.trials_run;
  }
  EXPECT_EQ(total_run, trials.size());

  // The coordinator journal is a first-class unsharded journal...
  const CampaignScan scan = scan_campaign_file(journal, sweep.name, trials);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.complete());
  EXPECT_EQ(scan.duplicate_rows, 0u);

  // ...byte-equivalent to the single-process run.
  const Artifacts distributed = export_artifacts(journal, sweep, trials);
  EXPECT_EQ(golden.csv, distributed.csv);
  EXPECT_EQ(golden.json, distributed.json);

  // Worker 0's local journal is itself a valid (partial) journal whose
  // rows all check out against the grid.
  if (results[0].trials_run > 0) {
    const CampaignScan local =
        scan_campaign_file(worker_journal, sweep.name, trials);
    ASSERT_TRUE(local.ok()) << local.error;
    EXPECT_EQ(local.rows, results[0].trials_run);
  }
  std::remove(golden_path.c_str());
  std::remove(journal.c_str());
  std::remove(worker_journal.c_str());
}

TEST(DispatchEquivalence, WorkerKilledMidLeaseIsReleasedAndRecovered) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string golden_path = testing::TempDir() + "dispatch_kg.jsonl";
  const Artifacts golden = golden_artifacts(sweep, trials, golden_path);

  const std::string journal = testing::TempDir() + "dispatch_kill.jsonl";
  std::remove(journal.c_str());
  DispatchCoordinatorOptions options = coordinator_options();
  options.lease_size = 3;
  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/false, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint16_t port = opened.coordinator->port();
  ServeThread serving(*opened.coordinator);

  // Victim: streams one row of its first lease, then hard-closes the
  // socket — no goodbye, exactly like SIGKILL.
  DispatchWorkerOptions victim_options = worker_options();
  victim_options.abort_after_rows = 1;
  DispatchWorkResult victim;
  std::thread victim_thread([&] {
    victim = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                 victim_options);
  });
  victim_thread.join();
  EXPECT_FALSE(victim.ok());
  EXPECT_EQ(victim.trials_run, 1u);

  // Survivor finishes the campaign, re-leased remainder included.
  DispatchWorkResult survivor;
  std::thread survivor_thread([&] {
    survivor = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                   worker_options());
  });
  survivor_thread.join();
  const DispatchServeResult served = serving.join();

  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(served.complete);
  EXPECT_TRUE(survivor.ok()) << survivor.error;
  EXPECT_GE(served.leases_reclaimed, 1u);
  EXPECT_EQ(victim.trials_run + survivor.trials_run, trials.size());

  const Artifacts distributed = export_artifacts(journal, sweep, trials);
  EXPECT_EQ(golden.csv, distributed.csv);
  EXPECT_EQ(golden.json, distributed.json);
  std::remove(golden_path.c_str());
  std::remove(journal.c_str());
}

TEST(DispatchEquivalence, SilentWorkerTimesOutAndItsLeaseIsRecovered) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string golden_path = testing::TempDir() + "dispatch_sg.jsonl";
  const Artifacts golden = golden_artifacts(sweep, trials, golden_path);

  const std::string journal = testing::TempDir() + "dispatch_silent.jsonl";
  std::remove(journal.c_str());
  DispatchCoordinatorOptions options = coordinator_options();
  options.lease_timeout_s = 0.3;  // Workers heartbeat at 0.05 s.
  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/false, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint16_t port = opened.coordinator->port();
  ServeThread serving(*opened.coordinator);

  // The silent client takes a lease, then sends nothing — socket open,
  // no heartbeats. Only the timeout can recover its trials.
  RawClient silent;
  ASSERT_TRUE(silent.connect(port));
  ASSERT_TRUE(silent.send(dispatch_wire::hello(
      sweep.name, sweep_grid_hash(trials), trials.size())));
  Message msg;
  ASSERT_TRUE(silent.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kWelcome);
  ASSERT_TRUE(silent.send(dispatch_wire::request()));
  ASSERT_TRUE(silent.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kLease);
  ASSERT_FALSE(msg.indices.empty());

  DispatchWorkResult worker;
  std::thread worker_thread([&] {
    worker = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                 worker_options());
  });
  worker_thread.join();
  const DispatchServeResult served = serving.join();

  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(served.complete);
  EXPECT_TRUE(worker.ok()) << worker.error;
  EXPECT_GE(served.leases_reclaimed, 1u);
  EXPECT_EQ(worker.trials_run, trials.size());

  const Artifacts distributed = export_artifacts(journal, sweep, trials);
  EXPECT_EQ(golden.csv, distributed.csv);
  EXPECT_EQ(golden.json, distributed.json);
  std::remove(golden_path.c_str());
  std::remove(journal.c_str());
}

TEST(DispatchEquivalence, DuplicateDeliveryIsIdempotent) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string golden_path = testing::TempDir() + "dispatch_dg.jsonl";
  const Artifacts golden = golden_artifacts(sweep, trials, golden_path);
  const std::map<std::size_t, std::string> rows = golden_rows(golden_path);
  ASSERT_EQ(rows.size(), trials.size());

  const std::string journal = testing::TempDir() + "dispatch_dupe.jsonl";
  std::remove(journal.c_str());
  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/false,
                                          coordinator_options());
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint16_t port = opened.coordinator->port();
  ServeThread serving(*opened.coordinator);

  // The raw client takes one lease and delivers every row TWICE — the
  // retransmit a flaky network or an over-eager retry layer would send.
  RawClient client;
  ASSERT_TRUE(client.connect(port));
  ASSERT_TRUE(client.send(dispatch_wire::hello(
      sweep.name, sweep_grid_hash(trials), trials.size())));
  Message msg;
  ASSERT_TRUE(client.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kWelcome);
  ASSERT_TRUE(client.send(dispatch_wire::request()));
  ASSERT_TRUE(client.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kLease);
  const std::uint64_t lease_id = msg.lease;
  const std::vector<std::uint64_t> leased = msg.indices;
  ASSERT_FALSE(leased.empty());
  for (const std::uint64_t index : leased) {
    const std::string& row = rows.at(index);
    ASSERT_TRUE(client.send(dispatch_wire::result(lease_id, row)));
    ASSERT_TRUE(client.send(dispatch_wire::result(lease_id, row)));
  }

  // A real worker completes the remainder while the client idles.
  DispatchWorkResult worker;
  std::thread worker_thread([&] {
    worker = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                 worker_options());
  });
  worker_thread.join();
  const DispatchServeResult served = serving.join();

  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(served.complete);
  EXPECT_TRUE(worker.ok()) << worker.error;
  EXPECT_EQ(served.duplicate_rows, leased.size());
  EXPECT_EQ(served.rows_received, trials.size());

  // The duplicates never reached the journal.
  const CampaignScan scan = scan_campaign_file(journal, sweep.name, trials);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.complete());
  EXPECT_EQ(scan.duplicate_rows, 0u);

  const Artifacts distributed = export_artifacts(journal, sweep, trials);
  EXPECT_EQ(golden.csv, distributed.csv);
  EXPECT_EQ(golden.json, distributed.json);
  std::remove(golden_path.c_str());
  std::remove(journal.c_str());
}

TEST(DispatchEquivalence, ServeResumesAPartialJournal) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string golden_path = testing::TempDir() + "dispatch_rg.jsonl";
  const Artifacts golden = golden_artifacts(sweep, trials, golden_path);

  // A coordinator killed mid-campaign leaves a partial journal; simulate
  // with a mid-line truncation of the golden journal, PR 2 style.
  const std::string journal = testing::TempDir() + "dispatch_resume.jsonl";
  const std::string full = read_file(golden_path);
  {
    std::ofstream partial(journal, std::ios::binary);
    partial << full.substr(0, full.size() * 2 / 3 + 3);
  }
  const CampaignScan before = scan_campaign_file(journal, sweep.name, trials);
  ASSERT_TRUE(before.ok()) << before.error;
  ASSERT_GT(before.rows, 0u);
  ASSERT_LT(before.rows, trials.size());

  // Without resume the journal must be refused, same stance as the CLI.
  auto refused = DispatchCoordinator::open(journal, sweep.name, trials,
                                           /*resume=*/false,
                                           coordinator_options());
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error.find("already exists"), std::string::npos)
      << refused.error;

  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/true,
                                          coordinator_options());
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint16_t port = opened.coordinator->port();
  ServeThread serving(*opened.coordinator);

  DispatchWorkResult worker;
  std::thread worker_thread([&] {
    worker = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                 worker_options());
  });
  worker_thread.join();
  const DispatchServeResult served = serving.join();

  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(served.complete);
  EXPECT_TRUE(worker.ok()) << worker.error;
  // Only the missing trials were leased out and re-run.
  EXPECT_EQ(served.rows_received, trials.size() - before.rows);
  EXPECT_EQ(worker.trials_run, trials.size() - before.rows);

  const Artifacts resumed = export_artifacts(journal, sweep, trials);
  EXPECT_EQ(golden.csv, resumed.csv);
  EXPECT_EQ(golden.json, resumed.json);
  std::remove(golden_path.c_str());
  std::remove(journal.c_str());
}

TEST(DispatchEquivalence, SilentStrangerConnectionIsEvicted) {
  // A connection that never even hellos (port scanner, health probe)
  // must not hold an fd and a poll slot for the campaign's lifetime:
  // the silence timeout applies to every connection, lease or not.
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string journal = testing::TempDir() + "dispatch_stranger.jsonl";
  std::remove(journal.c_str());
  DispatchCoordinatorOptions options = coordinator_options();
  options.lease_timeout_s = 0.2;
  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/false, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  ServeThread serving(*opened.coordinator);

  RawClient stranger;
  ASSERT_TRUE(stranger.connect(opened.coordinator->port()));
  // Blocking read: returns false at EOF once the coordinator evicts us.
  std::string payload, error;
  EXPECT_FALSE(read_frame(stranger.socket, payload, error));

  // Heartbeating anonymously must not dodge the sweep either: liveness
  // only counts after hello, so this is rejected outright.
  RawClient pulse;
  ASSERT_TRUE(pulse.connect(opened.coordinator->port()));
  ASSERT_TRUE(pulse.send(dispatch_wire::heartbeat()));
  Message msg;
  ASSERT_TRUE(pulse.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kError);
  EXPECT_NE(msg.message.find("before hello"), std::string::npos)
      << msg.message;

  opened.coordinator->request_stop();
  const DispatchServeResult served = serving.join();
  EXPECT_TRUE(served.ok()) << served.error;
  std::remove(journal.c_str());
}

// ------------------------------------------------------- live telemetry

/// Pulls the integer value of `"key":N` out of a stats JSON body.
std::uint64_t stats_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << body;
  if (at == std::string::npos) return ~0ull;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

/// One stats poll over an open connection; returns the rendered body.
std::string poll_stats(RawClient& client, const std::string& format) {
  EXPECT_TRUE(client.send(dispatch_wire::stats_request(format)));
  Message msg;
  EXPECT_TRUE(client.read(msg));
  EXPECT_EQ(msg.type, Message::Type::kStatsReply);
  EXPECT_EQ(msg.stats_version, kStatsVersion);
  return msg.body;
}

TEST(DispatchStats, LivePollsTrackTheJournalThroughCompletion) {
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string golden_path = testing::TempDir() + "dispatch_tg.jsonl";
  const Artifacts golden = golden_artifacts(sweep, trials, golden_path);
  const std::map<std::size_t, std::string> rows = golden_rows(golden_path);

  const std::string journal = testing::TempDir() + "dispatch_stats.jsonl";
  std::remove(journal.c_str());
  DispatchCoordinatorOptions options = coordinator_options();
  options.linger_s = 30.0;  // Final poll races coordinator exit otherwise.
  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/false, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint16_t port = opened.coordinator->port();
  ServeThread serving(*opened.coordinator);

  // An anonymous monitor: stats polls need no hello (a scraper never
  // joins the campaign) and repeat on one connection.
  RawClient monitor;
  ASSERT_TRUE(monitor.connect(port));
  const std::string empty = poll_stats(monitor, "json");
  EXPECT_EQ(empty.rfind("{\"adaptbf_stats\":1,", 0), 0u) << empty;
  EXPECT_EQ(stats_field(empty, "trials"), trials.size());
  EXPECT_EQ(stats_field(empty, "rows_done"), 0u);
  EXPECT_NE(empty.find("\"complete\":false"), std::string::npos) << empty;

  // A raw client runs one lease, then polls on ITS OWN connection —
  // per-connection ordering makes the mid-campaign count deterministic.
  RawClient deliverer;
  ASSERT_TRUE(deliverer.connect(port));
  ASSERT_TRUE(deliverer.send(dispatch_wire::hello(
      sweep.name, sweep_grid_hash(trials), trials.size())));
  Message msg;
  ASSERT_TRUE(deliverer.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kWelcome);
  ASSERT_TRUE(deliverer.send(dispatch_wire::request()));
  ASSERT_TRUE(deliverer.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kLease);
  const std::uint64_t lease_id = msg.lease;
  const std::vector<std::uint64_t> leased = msg.indices;
  ASSERT_FALSE(leased.empty());
  ASSERT_LT(leased.size(), trials.size());
  for (const std::uint64_t index : leased)
    ASSERT_TRUE(deliverer.send(dispatch_wire::result(lease_id, rows.at(index))));
  const std::string mid = poll_stats(deliverer, "json");
  EXPECT_EQ(stats_field(mid, "rows_done"), leased.size());
  EXPECT_EQ(stats_field(mid, "rows_received"), leased.size());
  EXPECT_NE(mid.find("\"complete\":false"), std::string::npos) << mid;
  // The body's registry is a parseable metrics document whose journal
  // counter agrees with the summary.
  const std::size_t reg = mid.find("\"registry\":");
  ASSERT_NE(reg, std::string::npos) << mid;
  MetricsSnapshot snap;
  ASSERT_TRUE(metrics_from_json(
      std::string_view(mid).substr(reg + 11, mid.size() - reg - 12), snap));
  const MetricSample* journaled = snap.find(kMetricDispatchRowsJournaled);
  ASSERT_NE(journaled, nullptr);
  EXPECT_EQ(journaled->counter, leased.size());
  deliverer.socket.close();  // Lease retired; nothing left to reclaim.

  // A real worker finishes the campaign; the coordinator lingers.
  DispatchWorkResult worker;
  std::thread worker_thread([&] {
    worker = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                 worker_options());
  });
  worker_thread.join();
  EXPECT_TRUE(worker.ok()) << worker.error;

  // Same monitor connection, after completion: final fleet totals.
  const std::string final_body = poll_stats(monitor, "json");
  EXPECT_NE(final_body.find("\"complete\":true"), std::string::npos)
      << final_body;
  EXPECT_EQ(stats_field(final_body, "rows_done"), trials.size());
  EXPECT_EQ(stats_field(final_body, "duplicate_rows"), 0u);
  EXPECT_EQ(stats_field(final_body, "workers_seen"), 2u);
  EXPECT_EQ(stats_field(final_body, "leases_outstanding"), 0u);

  // The prom rendering of the same registry scrapes the same total.
  const std::string prom = poll_stats(monitor, "prom");
  EXPECT_NE(prom.find("# TYPE adaptbf_dispatch_rows_journaled_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("adaptbf_dispatch_rows_journaled_total " +
                      std::to_string(trials.size()) + "\n"),
            std::string::npos)
      << prom;

  opened.coordinator->request_stop();
  const DispatchServeResult served = serving.join();
  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(served.complete);

  // The reported totals are the journal's totals.
  const CampaignScan scan = scan_campaign_file(journal, sweep.name, trials);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.complete());
  EXPECT_EQ(scan.rows, stats_field(final_body, "rows_done"));
  const Artifacts distributed = export_artifacts(journal, sweep, trials);
  EXPECT_EQ(golden.csv, distributed.csv);
  EXPECT_EQ(golden.json, distributed.json);
  std::remove(golden_path.c_str());
  std::remove(journal.c_str());
}

TEST(DispatchStats, ReclaimedButCompletedLeaseIsNotCountedReclaimed) {
  // Regression: a lease whose trials were ALL journaled by other
  // connections before its silent owner timed out used to count as a
  // reclaim and requeue an already-done chunk. It must do neither.
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string golden_path = testing::TempDir() + "dispatch_rcg.jsonl";
  const Artifacts golden = golden_artifacts(sweep, trials, golden_path);
  const std::map<std::size_t, std::string> rows = golden_rows(golden_path);

  const std::string journal = testing::TempDir() + "dispatch_reclaim.jsonl";
  std::remove(journal.c_str());
  DispatchCoordinatorOptions options = coordinator_options();
  options.lease_timeout_s = 0.4;
  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/false, options);
  ASSERT_TRUE(opened.ok()) << opened.error;
  const std::uint16_t port = opened.coordinator->port();
  ServeThread serving(*opened.coordinator);

  // The victim takes a lease and goes silent.
  RawClient victim;
  ASSERT_TRUE(victim.connect(port));
  ASSERT_TRUE(victim.send(dispatch_wire::hello(
      sweep.name, sweep_grid_hash(trials), trials.size())));
  Message msg;
  ASSERT_TRUE(victim.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kWelcome);
  ASSERT_TRUE(victim.send(dispatch_wire::request()));
  ASSERT_TRUE(victim.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kLease);
  const std::uint64_t victim_lease = msg.lease;
  const std::vector<std::uint64_t> victim_indices = msg.indices;
  ASSERT_FALSE(victim_indices.empty());

  // A second connection delivers the victim's whole lease. Non-owner
  // rows are journaled but never retire someone else's lease, so the
  // victim's lease stays outstanding with every trial already done.
  RawClient helper;
  ASSERT_TRUE(helper.connect(port));
  ASSERT_TRUE(helper.send(dispatch_wire::hello(
      sweep.name, sweep_grid_hash(trials), trials.size())));
  ASSERT_TRUE(helper.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kWelcome);
  for (const std::uint64_t index : victim_indices)
    ASSERT_TRUE(
        helper.send(dispatch_wire::result(victim_lease, rows.at(index))));
  const std::string mid = poll_stats(helper, "json");
  EXPECT_EQ(stats_field(mid, "rows_done"), victim_indices.size());
  EXPECT_EQ(stats_field(mid, "leases_outstanding"), 1u);
  helper.socket.close();

  // Block until the timeout sweep evicts the victim (EOF on its socket):
  // reclaim() ran on a lease with nothing left to re-run.
  std::string payload, error;
  EXPECT_FALSE(read_frame(victim.socket, payload, error));

  // A real worker finishes the remainder.
  DispatchWorkResult worker;
  std::thread worker_thread([&] {
    worker = run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                                 worker_options());
  });
  worker_thread.join();
  const DispatchServeResult served = serving.join();

  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_TRUE(served.complete);
  EXPECT_TRUE(worker.ok()) << worker.error;
  // The heart of the regression: no reclaim was counted, no chunk was
  // requeued, so nothing was re-run or double-journaled.
  EXPECT_EQ(served.leases_reclaimed, 0u);
  EXPECT_EQ(served.duplicate_rows, 0u);
  EXPECT_EQ(served.rows_received, trials.size());
  EXPECT_EQ(worker.trials_run, trials.size() - victim_indices.size());

  const CampaignScan scan = scan_campaign_file(journal, sweep.name, trials);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_TRUE(scan.complete());
  EXPECT_EQ(scan.duplicate_rows, 0u);
  const Artifacts distributed = export_artifacts(journal, sweep, trials);
  EXPECT_EQ(golden.csv, distributed.csv);
  EXPECT_EQ(golden.json, distributed.json);
  std::remove(golden_path.c_str());
  std::remove(journal.c_str());
}

// ------------------------------------------------- protocol misuse, named

class DispatchNegative : public ::testing::Test {
 protected:
  void SetUp() override {
    sweep_ = small_sweep();
    trials_ = sweep_.expand();
    journal_ = testing::TempDir() + "dispatch_neg.jsonl";
    std::remove(journal_.c_str());
    auto opened = DispatchCoordinator::open(journal_, sweep_.name, trials_,
                                            /*resume=*/false,
                                            coordinator_options());
    ASSERT_TRUE(opened.ok()) << opened.error;
    coordinator_ = std::move(opened.coordinator);
    serving_ = std::make_unique<ServeThread>(*coordinator_);
  }
  void TearDown() override {
    coordinator_->request_stop();
    const DispatchServeResult served = serving_->join();
    EXPECT_TRUE(served.ok()) << served.error;
    EXPECT_FALSE(served.complete);  // Negative clients run no trials.
    std::remove(journal_.c_str());
  }

  /// Expects the coordinator to answer `payload` with an error frame
  /// whose text contains `needle`, then close the connection.
  void expect_rejection(const std::string& payload,
                        const std::string& needle) {
    RawClient client;
    ASSERT_TRUE(client.connect(coordinator_->port()));
    ASSERT_TRUE(client.send(payload));
    Message msg;
    ASSERT_TRUE(client.read(msg));
    ASSERT_EQ(msg.type, Message::Type::kError);
    EXPECT_NE(msg.message.find(needle), std::string::npos) << msg.message;
    // The connection is dropped after the error frame.
    std::string extra, error;
    EXPECT_FALSE(read_frame(client.socket, extra, error));
  }

  SweepSpec sweep_;
  std::vector<TrialSpec> trials_;
  std::string journal_;
  std::unique_ptr<DispatchCoordinator> coordinator_;
  std::unique_ptr<ServeThread> serving_;
};

TEST_F(DispatchNegative, ForeignProtocolVersionRejectedByName) {
  expect_rejection("{\"adaptbf_dispatch\":2,\"type\":\"hello\"}",
                   "version mismatch");
}

TEST_F(DispatchNegative, WrongSweepNameRejected) {
  expect_rejection(
      dispatch_wire::hello("other_sweep", sweep_grid_hash(trials_),
                           trials_.size()),
      "serves sweep");
}

TEST_F(DispatchNegative, WrongGridHashRejected) {
  expect_rejection(
      dispatch_wire::hello(sweep_.name, sweep_grid_hash(trials_) ^ 1,
                           trials_.size()),
      "different campaign grid");
}

TEST_F(DispatchNegative, MalformedMessageRejected) {
  expect_rejection("this is not json", "malformed");
}

TEST_F(DispatchNegative, RequestBeforeHelloRejected) {
  expect_rejection(dispatch_wire::request(), "before hello");
}

TEST_F(DispatchNegative, BadFrameMagicDropsTheConnection) {
  RawClient client;
  ASSERT_TRUE(client.connect(coordinator_->port()));
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(client.socket.send_all(garbage.data(), garbage.size()));
  Message msg;
  ASSERT_TRUE(client.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kError);
  EXPECT_NE(msg.message.find("magic"), std::string::npos) << msg.message;
  std::string extra, error;
  EXPECT_FALSE(read_frame(client.socket, extra, error));
}

TEST_F(DispatchNegative, ForeignStatsVersionRejectedByName) {
  expect_rejection(
      "{\"adaptbf_dispatch\":1,\"type\":\"stats\",\"stats_version\":99}",
      "stats version mismatch");
}

TEST_F(DispatchNegative, UnknownStatsFormatRejected) {
  expect_rejection(dispatch_wire::stats_request("xml"), "unknown stats format");
}

TEST_F(DispatchNegative, StatsReplySentToCoordinatorRejected) {
  expect_rejection(dispatch_wire::stats_reply("{}"),
                   "coordinator-only message");
}

TEST_F(DispatchNegative, ForgedResultRowRejected) {
  RawClient client;
  ASSERT_TRUE(client.connect(coordinator_->port()));
  ASSERT_TRUE(client.send(dispatch_wire::hello(
      sweep_.name, sweep_grid_hash(trials_), trials_.size())));
  Message msg;
  ASSERT_TRUE(client.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kWelcome);
  // A syntactically valid row for a trial the grid doesn't contain.
  TrialResult forged;
  forged.index = trials_.size() + 100;
  forged.scenario = "small";
  ASSERT_TRUE(client.send(
      dispatch_wire::result(1, trial_to_jsonl(forged))));
  ASSERT_TRUE(client.read(msg));
  ASSERT_EQ(msg.type, Message::Type::kError);
  EXPECT_NE(msg.message.find("does not match the campaign grid"),
            std::string::npos)
      << msg.message;
}

// ----------------------------------------------------- after the serve

/// Runs a worker against `coordinator` after it stopped serving and
/// reports whether the worker came back within a few seconds. The
/// coordinator is destroyed either way, which frees a parked worker.
bool late_worker_returns(std::unique_ptr<DispatchCoordinator>& coordinator,
                         const SweepSpec& sweep,
                         const std::vector<TrialSpec>& trials) {
  DispatchWorkerOptions options = worker_options();
  options.connect_wait_s = 0.0;
  const std::uint16_t port = coordinator->port();
  auto late = std::async(std::launch::async, [&] {
    return run_dispatch_worker("127.0.0.1", port, sweep.name, trials,
                               options);
  });
  const bool returned =
      late.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  coordinator.reset();
  EXPECT_FALSE(late.get().ok());
  return returned;
}

TEST(DispatchLifecycle, WorkersConnectingAfterTheServeAreRefused) {
  // A worker that connects once serving is over used to park in the
  // listener's accept backlog until the coordinator was destroyed, so a
  // caller joining its workers first (as the search fleet test does)
  // hung whenever one worker started late.
  const SweepSpec sweep = small_sweep();
  const auto trials = sweep.expand();
  const std::string journal = testing::TempDir() + "late_worker.jsonl";
  (void)golden_artifacts(sweep, trials, journal);

  auto opened = DispatchCoordinator::open(journal, sweep.name, trials,
                                          /*resume=*/true,
                                          coordinator_options());
  ASSERT_TRUE(opened.ok()) << opened.error;
  const DispatchServeResult served = opened.coordinator->serve();
  ASSERT_TRUE(served.complete);
  EXPECT_TRUE(late_worker_returns(opened.coordinator, sweep, trials));

  auto adaptive =
      DispatchCoordinator::open_adaptive(sweep.name, trials,
                                         coordinator_options());
  ASSERT_TRUE(adaptive.ok()) << adaptive.error;
  adaptive.coordinator->finish();
  EXPECT_TRUE(late_worker_returns(adaptive.coordinator, sweep, trials));
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace adaptbf
