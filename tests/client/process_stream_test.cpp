#include "client/process_stream.h"

#include <gtest/gtest.h>

#include <memory>

#include "client/client_system.h"
#include "support/units.h"
#include "tbf/fcfs_scheduler.h"

namespace adaptbf {
namespace {

Ost::Config fast_ost() {
  Ost::Config config;
  config.num_threads = 4;
  config.disk.seq_bandwidth = mib_per_sec(1000);
  config.disk.per_rpc_overhead = SimDuration(0);
  return config;
}

ProcessStream::Config process_config(std::uint32_t job,
                                     std::uint32_t inflight = 4) {
  ProcessStream::Config config;
  config.job = JobId(job);
  config.nid = Nid(0);
  config.rpc_size_bytes = 1024 * 1024;
  config.max_inflight = inflight;
  return config;
}

TEST(ProcessStream, CompletesContinuousPattern) {
  Simulator sim;
  Ost ost(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim);
  clients.attach_ost(ost);
  auto& process = clients.add_process(
      ost, process_config(1),
      std::make_unique<ContinuousPattern>(64, SimDuration(0)));
  clients.start_all();
  sim.run_to_completion();
  EXPECT_TRUE(process.finished());
  EXPECT_EQ(process.issued(), 64u);
  EXPECT_EQ(process.completed(), 64u);
  EXPECT_EQ(process.inflight(), 0u);
  // 64 MiB at 1000 MiB/s.
  EXPECT_NEAR(process.finish_time().to_seconds(), 0.064, 1e-3);
}

TEST(ProcessStream, InflightWindowNeverExceeded) {
  Simulator sim;
  Ost ost(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim);
  clients.attach_ost(ost);
  auto& process = clients.add_process(
      ost, process_config(1, /*inflight=*/2),
      std::make_unique<ContinuousPattern>(32, SimDuration(0)));
  std::uint64_t max_seen = 0;
  ost.add_completion_hook([&](const RpcCompletion&) {
    max_seen = std::max(max_seen, process.inflight());
  });
  clients.start_all();
  sim.run_to_completion();
  EXPECT_TRUE(process.finished());
  EXPECT_LE(max_seen, 2u);
}

TEST(ProcessStream, BurstPatternIssuesAtBurstTimes) {
  Simulator sim;
  Ost ost(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim);
  clients.attach_ost(ost);
  auto& process = clients.add_process(
      ost, process_config(1, /*inflight=*/16),
      std::make_unique<PeriodicBurstPattern>(20, 10, SimDuration::seconds(1),
                                             SimDuration(0)));
  clients.start_all();
  sim.run_until(SimTime::zero() + SimDuration::millis(500));
  EXPECT_EQ(process.issued(), 10u);  // only the first burst so far
  sim.run_to_completion();
  EXPECT_TRUE(process.finished());
  EXPECT_EQ(process.completed(), 20u);
}

TEST(ProcessStream, DelayedStartIssuesNothingEarly) {
  Simulator sim;
  Ost ost(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim);
  clients.attach_ost(ost);
  auto& process = clients.add_process(
      ost, process_config(1),
      std::make_unique<ContinuousPattern>(8, SimDuration::seconds(10)));
  clients.start_all();
  sim.run_until(SimTime::zero() + SimDuration::seconds(9));
  EXPECT_EQ(process.issued(), 0u);
  sim.run_to_completion();
  EXPECT_TRUE(process.finished());
}

TEST(ClientSystem, RoutesCompletionsAcrossProcesses) {
  Simulator sim;
  Ost ost(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim);
  clients.attach_ost(ost);
  auto& p1 = clients.add_process(
      ost, process_config(1),
      std::make_unique<ContinuousPattern>(16, SimDuration(0)));
  auto& p2 = clients.add_process(
      ost, process_config(2),
      std::make_unique<ContinuousPattern>(24, SimDuration(0)));
  clients.start_all();
  sim.run_to_completion();
  EXPECT_EQ(p1.completed(), 16u);
  EXPECT_EQ(p2.completed(), 24u);
  EXPECT_TRUE(clients.all_finished());
}

// Completions route back by the issuing process, not by job or OST: job 1
// runs one process on each OST, job 2 shares the first OST, and every
// completion crosses a response latency before it reaches its process.
TEST(ClientSystem, RoutesOneJobsProcessesAcrossOsts) {
  Simulator sim;
  Ost first(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  Ost second(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim, SimDuration::millis(2));
  clients.attach_ost(first);
  clients.attach_ost(second);
  auto second_process = process_config(1, 3);
  second_process.process_index = 1;
  auto& job1_first = clients.add_process(
      first, process_config(1, 3),
      std::make_unique<ContinuousPattern>(30, SimDuration(0)));
  auto& job1_second = clients.add_process(
      second, second_process,
      std::make_unique<ContinuousPattern>(50, SimDuration(0)));
  auto& job2 = clients.add_process(
      first, process_config(2, 3),
      std::make_unique<ContinuousPattern>(20, SimDuration(0)));
  clients.start_all();
  sim.run_to_completion();

  EXPECT_EQ(job1_first.issued(), 30u);
  EXPECT_EQ(job1_first.completed(), 30u);
  EXPECT_EQ(job1_second.issued(), 50u);
  EXPECT_EQ(job1_second.completed(), 50u);
  EXPECT_EQ(job2.issued(), 20u);
  EXPECT_EQ(job2.completed(), 20u);
  for (const ProcessStream* process : {&job1_first, &job1_second, &job2})
    EXPECT_EQ(process->inflight(), 0u);
  EXPECT_TRUE(clients.all_finished());
  EXPECT_EQ(first.completed_rpcs(), 50u);
  EXPECT_EQ(second.completed_rpcs(), 50u);
}

TEST(ClientSystem, JobFinishTimeIsLastProcess) {
  Simulator sim;
  Ost ost(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim);
  clients.attach_ost(ost);
  clients.add_process(ost, process_config(1),
                      std::make_unique<ContinuousPattern>(8, SimDuration(0)));
  clients.add_process(
      ost, process_config(1),
      std::make_unique<ContinuousPattern>(8, SimDuration::seconds(1)));
  clients.start_all();
  sim.run_to_completion();
  EXPECT_GT(clients.job_finish_time(JobId(1)).to_seconds(), 1.0);
}

TEST(ClientSystem, AllFinishedFalseWhileRunning) {
  Simulator sim;
  Ost ost(sim, fast_ost(), std::make_unique<FcfsScheduler>());
  ClientSystem clients(sim);
  clients.attach_ost(ost);
  clients.add_process(ost, process_config(1),
                      std::make_unique<ContinuousPattern>(1024, SimDuration(0)));
  clients.start_all();
  sim.run_until(SimTime::zero() + SimDuration::millis(1));
  EXPECT_FALSE(clients.all_finished());
}

}  // namespace
}  // namespace adaptbf
