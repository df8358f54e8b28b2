#include "ost/ps_disk.h"

#include <gtest/gtest.h>

#include <vector>

namespace adaptbf {
namespace {

TEST(PsDisk, SingleTransferAtFullBandwidth) {
  Simulator sim;
  PsDisk disk(sim, 1000.0);  // 1000 work-bytes/s
  SimTime done_at;
  disk.admit(1, 500.0, [&](std::uint64_t) { done_at = sim.now(); });
  sim.run_to_completion();
  EXPECT_NEAR(done_at.to_seconds(), 0.5, 1e-6);
}

TEST(PsDisk, TwoEqualTransfersShareBandwidth) {
  Simulator sim;
  PsDisk disk(sim, 1000.0);
  std::vector<double> done_times;
  for (std::uint64_t tag = 1; tag <= 2; ++tag)
    disk.admit(tag, 500.0,
               [&](std::uint64_t) { done_times.push_back(sim.now().to_seconds()); });
  sim.run_to_completion();
  ASSERT_EQ(done_times.size(), 2u);
  // Each proceeds at 500 B/s: both finish at t=1.0.
  EXPECT_NEAR(done_times[0], 1.0, 1e-6);
  EXPECT_NEAR(done_times[1], 1.0, 1e-6);
}

TEST(PsDisk, UnequalTransfersFinishInSizeOrder) {
  Simulator sim;
  PsDisk disk(sim, 1000.0);
  double small_done = 0.0, big_done = 0.0;
  disk.admit(1, 200.0, [&](std::uint64_t) { small_done = sim.now().to_seconds(); });
  disk.admit(2, 800.0, [&](std::uint64_t) { big_done = sim.now().to_seconds(); });
  sim.run_to_completion();
  // Shared until small finishes at t=0.4 (200/(1000/2)); big then has
  // 600 left at full rate: t = 0.4 + 0.6 = 1.0.
  EXPECT_NEAR(small_done, 0.4, 1e-6);
  EXPECT_NEAR(big_done, 1.0, 1e-6);
}

TEST(PsDisk, LateArrivalSharesRemainder) {
  Simulator sim;
  PsDisk disk(sim, 1000.0);
  double first_done = 0.0, second_done = 0.0;
  disk.admit(1, 1000.0, [&](std::uint64_t) { first_done = sim.now().to_seconds(); });
  sim.schedule_at(SimTime::zero() + SimDuration::millis(500), [&] {
    disk.admit(2, 250.0,
               [&](std::uint64_t) { second_done = sim.now().to_seconds(); });
  });
  sim.run_to_completion();
  // First runs alone 0..0.5 (500 done). Then shares: each gets 500 B/s.
  // Second finishes 250/500 = 0.5s later at t=1.0; first then has 250
  // left at full rate: t = 1.0 + 0.25.
  EXPECT_NEAR(second_done, 1.0, 1e-6);
  EXPECT_NEAR(first_done, 1.25, 1e-6);
}

TEST(PsDisk, TiesCompleteInAdmissionOrder) {
  Simulator sim;
  PsDisk disk(sim, 100.0);
  std::vector<std::uint64_t> order;
  for (std::uint64_t tag = 10; tag >= 1; --tag)
    disk.admit(tag, 50.0, [&order](std::uint64_t t) { order.push_back(t); });
  sim.run_to_completion();
  ASSERT_EQ(order.size(), 10u);
  // Admission went 10, 9, ..., 1 — completions must match that order.
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], 10 - i);
}

// A transfer finishing first must not reorder the survivors: after tag 10
// completes, 40, 30 and 20 tie and complete in admission order. Removing
// 10 by swapping in the last entry would give 40, 20, 30; scanning in tag
// order would give 20, 30, 40.
TEST(PsDisk, TiesAfterAnEarlierCompletionKeepAdmissionOrder) {
  Simulator sim;
  PsDisk disk(sim, 300.0);
  std::vector<std::uint64_t> order;
  const auto record = [&order](std::uint64_t tag) { order.push_back(tag); };
  disk.admit(40, 300.0, record);
  disk.admit(10, 100.0, record);
  disk.admit(30, 300.0, record);
  disk.admit(20, 300.0, record);
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{10, 40, 30, 20}));
  EXPECT_EQ(disk.active(), 0u);
}

TEST(PsDisk, WorkConservation) {
  Simulator sim;
  PsDisk disk(sim, 1000.0);
  int completions = 0;
  double total_work = 0.0;
  for (std::uint64_t tag = 0; tag < 20; ++tag) {
    const double work = 100.0 + static_cast<double>(tag) * 37.0;
    total_work += work;
    disk.admit(tag, work, [&](std::uint64_t) { ++completions; });
  }
  sim.run_to_completion();
  EXPECT_EQ(completions, 20);
  EXPECT_NEAR(disk.work_completed(), total_work, 1.0);
  // 20 transfers totalling `total_work` at 1000 B/s must take exactly
  // total_work/1000 seconds — processor sharing never idles the device.
  EXPECT_NEAR(sim.now().to_seconds(), total_work / 1000.0, 1e-3);
}

TEST(PsDisk, CompletionCallbackCanAdmitMore) {
  Simulator sim;
  PsDisk disk(sim, 1000.0);
  double chained_done = 0.0;
  disk.admit(1, 500.0, [&](std::uint64_t) {
    disk.admit(2, 500.0,
               [&](std::uint64_t) { chained_done = sim.now().to_seconds(); });
  });
  sim.run_to_completion();
  EXPECT_NEAR(chained_done, 1.0, 1e-6);
}

TEST(PsDisk, ManySmallTransfersDrainCompletely) {
  Simulator sim;
  PsDisk disk(sim, 1e6);
  int completions = 0;
  for (std::uint64_t tag = 0; tag < 500; ++tag)
    disk.admit(tag, 1.0 + static_cast<double>(tag % 7),
               [&](std::uint64_t) { ++completions; });
  sim.run_to_completion();
  EXPECT_EQ(completions, 500);
  EXPECT_EQ(disk.active(), 0u);
}

}  // namespace
}  // namespace adaptbf
