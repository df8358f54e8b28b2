// One trial wired by the benchmark itself, with timing seams.
//
// traced_trial() builds the same testbed run_experiment() builds, from the
// same public classes, in the same order, so the simulator schedules and
// dispatches exactly the same events. On top it adds seams that never
// schedule anything:
//   - a RequestScheduler decorator returned by the Oss factory (tbf);
//   - an IoPattern decorator around every process pattern (client.pattern);
//   - completion hooks registered just before and just after
//     ClientSystem::attach_ost on each OST, which bracket routing
//     (client.route);
//   - the benchmark's own timeline/latency hook in place of the
//     harness's (metrics.record);
//   - one span per Simulator::run_until bin (sim.run_until), plus setup
//     and teardown spans (cluster.*).
// The selftest and every traced run check the claim of equality: for a
// sampled trial of each grid cell, the FNV (time, seq) dispatch hash, the
// event counters and the summarized row must equal run_experiment's.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "adaptbf/allocation_types.h"
#include "adaptbf/token_allocator.h"
#include "cluster/experiment.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "support/fnv.h"
#include "tracer.h"
#include "workload/scenario.h"

namespace perfbench {

/// Inputs captured from a live trial for the layers that have no wrap
/// seam (replay.h replays them through the layers' public APIs).
struct TrialCapture {
  struct Admit {
    std::uint32_t ost = 0;
    std::int64_t when_ns = 0;
    adaptbf::Rpc rpc;
  };
  /// Every RPC handed to an OST's device, in live admit order. The OST
  /// admits to its PsDisk right after each successful dequeue.
  std::vector<Admit> admits;
  /// (rpc id, end_service ns) for every completion.
  std::vector<std::pair<std::uint64_t, std::int64_t>> completions;
  /// Every AdapTBF window, per controller (one per OST).
  std::vector<std::vector<adaptbf::WindowResult>> windows;
};

/// FNV-1a over the (fire time, schedule sequence) of every dispatched
/// event — the fingerprint tests/integration/golden_trace_test.cpp pins.
class DispatchHash {
 public:
  void mix(adaptbf::SimTime when, std::uint64_t seq) {
    fnv_.i64(when.ns());
    fnv_.u64(seq);
  }
  [[nodiscard]] std::uint64_t value() const { return fnv_.value(); }

 private:
  adaptbf::Fnv1a fnv_;
};

/// The token allocator's configuration for one OST of `spec`, as
/// run_experiment derives it; `total_rate` is the OST's token rate.
[[nodiscard]] adaptbf::AllocatorConfig allocator_config(const adaptbf::ScenarioSpec& spec,
                                                        double total_rate);

/// Runs one trial on `sim` (reset first, as SweepRunner's workers do).
/// Spans and counts go to `tracer`; `capture` and `hash` are optional.
[[nodiscard]] adaptbf::ExperimentResult traced_trial(
    const adaptbf::ScenarioSpec& spec, adaptbf::Simulator& sim, Tracer& tracer,
    TrialCapture* capture = nullptr, DispatchHash* hash = nullptr);

}  // namespace perfbench
