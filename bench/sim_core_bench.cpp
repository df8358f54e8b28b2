// Event-core benchmark: events/s, allocations/event, trials/s,
// allocations per RPC.
//
// Prints machine-readable "key value" lines on stdout (wrapped into
// BENCH_sim_core.json by scripts/bench_to_json.sh, which CI uploads on
// every run — the perf trajectory of the whole sim stack). The binary
// replaces global operator new/delete with counting versions, so
// "allocations per event" is the real process-wide number, not a proxy:
// with the pooled event slots and inline callbacks, steady-state
// scheduling must allocate exactly nothing, a warmed Static BW paper
// trial must allocate next to nothing per RPC, and an AdapTBF trial may
// add only its per-window work (all enforced by --require-zero-alloc in
// CI).
//
// Usage: sim_core_bench [--events N] [--trials N] [--require-zero-alloc]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "cluster/experiment.h"
#include "sim/simulator.h"
#include "support/ini.h"
#include "workload/scenarios_paper.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) std::abort();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment);
  if (p == nullptr) std::abort();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace adaptbf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Self-rescheduling event chains: a steady population of kChains pending
/// events with pseudo-random (but deterministic) inter-event delays, so the
/// heap sees realistic disorder rather than FIFO insertion.
struct Ring {
  Simulator& sim;
  std::uint64_t remaining = 0;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto delay = static_cast<std::int64_t>(1 + (state >> 33) % 1000);
    sim.schedule_after(SimDuration(delay), [this] { fire(); });
  }

  void launch(int chains) {
    for (int i = 0; i < chains; ++i)
      sim.schedule_after(SimDuration(1 + i), [this] { fire(); });
  }
};

struct ChurnResult {
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
};

/// Same-timestamp storm: every chain re-schedules onto a shared 4096 ns
/// grid, 1-2 quanta ahead, so each tick fires a cohort of hundreds of
/// simultaneous events — the PS-disk-completion-tie / periodic-storm shape
/// that batched dispatch targets.
struct Storm {
  static constexpr std::int64_t kQuantumNs = 4096;

  Simulator& sim;
  std::uint64_t remaining = 0;
  std::uint64_t state = 0x2545f4914f6cdd1dULL;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto step = static_cast<std::int64_t>(1 + (state >> 33) % 2);
    const std::int64_t when =
        (sim.now().ns() / kQuantumNs + step) * kQuantumNs;
    sim.schedule_at(SimTime(when), [this] { fire(); });
  }

  void launch(int chains) {
    // All chains start on the same grid tick (relative to the clock, so a
    // relaunch after the warm-up drain stays in the future).
    const std::int64_t when =
        (sim.now().ns() / kQuantumNs + 1) * kQuantumNs;
    for (int i = 0; i < chains; ++i)
      sim.schedule_at(SimTime(when), [this] { fire(); });
  }
};

ChurnResult bench_churn(std::uint64_t events) {
  constexpr int kChains = 512;
  Simulator sim;
  sim.reserve_events(kChains + 8);
  Ring ring{sim};

  // Warm-up: grow every pool to steady-state size.
  ring.remaining = events / 10 + kChains;
  ring.launch(kChains);
  sim.run_to_completion();

  ring.remaining = events;
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  ring.launch(kChains);
  sim.run_to_completion();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocation_delta = allocations() - allocations_before;

  ChurnResult result;
  result.events_per_sec = static_cast<double>(events) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocation_delta) / static_cast<double>(events);
  return result;
}

ChurnResult bench_storm(std::uint64_t events) {
  constexpr int kChains = 512;
  Simulator sim;
  sim.reserve_events(kChains + 8);
  Storm storm{sim};

  storm.remaining = events / 10 + kChains;  // warm-up
  storm.launch(kChains);
  sim.run_to_completion();

  storm.remaining = events;
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  storm.launch(kChains);
  sim.run_to_completion();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocation_delta = allocations() - allocations_before;

  ChurnResult result;
  result.events_per_sec = static_cast<double>(events) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocation_delta) / static_cast<double>(events);
  return result;
}

ChurnResult bench_cancel(std::uint64_t pairs) {
  // Schedule-then-cancel against a populated queue: the O(1)-lookup cancel
  // path (slot generation check + direct heap removal, no hash sets).
  constexpr int kPending = 4096;
  Simulator sim;
  sim.reserve_events(kPending + 8);
  for (int i = 0; i < kPending; ++i)
    sim.schedule_at(SimTime(1'000'000'000 + i), [] {});

  std::uint64_t state = 0xdeadbeefcafef00dULL;
  auto churn_once = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto when = static_cast<std::int64_t>(1'000 + (state >> 33) % 999'000'000);
      const EventHandle handle = sim.schedule_at(SimTime(when), [] {});
      sim.cancel(handle);
    }
  };

  churn_once(pairs / 10 + 1);  // warm-up
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  churn_once(pairs);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocation_delta = allocations() - allocations_before;

  ChurnResult result;
  result.events_per_sec = static_cast<double>(pairs) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocation_delta) / static_cast<double>(pairs);
  return result;
}

struct TrialResultStats {
  double trials_per_sec = 0.0;
  double events_per_sec = 0.0;
  double allocs_per_rpc = 0.0;
};

/// A warmed trial's per-RPC bookkeeping is allocation-free; what remains
/// is trial setup and geometric growth of result vectors.
constexpr double kMaxTrialAllocsPerRpc = 0.01;
/// AdapTBF trials add the controller's per-window vectors (stats snapshot,
/// allocator inputs, window result) and rule starts: 0.026 per RPC on
/// the token-allocation scenario, gated with headroom.
constexpr double kMaxAdaptiveTrialAllocsPerRpc = 0.04;

TrialResultStats bench_trials(BwControl control, std::uint64_t trials) {
  // Full run_experiment trials of a paper scenario: the number every
  // campaign backend (threaded, sharded, dispatched) multiplies. Runs the
  // way a sweep worker does — one simulator reset() and reused per trial.
  const ScenarioSpec spec = scenario_token_allocation(control);
  Simulator sim;
  ExperimentOptions options = ExperimentOptions::without_trace();
  options.simulator = &sim;
  std::uint64_t events = 0;
  std::uint64_t rpcs = 0;
  (void)run_experiment(spec, options);  // warm-up
  const std::uint64_t allocations_before = allocations();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < trials; ++i) {
    const auto result = run_experiment(spec, options);
    events += result.events_dispatched;
    for (const JobSummary& job : result.jobs) rpcs += job.rpcs_completed;
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocation_delta = allocations() - allocations_before;
  TrialResultStats stats;
  stats.trials_per_sec = static_cast<double>(trials) / elapsed;
  stats.events_per_sec = static_cast<double>(events) / elapsed;
  stats.allocs_per_rpc =
      static_cast<double>(allocation_delta) / static_cast<double>(rpcs);
  return stats;
}

int usage() {
  std::fprintf(stderr,
               "usage: sim_core_bench [--events N] [--trials N] "
               "[--require-zero-alloc]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  std::uint64_t trials = 8;
  bool require_zero_alloc = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], events) || events == 0) return usage();
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], trials) || trials == 0) return usage();
    } else if (std::strcmp(argv[i], "--require-zero-alloc") == 0) {
      require_zero_alloc = true;
    } else {
      return usage();
    }
  }

  const ChurnResult churn = bench_churn(events);
  const ChurnResult cancel = bench_cancel(events / 2);
  const ChurnResult storm = bench_storm(events);
  const TrialResultStats experiment =
      bench_trials(BwControl::kAdaptive, trials);
  const TrialResultStats static_trial = bench_trials(BwControl::kStatic, 1);

  std::printf("schema_version 4\n");
  std::printf("events_total %llu\n", static_cast<unsigned long long>(events));
  std::printf("events_per_sec %.0f\n", churn.events_per_sec);
  std::printf("steady_allocs_per_event %.8f\n", churn.allocs_per_event);
  std::printf("cancel_pairs_per_sec %.0f\n", cancel.events_per_sec);
  std::printf("steady_allocs_per_cancel %.8f\n", cancel.allocs_per_event);
  std::printf("storm_batched_events_per_sec %.0f\n", storm.events_per_sec);
  std::printf("storm_allocs_per_event %.8f\n", storm.allocs_per_event);
  std::printf("experiment_trials %llu\n",
              static_cast<unsigned long long>(trials));
  std::printf("trials_per_sec %.3f\n", experiment.trials_per_sec);
  std::printf("experiment_events_per_sec %.0f\n",
              experiment.events_per_sec);
  std::printf("trial_allocs_per_rpc %.6f\n", static_trial.allocs_per_rpc);
  std::printf("adaptive_trial_allocs_per_rpc %.6f\n",
              experiment.allocs_per_rpc);

  if (!require_zero_alloc) return 0;
  int status = 0;
  if (churn.allocs_per_event != 0.0 || cancel.allocs_per_event != 0.0 ||
      storm.allocs_per_event != 0.0) {
    std::fprintf(stderr,
                 "sim_core_bench: steady-state scheduling allocated "
                 "(%.8f/event, %.8f/cancel, %.8f/storm-event) — the "
                 "allocation-free contract is broken\n",
                 churn.allocs_per_event, cancel.allocs_per_event,
                 storm.allocs_per_event);
    status = 1;
  }
  if (static_trial.allocs_per_rpc > kMaxTrialAllocsPerRpc) {
    std::fprintf(stderr,
                 "sim_core_bench: a warmed Static BW trial allocated "
                 "%.6f times per RPC (limit %.2f) — the per-RPC path "
                 "allocates again\n",
                 static_trial.allocs_per_rpc, kMaxTrialAllocsPerRpc);
    status = 1;
  }
  if (experiment.allocs_per_rpc > kMaxAdaptiveTrialAllocsPerRpc) {
    std::fprintf(stderr,
                 "sim_core_bench: AdapTBF trials allocated %.6f times per "
                 "RPC (limit %.2f) — the per-window control path "
                 "allocates more again\n",
                 experiment.allocs_per_rpc, kMaxAdaptiveTrialAllocsPerRpc);
    status = 1;
  }
  return status;
}

}  // namespace
}  // namespace adaptbf

int main(int argc, char** argv) { return adaptbf::run(argc, argv); }
