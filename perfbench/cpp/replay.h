// Replay microbenches for the layers that have no wrap seam.
//
// PsDisk sits inside Ost, the token allocator and rule daemon inside the
// AdapTBF controller, and frame decoding inside the coordinator's poll
// loop; none of them can be wrapped from outside. Instead a traced run
// captures their inputs (traced_trial.h, relay.h) and feeds them back
// through the same public APIs, timing the calls. Each replay also checks
// its outputs against what the live run produced, so a replay that drifts
// from the live behaviour is reported instead of being timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "traced_trial.h"
#include "workload/scenario.h"

namespace perfbench {

struct PsDiskReplay {
  std::uint64_t rpcs = 0;
  std::int64_t ns = 0;               ///< Admit + complete through PsDisk.
  std::uint64_t mismatches = 0;      ///< Completion times that differ.
  double busy_transfer_ns = 0.0;     ///< Σ live service times.
};

/// Re-admits every captured transfer at its live time, OST by OST, and
/// compares each completion time with the live one.
[[nodiscard]] PsDiskReplay replay_psdisk(const adaptbf::ScenarioSpec& spec,
                                         const TrialCapture& capture);

struct AllocatorReplay {
  std::uint64_t windows = 0;
  std::int64_t allocate_ns = 0;  ///< TokenAllocator::allocate + GC.
  std::int64_t apply_ns = 0;     ///< RuleDaemon::apply on an empty scheduler.
  std::uint64_t mismatches = 0;  ///< Windows whose tokens differ.
};

/// Re-runs every captured AdapTBF window through a fresh TokenAllocator
/// and RuleDaemon configured as the live controller was.
[[nodiscard]] AllocatorReplay replay_allocator(const adaptbf::ScenarioSpec& spec,
                                               double max_token_rate,
                                               const TrialCapture& capture);

struct FrameReplay {
  std::uint64_t frames = 0;
  std::int64_t ns = 0;  ///< FrameReader::feed/next + dispatch_wire::parse.
  bool ok = false;      ///< Every frame decoded and parsed.
};

/// Decodes byte streams (one per connection direction), fed in the chunk
/// sizes they arrived in.
[[nodiscard]] FrameReplay replay_frames(
    const std::vector<std::vector<std::string>>& streams);

}  // namespace perfbench
