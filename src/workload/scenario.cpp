#include "workload/scenario.h"

#include <algorithm>

#include "support/check.h"

namespace adaptbf {

std::string_view to_string(BwControl policy) {
  switch (policy) {
    case BwControl::kNone: return "No BW";
    case BwControl::kStatic: return "Static BW";
    case BwControl::kAdaptive: return "AdapTBF";
    case BwControl::kGift: return "GIFT";
  }
  return "?";
}

std::string_view bw_control_config_name(BwControl policy) {
  switch (policy) {
    case BwControl::kNone: return "none";
    case BwControl::kStatic: return "static";
    case BwControl::kAdaptive: return "adaptive";
    case BwControl::kGift: return "gift";
  }
  return "?";
}

std::optional<BwControl> bw_control_from_name(std::string_view name) {
  if (name == "none") return BwControl::kNone;
  if (name == "static") return BwControl::kStatic;
  if (name == "adaptive") return BwControl::kAdaptive;
  if (name == "gift") return BwControl::kGift;
  return std::nullopt;
}

std::size_t estimate_peak_events(const ScenarioSpec& spec,
                                 std::size_t processes) {
  const std::size_t per_process =
      std::size_t{spec.max_inflight_per_process} + 2;
  const std::size_t per_ost = std::size_t{spec.num_threads} + 8;
  const std::size_t estimate =
      processes * per_process + spec.num_osts * per_ost + 64;
  return std::max<std::size_t>(estimate, 256);
}

std::size_t estimate_peak_events(const ScenarioSpec& spec) {
  std::size_t processes = 0;
  for (const auto& job : spec.jobs) processes += job.processes.size();
  return estimate_peak_events(spec, processes);
}

ProcessPattern continuous_pattern(std::uint64_t total_rpcs,
                                  SimDuration start_delay) {
  ProcessPattern pattern;
  pattern.kind = ProcessPattern::Kind::kContinuous;
  pattern.total_rpcs = total_rpcs;
  pattern.start_delay = start_delay;
  return pattern;
}

ProcessPattern poisson_pattern(std::uint64_t total_rpcs, double rate_per_sec,
                               std::uint64_t seed, SimDuration start_delay) {
  ADAPTBF_CHECK(rate_per_sec > 0.0);
  ProcessPattern pattern;
  pattern.kind = ProcessPattern::Kind::kPoisson;
  pattern.total_rpcs = total_rpcs;
  pattern.poisson_rate = rate_per_sec;
  pattern.seed = seed;
  pattern.start_delay = start_delay;
  return pattern;
}

ProcessPattern burst_pattern(std::uint64_t total_rpcs,
                             std::uint64_t burst_rpcs, SimDuration period,
                             SimDuration start_delay) {
  ADAPTBF_CHECK(burst_rpcs > 0);
  ProcessPattern pattern;
  pattern.kind = ProcessPattern::Kind::kPeriodicBurst;
  pattern.total_rpcs = total_rpcs;
  pattern.burst_rpcs = burst_rpcs;
  pattern.period = period;
  pattern.start_delay = start_delay;
  return pattern;
}

}  // namespace adaptbf
