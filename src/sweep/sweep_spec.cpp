#include "sweep/sweep_spec.h"

#include <cstdio>
#include <string_view>

#include "support/check.h"
#include "support/random.h"
#include "workload/scenario_io.h"

namespace adaptbf {

namespace {

/// Steps an odometer over the axes, the last axis fastest; false once it
/// wraps around.
bool advance(std::vector<std::size_t>& at,
             const std::vector<SweepAxis>& axes) {
  for (std::size_t a = axes.size(); a-- > 0;) {
    if (++at[a] < axes[a].values.size()) return true;
    at[a] = 0;
  }
  return false;
}

/// Reseeds one trial's copy of its cell spec from the trial's private
/// stream, so (a) no two trials share generator state and (b) the same
/// repetition draws the same randomness under every policy.
ScenarioSpec reseed(ScenarioSpec spec, std::uint64_t seed,
                    SimDuration start_jitter) {
  std::uint64_t stream = 0;
  Xoshiro256 rng(seed);
  for (auto& job : spec.jobs) {
    for (auto& process : job.processes) {
      if (process.kind == ProcessPattern::Kind::kPoisson)
        process.seed = derive_stream_seed(seed, ++stream);
      if (start_jitter > SimDuration(0)) {
        const auto jitter_ns = static_cast<std::int64_t>(
            rng.next_double() * static_cast<double>(start_jitter.ns()));
        process.start_delay += SimDuration(jitter_ns);
      }
    }
  }
  return spec;
}

/// The scenario key an axis key sets.
std::string_view scenario_key(std::string_view axis_key) {
  return axis_key == "token_rate" ? "max_token_rate" : axis_key;
}

}  // namespace

std::string validate_axis(const SweepAxis& axis) {
  if (axis.key == "name" || axis.key == "control")  // Axes of their own.
    return "'" + axis.key + "' cannot be a grid axis";
  if (axis.key == "max_token_rate")
    return "'max_token_rate' is the token_rate axis";
  if (axis.values.empty()) return axis.key + " needs at least one value";
  ScenarioSpec scratch;
  for (const std::string& value : axis.values) {
    const std::string error =
        apply_scenario_key(scratch, scenario_key(axis.key), value);
    if (!error.empty()) return error;
  }
  return "";
}

std::string TrialSpec::cell_id() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "|%s|%u|%.6g",
                std::string(to_string(policy)).c_str(), num_osts,
                max_token_rate);
  return scenario + buf;
}

std::size_t SweepSpec::trial_count() const {
  std::size_t cells = scenarios.size() * policies.size();
  for (const SweepAxis& axis : axes) cells *= axis.values.size();
  return cells * repetitions;
}

std::vector<TrialSpec> SweepSpec::expand() const {
  ADAPTBF_CHECK_MSG(!scenarios.empty(), "sweep needs at least one scenario");
  ADAPTBF_CHECK_MSG(!policies.empty(), "sweep needs at least one policy");
  ADAPTBF_CHECK_MSG(repetitions > 0, "sweep needs repetitions >= 1");
  for (const SweepAxis& axis : axes) {
    const std::string error = validate_axis(axis);
    ADAPTBF_CHECK_MSG(error.empty(), error.c_str());
  }

  std::vector<TrialSpec> trials;
  trials.reserve(trial_count());
  for (const auto& scenario : scenarios) {
    for (const BwControl policy : policies) {
      std::vector<std::size_t> at(axes.size(), 0);
      for (bool more = true; more; more = advance(at, axes)) {
        ScenarioSpec cell = scenario.spec;
        cell.control = policy;
        cell.name = scenario.label;
        for (std::size_t a = 0; a < axes.size(); ++a) {
          const std::string& key = axes[a].key;
          const std::string& value = axes[a].values[at[a]];
          (void)apply_scenario_key(cell, scenario_key(key), value);
          // Each value reaches the cell id or the grid hash: osts and
          // token_rate fill trial fields, the hash covers the duration.
          if (key != "osts" && key != "token_rate" &&
              (key != "duration_s" || axes[a].values.size() > 1))
            cell.name += "@" + key + "=" + value;
        }
        for (std::uint32_t rep = 0; rep < repetitions; ++rep) {
          TrialSpec trial;
          trial.index = trials.size();
          trial.scenario = cell.name;
          trial.policy = policy;
          trial.repetition = rep;
          trial.seed = derive_stream_seed(base_seed, rep);
          trial.spec = reseed(cell, trial.seed, start_jitter);
          trial.num_osts = trial.spec.num_osts;
          trial.max_token_rate = trial.spec.max_token_rate;
          trials.push_back(std::move(trial));
        }
      }
    }
  }
  return trials;
}

}  // namespace adaptbf
