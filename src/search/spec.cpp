#include "search/spec.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "support/fnv.h"
#include "support/json.h"

namespace adaptbf {

namespace {

/// Halving rounds from `n` candidates to a sole survivor.
std::uint32_t halving_rounds(std::size_t n) {
  std::uint32_t rounds = 0;
  while (n > 1) {
    n = (n + 1) / 2;
    ++rounds;
  }
  return rounds;
}

}  // namespace

const char* search_controller_name(SearchControllerKind kind) {
  switch (kind) {
    case SearchControllerKind::kBisect: return "bisect";
    case SearchControllerKind::kGolden: return "golden";
    case SearchControllerKind::kHalving: return "halving";
  }
  return "?";
}

std::vector<double> SearchSpec::inputs() const {
  std::vector<double> values = ladder;
  if (values.empty() && points >= 2 && hi > lo) {
    values.reserve(points);
    for (std::uint32_t i = 0; i < points; ++i)
      values.push_back(lo + (hi - lo) * static_cast<double>(i) /
                                static_cast<double>(points - 1));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

SweepAxis SearchSpec::ladder_axis() const {
  SweepAxis axis{input, {}};
  for (const double value : inputs())
    axis.values.push_back(json_num_exact(value));
  return axis;
}

std::string SearchSpec::validate(const SweepSpec& base) const {
  if (base.scenarios.size() != 1)
    return "search needs exactly one base scenario (got " +
           std::to_string(base.scenarios.size()) + ")";
  if (base.policies.size() != 1)
    return "search needs exactly one policy (got " +
           std::to_string(base.policies.size()) + ")";
  for (const SweepAxis& axis : base.axes) {
    if (axis.key == input)
      return "searching " + input + ": drop its " + axis.key +
             " axis (the search ladder becomes that axis)";
    if (axis.values.size() > 1)
      return "search cannot ride a multi-valued " + axis.key + " axis";
  }
  if (inputs().size() < 2)
    return "search ladder needs at least 2 distinct values (ladder = "
           "<comma list>, or lo/hi/points)";
  const std::string invalid = validate_axis(ladder_axis());
  if (!invalid.empty()) return "search input: " + invalid;
  if (slo.empty()) return "search needs an SLO (slo = p99_ms<=N, ...)";
  if (budget == 0) return "search budget must be >= 1";
  if (probe_repetitions == 0) return "probe_repetitions must be >= 1";
  if (test_repetitions == 0) return "test_repetitions must be >= 1";
  if (!(pass_margin >= 0.0)) return "pass_margin must be >= 0";
  return "";
}

std::uint32_t SearchSpec::grid_repetitions() const {
  std::uint32_t probe_max = probe_repetitions;
  if (controller == SearchControllerKind::kHalving) {
    const std::uint32_t rounds = halving_rounds(inputs().size());
    if (rounds > 0)
      probe_max = probe_repetitions
                  << std::min<std::uint32_t>(rounds - 1, 20);
  }
  return std::max(probe_max, test_repetitions);
}

SweepSpec SearchSpec::probe_sweep(const SweepSpec& base) const {
  SweepSpec probe = base;
  probe.repetitions = grid_repetitions();
  probe.axes.push_back(ladder_axis());
  return probe;
}

std::uint64_t SearchSpec::search_hash() const {
  Fnv1a fnv;
  fnv.u64(static_cast<std::uint64_t>(controller));
  // Inputs older builds knew hash as their enum ordinals, so their
  // journals still resume; any other key hashes its name.
  const std::string_view ordinals[] = {"token_rate", "ewma_alpha",
                                       "bucket_depth"};
  const auto* it = std::find(std::begin(ordinals), std::end(ordinals), input);
  if (it != std::end(ordinals))
    fnv.u64(static_cast<std::uint64_t>(it - ordinals));
  else
    fnv.str(input);
  const std::vector<double> values = inputs();
  fnv.u64(values.size());
  for (const double value : values) fnv.f64(value);
  fnv.u64(slo.size());
  for (const Threshold& threshold : slo) {
    fnv.u64(static_cast<std::uint64_t>(threshold.metric));
    fnv.u64(static_cast<std::uint64_t>(threshold.cmp));
    fnv.f64(threshold.bound);
  }
  fnv.u64(static_cast<std::uint64_t>(objective.metric));
  fnv.f64(pass_margin);
  fnv.u64(budget);
  fnv.u64(probe_repetitions);
  fnv.u64(test_repetitions);
  return fnv.value();
}

std::unique_ptr<StepController> SearchSpec::make_controller() const {
  std::vector<double> values = inputs();
  switch (controller) {
    case SearchControllerKind::kBisect:
      return make_bisection_controller(std::move(values), probe_repetitions,
                                       budget);
    case SearchControllerKind::kGolden:
      return make_golden_section_controller(std::move(values),
                                            probe_repetitions, budget);
    case SearchControllerKind::kHalving:
      return make_successive_halving_controller(std::move(values),
                                                probe_repetitions, budget);
  }
  return nullptr;
}

}  // namespace adaptbf
