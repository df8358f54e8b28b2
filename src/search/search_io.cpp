#include "search/search_io.h"

#include "support/ini.h"

namespace adaptbf {

namespace {

SearchLoadResult fail(std::string message) {
  SearchLoadResult result;
  result.error = "[search] " + std::move(message);
  return result;
}

}  // namespace

SearchLoadResult load_search(
    const std::vector<std::pair<std::string, std::string>>& entries,
    bool require_slo) {
  if (entries.empty() && require_slo)
    return fail("section is empty (needs slo = at least)");

  SearchSpec spec;
  bool saw_slo = false;
  bool saw_range = false;
  std::vector<std::string> seen;
  for (const auto& [key, value] : entries) {
    for (const std::string& earlier : seen)
      if (earlier == key) return fail("duplicate key '" + key + "'");
    seen.push_back(key);

    if (key == "controller") {
      if (value == "bisect") spec.controller = SearchControllerKind::kBisect;
      else if (value == "golden")
        spec.controller = SearchControllerKind::kGolden;
      else if (value == "halving")
        spec.controller = SearchControllerKind::kHalving;
      else
        return fail("bad controller '" + value +
                    "' (bisect|golden|halving)");
    } else if (key == "input") {
      spec.input = value;  // Checked with the rungs below.
    } else if (key == "ladder") {
      for (const auto& item : split_list(value)) {
        double rung = 0.0;
        if (!parse_double(item, rung))
          return fail("bad ladder value '" + item + "'");
        spec.ladder.push_back(rung);
      }
      if (spec.ladder.empty()) return fail("ladder list is empty");
    } else if (key == "lo") {
      if (!parse_double(value, spec.lo)) return fail("bad lo");
      saw_range = true;
    } else if (key == "hi") {
      if (!parse_double(value, spec.hi)) return fail("bad hi");
      saw_range = true;
    } else if (key == "points") {
      std::uint64_t points = 0;
      if (!parse_u64(value, points) || points < 2 || points > 10000)
        return fail("points must be an integer in [2, 10000]");
      spec.points = static_cast<std::uint32_t>(points);
      saw_range = true;
    } else if (key == "slo") {
      const SloParseResult slo = parse_slo(value);
      if (!slo.ok()) return fail("slo: " + slo.error);
      spec.slo = slo.thresholds;
      saw_slo = true;
    } else if (key == "objective") {
      const auto metric = search_metric_from_name(value);
      if (!metric.has_value())
        return fail("bad objective '" + value +
                    "' (p50_ms|p95_ms|p99_ms|jain|mibps)");
      spec.objective = MetricSpec{*metric};
    } else if (key == "pass_margin") {
      if (!parse_double(value, spec.pass_margin) || spec.pass_margin < 0.0)
        return fail("pass_margin must be a number >= 0");
    } else if (key == "budget") {
      std::uint64_t budget = 0;
      if (!parse_u64(value, budget) || budget == 0 || budget > 100000)
        return fail("budget must be an integer in [1, 100000]");
      spec.budget = static_cast<std::uint32_t>(budget);
    } else if (key == "probe_repetitions") {
      std::uint64_t reps = 0;
      if (!parse_u64(value, reps) || reps == 0 || reps > 1000)
        return fail("probe_repetitions must be an integer in [1, 1000]");
      spec.probe_repetitions = static_cast<std::uint32_t>(reps);
    } else if (key == "test_repetitions") {
      std::uint64_t reps = 0;
      if (!parse_u64(value, reps) || reps == 0 || reps > 1000)
        return fail("test_repetitions must be an integer in [1, 1000]");
      spec.test_repetitions = static_cast<std::uint32_t>(reps);
    } else {
      return fail("unknown key '" + key + "'");
    }
  }

  if (!spec.ladder.empty() && saw_range)
    return fail("ladder and lo/hi/points are mutually exclusive");
  if (spec.ladder.empty() && !(spec.hi > spec.lo))
    return fail("needs a ladder (ladder = <comma list>, or lo < hi)");
  if (!saw_slo && require_slo)
    return fail("needs an SLO (slo = p99_ms<=N, ...)");
  // The ladder is one more grid axis; every caller expands it.
  const std::string invalid = validate_axis(spec.ladder_axis());
  if (!invalid.empty()) return fail("input: " + invalid);

  SearchLoadResult result;
  result.spec = std::move(spec);
  return result;
}

}  // namespace adaptbf
