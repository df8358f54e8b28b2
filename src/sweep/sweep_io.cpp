#include "sweep/sweep_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>  // adaptbf-lint: allow(unordered-output)

#include "support/ini.h"
#include "workload/scenario_io.h"
#include "workload/scenarios_paper.h"

namespace adaptbf {

namespace {

SweepLoadResult fail(std::string message) {
  SweepLoadResult result;
  result.error = std::move(message);
  return result;
}

/// Builtin paper scenarios by short name. The control baked in here is a
/// placeholder: expand() re-applies the policy axis per trial.
std::optional<SweepScenario> builtin_scenario(std::string_view name) {
  if (name == "token_allocation")
    return SweepScenario{"token_allocation",
                         scenario_token_allocation(BwControl::kNone)};
  if (name == "redistribution")
    return SweepScenario{"redistribution",
                         scenario_token_redistribution(BwControl::kNone)};
  if (name == "recompensation")
    return SweepScenario{"recompensation",
                         scenario_token_recompensation(BwControl::kNone)};
  return std::nullopt;
}

/// Path stem ("dir/noisy.ini" -> "noisy") as the scenario label fallback.
std::string path_stem(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string_view::npos && dot > 0) name = name.substr(0, dot);
  return std::string(name);
}

}  // namespace

SweepLoadResult load_sweep(std::string_view text, const std::string& base_dir) {
  std::string parse_error;
  const auto ini = IniFile::parse(text, &parse_error);
  if (!ini.has_value()) return fail("ini: " + parse_error);

  // Known-key sets are membership tests only (never iterated), so hash
  // order cannot reach any output byte.
  static const std::unordered_set<std::string> known_sweep_keys{  // adaptbf-lint: allow(unordered-output)
      "name",      "policies",        "scenario", "repetitions",
      "base_seed", "start_jitter_ms", "duration_s"};
  static const std::unordered_set<std::string> known_output_keys{  // adaptbf-lint: allow(unordered-output)
      "csv", "json", "jsonl"};
  for (const auto& section : ini->sections()) {
    const std::unordered_set<std::string>* known = nullptr;  // adaptbf-lint: allow(unordered-output)
    if (section == "sweep") known = &known_sweep_keys;
    else if (section == "output") known = &known_output_keys;
    else if (section == "grid" || section == "search") continue;  // Below.
    else return fail("unknown section [" + section + "]");
    for (const auto& [key, value] : ini->entries(section))
      if (!known->contains(key))
        return fail("unknown key '" + key + "' in [" + section + "]");
  }

  SweepSpec spec;
  if (auto name = ini->get("sweep", "name")) spec.name = *name;

  const auto policy_list = ini->get("sweep", "policies");
  if (!policy_list.has_value())
    return fail("[sweep] needs policies = <comma list>");
  for (const auto& name : split_list(*policy_list)) {
    const auto policy = bw_control_from_name(name);
    if (!policy.has_value())
      return fail("bad policy '" + name + "' (none|static|adaptive|gift)");
    // A repeated cell would be averaged as a seeded repetition of itself.
    if (std::find(spec.policies.begin(), spec.policies.end(), *policy) !=
        spec.policies.end())
      return fail("policies: '" + name + "' is listed twice");
    spec.policies.push_back(*policy);
  }
  if (spec.policies.empty()) return fail("policies list is empty");

  const auto scenario_values = ini->get_all("sweep", "scenario");
  if (scenario_values.empty())
    return fail("[sweep] needs at least one scenario = line");
  for (const auto& value : scenario_values) {
    if (value.empty())
      return fail("empty scenario = value (builtin name or file path)");
    std::optional<SweepScenario> scenario = builtin_scenario(value);
    if (!scenario.has_value()) {
      std::string path = value;
      if (!base_dir.empty() && path.front() != '/')
        path = base_dir + "/" + path;
      ScenarioLoadResult loaded = load_scenario_file(path);
      if (!loaded.ok())
        return fail("scenario '" + value + "': " + loaded.error);
      const std::string& name = loaded.spec->name;
      scenario = SweepScenario{name.empty() ? path_stem(value) : name,
                               std::move(*loaded.spec)};
    }
    // Cells are keyed by label: two scenarios under one label would be
    // averaged as seeded repetitions of one cell.
    for (const SweepScenario& earlier : spec.scenarios)
      if (earlier.label == scenario->label)
        return fail("scenario '" + value + "': label '" + scenario->label +
                    "' is already taken by an earlier scenario = line");
    spec.scenarios.push_back(std::move(*scenario));
  }

  if (auto reps = ini->get("sweep", "repetitions")) {
    std::uint64_t value = 0;
    if (!parse_u64(*reps, value) || value == 0)
      return fail("repetitions must be a positive integer");
    spec.repetitions = static_cast<std::uint32_t>(value);
  }
  if (auto seed = ini->get("sweep", "base_seed")) {
    std::uint64_t value = 0;
    if (!parse_u64(*seed, value)) return fail("bad base_seed");
    spec.base_seed = value;
  }
  if (auto jitter = ini->get("sweep", "start_jitter_ms")) {
    double ms = 0.0;
    // At most 1e9 s, as every scenario duration (SimDuration ends at 9.2e9 s).
    if (!parse_double(*jitter, ms) || !(ms >= 0.0 && ms <= 1e12))
      return fail("start_jitter_ms must be a number in [0, 1e12]");
    spec.start_jitter = SimDuration::from_seconds(ms / 1e3);
  }

  // [sweep] duration_s is a one-value axis ahead of the [grid] axes,
  // which run in file order.
  if (auto duration = ini->get("sweep", "duration_s")) {
    SweepAxis axis{"duration_s", {*duration}};
    const std::string error = validate_axis(axis);
    if (!error.empty()) return fail("[sweep] " + error);
    spec.axes.push_back(std::move(axis));
  }
  for (const auto& [key, list] : ini->entries("grid")) {
    SweepAxis axis{key, split_list(list)};
    const std::string error = validate_axis(axis);
    if (!error.empty()) return fail("[grid] " + error);
    // Values compare as written: 3 and 3.0 label distinct cells.
    for (auto it = axis.values.begin(); it != axis.values.end(); ++it)
      if (std::find(axis.values.begin(), it, *it) != it)
        return fail("[grid] " + key + " = '" + *it + "' is listed twice");
    for (const SweepAxis& earlier : spec.axes)
      if (earlier.key == key) return fail("[grid] " + key + " is set twice");
    spec.axes.push_back(std::move(axis));
  }
  if (const std::string error = validate_cells(spec); !error.empty())
    return fail(error);

  SweepLoadResult result;
  if (ini->has_section("search")) {
    // Forward the raw entries in file order (duplicate keys included —
    // the search layer rejects them by name).
    result.search_section = true;
    result.search_entries = ini->entries("search");
  }
  if (auto csv = ini->get("output", "csv")) result.csv_path = *csv;
  if (auto json = ini->get("output", "json")) result.json_path = *json;
  if (auto jsonl = ini->get("output", "jsonl")) result.jsonl_path = *jsonl;
  result.spec = std::move(spec);
  return result;
}

SweepLoadResult load_sweep_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  return load_sweep(buffer.str(), base_dir);
}

}  // namespace adaptbf
