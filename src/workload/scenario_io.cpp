#include "workload/scenario_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "support/ini.h"

namespace adaptbf {

namespace {

ScenarioLoadResult fail(std::string message) {
  ScenarioLoadResult result;
  result.error = std::move(message);
  return result;
}

/// The range a number, count or duration key accepts.
struct Range {
  double lo;
  bool lo_open;
  double hi;
  const char* text;
  [[nodiscard]] bool holds(double value) const {
    return (lo_open ? value > lo : value >= lo) && value <= hi;
  }
};
constexpr double kUnbounded = std::numeric_limits<double>::max();
constexpr Range kPositive{0.0, true, kUnbounded, "> 0"};
constexpr Range kNonNegative{0.0, false, kUnbounded, ">= 0"};
constexpr Range kAtLeastOne{1.0, false, kUnbounded, ">= 1"};
constexpr Range kFraction{0.0, true, 1.0, "in (0, 1]"};
constexpr Range kCount{1.0, false, 4294967295.0, "in [1, 4294967295]"};
/// OSTs, service threads, in-flight RPCs and process copies: each sizes
/// storage, so each stays far below its type's end, and kMaxPeakEvents
/// bounds their products.
constexpr Range kSize{1.0, false, 65536.0, "in [1, 65536]"};
/// Whole KiB whose size in bytes fits 32 bits.
constexpr Range kKib{1.0, false, 4194303.0, "in [1, 4194303]"};

/// A decimal integer in `range`.
bool parse_count(std::string_view text, const Range& range,
                 std::uint32_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || !range.holds(static_cast<double>(value)))
    return false;
  out = static_cast<std::uint32_t>(value);
  return true;
}

/// A duration written in 1/per_second s: in `range` before and after
/// rounding to whole ns (1e-9 ms is not > 0), and at most 1e9 s
/// (SimDuration's int64 ns end at 9.2e9 s).
bool parse_duration(std::string_view text, const Range& range,
                    double per_second, SimDuration& out) {
  double value = 0.0;
  if (!parse_double(text, value) || !range.holds(value) ||
      value / per_second > 1e9)
    return false;
  const SimDuration parsed = SimDuration::from_seconds(value / per_second);
  if (!range.holds(static_cast<double>(parsed.ns()))) return false;
  out = parsed;
  return true;
}

/// Parses "key=value key=value ..." word lists (the process = lines).
bool parse_kv_words(std::string_view text,
                    std::unordered_map<std::string, std::string>& out,
                    std::string& first_word, std::string& error) {
  std::istringstream stream{std::string(text)};
  std::string token;
  bool first = true;
  while (stream >> token) {
    if (first) {
      first = false;
      first_word = token;
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      error = "expected key=value, got '" + token + "'";
      return false;
    }
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (first) {
    error = "empty process description";
    return false;
  }
  return true;
}

/// Parses one `process =` value into a pattern plus replication count.
bool parse_process(std::string_view text, ProcessPattern& pattern,
                   std::uint64_t& count, std::string& error) {
  std::unordered_map<std::string, std::string> kv;
  std::string kind;
  if (!parse_kv_words(text, kv, kind, error)) return false;

  count = 1;
  pattern = ProcessPattern{};
  static const std::unordered_set<std::string> known{
      "total", "burst", "period_s", "period_ms", "delay_s", "delay_ms",
      "count", "random", "rate", "seed"};
  for (const auto& [key, value] : kv) {
    if (!known.contains(key)) {
      error = "unknown process key '" + key + "'";
      return false;
    }
  }
  auto take_u64 = [&](const char* key, std::uint64_t& out) {
    auto it = kv.find(key);
    if (it == kv.end()) return true;
    if (!parse_u64(it->second, out)) {
      error = std::string("bad number for '") + key + "'";
      return false;
    }
    return true;
  };
  // `<name>_s` then `<name>_ms`; the later one wins.
  auto take_duration = [&](const std::string& name, SimDuration& out) {
    for (const auto& [suffix, per_second] : {std::pair{"_s", 1.0},
                                             std::pair{"_ms", 1e3}}) {
      const auto it = kv.find(name + suffix);
      if (it != kv.end() &&
          !parse_duration(it->second, kNonNegative, per_second, out)) {
        error = "bad duration for '" + name + suffix + "'";
        return false;
      }
    }
    return true;
  };

  if (!take_u64("total", pattern.total_rpcs)) return false;
  if (!take_u64("count", count)) return false;
  if (!kSize.holds(static_cast<double>(count))) {
    error = std::string("count must be an integer ") + kSize.text;
    return false;
  }
  if (!take_duration("delay", pattern.start_delay)) return false;
  if (auto it = kv.find("random"); it != kv.end()) {
    if (it->second == "true") {
      pattern.locality = Locality::kRandom;
    } else if (it->second == "false") {
      pattern.locality = Locality::kSequential;
    } else {
      error = "random= must be true or false";
      return false;
    }
  }

  if (kind == "continuous") {
    pattern.kind = ProcessPattern::Kind::kContinuous;
    if (kv.contains("burst") || kv.contains("period_s") ||
        kv.contains("period_ms") || kv.contains("rate")) {
      error = "continuous process cannot have burst/period/rate";
      return false;
    }
    return true;
  }
  if (kind == "poisson") {
    pattern.kind = ProcessPattern::Kind::kPoisson;
    if (auto it = kv.find("rate"); it != kv.end()) {
      if (!parse_double(it->second, pattern.poisson_rate) ||
          pattern.poisson_rate <= 0.0) {
        error = "poisson process needs rate=N > 0";
        return false;
      }
    } else {
      error = "poisson process needs rate=N";
      return false;
    }
    if (!take_u64("seed", pattern.seed)) return false;
    if (kv.contains("burst") || kv.contains("period_s") ||
        kv.contains("period_ms")) {
      error = "poisson process cannot have burst/period";
      return false;
    }
    return true;
  }
  if (kind == "burst") {
    pattern.kind = ProcessPattern::Kind::kPeriodicBurst;
    if (!take_u64("burst", pattern.burst_rpcs)) return false;
    if (pattern.burst_rpcs == 0) {
      error = "burst process needs burst=N";
      return false;
    }
    if (!take_duration("period", pattern.period)) return false;
    if (pattern.period <= SimDuration(0)) {
      error = "burst process needs period_s/period_ms > 0";
      return false;
    }
    return true;
  }
  error = "unknown process kind '" + kind + "' (continuous|burst|poisson)";
  return false;
}

using Spec = ScenarioSpec;
/// Where a key's value lives. The field's type picks the value kind:
/// text, a policy word, a flag, a number, a count or a duration.
using Field = std::variant<std::string*, BwControl*, bool*, double*,
                           std::uint32_t*, SimDuration*>;

/// One [scenario]/[server]/[client] key.
struct ScenarioKey {
  std::string_view section;
  std::string_view name;
  Range range;  ///< Numbers, counts and durations only.
  /// Numbers and counts are stored times `unit` (MiB/s as B/s: 1048576);
  /// durations are written in 1/`unit` s (ms: 1e3).
  double unit;
  Field (*field)(Spec&);
};

// The scenario keys, in scenario_to_ini's order. scripts/check_docs.sh
// requires a docs/formats.md row for each.
constexpr ScenarioKey kScenarioKeys[] = {
    {"scenario", "name", {}, 1, [](Spec& s) -> Field { return &s.name; }},
    {"scenario", "control", {}, 1,
     [](Spec& s) -> Field { return &s.control; }},
    {"scenario", "duration_s", kPositive, 1,
     [](Spec& s) -> Field { return &s.duration; }},
    {"scenario", "observation_ms", kPositive, 1e3,
     [](Spec& s) -> Field { return &s.observation_period; }},
    {"scenario", "apply_latency_ms", kNonNegative, 1e3,
     [](Spec& s) -> Field { return &s.controller_apply_latency; }},
    {"scenario", "stop_when_idle", {}, 1,
     [](Spec& s) -> Field { return &s.stop_when_idle; }},
    {"scenario", "timeline_bin_ms", kPositive, 1e3,
     [](Spec& s) -> Field { return &s.timeline_bin; }},
    // Omitted, T_i derives from the disk model (the spec holds -1).
    {"scenario", "max_token_rate", kPositive, 1,
     [](Spec& s) -> Field { return &s.max_token_rate; }},
    {"scenario", "redistribution", {}, 1,
     [](Spec& s) -> Field { return &s.enable_redistribution; }},
    {"scenario", "recompensation", {}, 1,
     [](Spec& s) -> Field { return &s.enable_recompensation; }},
    {"scenario", "remainders", {}, 1,
     [](Spec& s) -> Field { return &s.enable_remainders; }},
    {"scenario", "bucket_depth", kAtLeastOne, 1,
     [](Spec& s) -> Field { return &s.bucket_depth; }},
    {"scenario", "ewma_estimator", {}, 1,
     [](Spec& s) -> Field { return &s.use_ewma_estimator; }},
    {"scenario", "ewma_alpha", kFraction, 1,
     [](Spec& s) -> Field { return &s.ewma_alpha; }},
    {"server", "osts", kSize, 1,
     [](Spec& s) -> Field { return &s.num_osts; }},
    {"server", "threads", kSize, 1,
     [](Spec& s) -> Field { return &s.num_threads; }},
    {"server", "seq_bandwidth_mibps", kPositive, 1024.0 * 1024.0,
     [](Spec& s) -> Field { return &s.disk.seq_bandwidth; }},
    {"server", "rand_bandwidth_mibps", kPositive, 1024.0 * 1024.0,
     [](Spec& s) -> Field { return &s.disk.rand_bandwidth; }},
    {"server", "overhead_us", kNonNegative, 1e6,
     [](Spec& s) -> Field { return &s.disk.per_rpc_overhead; }},
    {"client", "rpc_size_kib", kKib, 1024,
     [](Spec& s) -> Field { return &s.rpc_size_bytes; }},
    {"client", "max_inflight", kSize, 1,
     [](Spec& s) -> Field { return &s.max_inflight_per_process; }},
    {"client", "network_latency_us", kNonNegative, 1e6,
     [](Spec& s) -> Field { return &s.network_latency; }},
};

/// Parses `text` strictly into the key's field and range-checks it.
/// Returns "", or what was expected, leaving the field untouched.
std::string parse(const ScenarioKey& key, Spec& spec, std::string_view text) {
  const Field field = key.field(spec);
  const Range& range = key.range;
  double value = 0.0;
  std::uint32_t count = 0;
  if (auto* out = std::get_if<std::string*>(&field)) {
    **out = text;
  } else if (auto* control = std::get_if<BwControl*>(&field)) {
    const std::optional<BwControl> parsed = bw_control_from_name(text);
    if (!parsed.has_value()) return "none, static, adaptive or gift";
    **control = *parsed;
  } else if (auto* flag = std::get_if<bool*>(&field)) {
    std::string word(text);
    for (char& c : word)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const bool yes =
        word == "true" || word == "yes" || word == "on" || word == "1";
    if (!yes && word != "false" && word != "no" && word != "off" &&
        word != "0")
      return "true or false";
    **flag = yes;
  } else if (auto* integer = std::get_if<std::uint32_t*>(&field)) {
    if (!parse_count(text, range, count))
      return std::string("an integer ") + range.text;
    **integer = count * static_cast<std::uint32_t>(key.unit);
  } else if (auto* number = std::get_if<double*>(&field)) {
    if (!parse_double(text, value) || !range.holds(value))
      return std::string("a number ") + range.text;
    **number = value * key.unit;
  } else if (!parse_duration(text, range, key.unit,
                             *std::get<SimDuration*>(field))) {
    return std::string("a duration ") + range.text +
           " (whole ns, at most 1e9 s)";
  }
  return "";
}

/// What a scenario needing `estimate` pending events is told, naming the
/// keys that size it.
std::string too_many_events(std::size_t estimate) {
  return "needs up to " + std::to_string(estimate) +
         " pending events (processes x (max_inflight + 2) + osts x "
         "(threads + 8) + 64), more than the " +
         std::to_string(kMaxPeakEvents) + " a trial may hold";
}

const ScenarioKey* find_key(std::string_view name) {
  for (const ScenarioKey& key : kScenarioKeys)
    if (key.name == name) return &key;
  return nullptr;
}

}  // namespace

std::string peak_events_error(const ScenarioSpec& spec) {
  const std::size_t estimate = estimate_peak_events(spec);
  return estimate > kMaxPeakEvents ? too_many_events(estimate) : "";
}

std::string apply_scenario_key(ScenarioSpec& spec, std::string_view key,
                               std::string_view value) {
  const ScenarioKey* row = find_key(key);
  if (row == nullptr) return "unknown scenario key '" + std::string(key) + "'";
  const std::string expected = parse(*row, spec, value);
  if (expected.empty()) return expected;
  return std::string(key) + " = '" + std::string(value) + "': expected " +
         expected;
}

ScenarioLoadResult load_scenario(std::string_view text) {
  std::string parse_error;
  const auto ini = IniFile::parse(text, &parse_error);
  if (!ini.has_value()) return fail("ini: " + parse_error);

  ScenarioSpec spec;
  for (const auto& section : ini->sections()) {
    if (section.rfind("job.", 0) == 0) continue;  // [job.N], below.
    if (std::none_of(std::begin(kScenarioKeys), std::end(kScenarioKeys),
                     [&](const ScenarioKey& row) {
                       return row.section == section;
                     }))
      return fail("unknown section [" + section + "]");
    for (const auto& [key, value] : ini->entries(section)) {
      const ScenarioKey* row = find_key(key);
      if (row == nullptr || row->section != section)
        return fail("unknown key '" + key + "' in [" + section + "]");
      if (ini->get_all(section, key).size() > 1)
        return fail("duplicate key '" + key + "' in [" + section + "]");
      const std::string error = apply_scenario_key(spec, key, value);
      if (!error.empty()) return fail("[" + section + "] " + error);
    }
  }

  // [job.N], with every key above already applied. Checking the event
  // budget per process line refuses a huge count= before its copies exist.
  std::size_t processes = 0;
  for (const auto& section : ini->sections()) {
    if (section.rfind("job.", 0) != 0) continue;
    const std::string id_text = section.substr(4);
    std::uint64_t id = 0;
    if (!parse_u64(id_text, id) || id == 0 || id >= JobId::kInvalid)
      return fail("bad job id in [" + section + "]");
    for (const auto& [key, value] : ini->entries(section))
      if (key != "name" && key != "nodes" && key != "process")
        return fail("unknown key '" + key + "' in [" + section + "]");
    JobSpec job;
    job.id = JobId(static_cast<std::uint32_t>(id));
    job.name = ini->get(section, "name").value_or("Job" + id_text);
    if (auto nodes = ini->get(section, "nodes")) {
      if (!parse_count(*nodes, kCount, job.nodes))
        return fail("[" + section + "] nodes = '" + *nodes +
                    "': expected an integer " + kCount.text);
    }
    for (const auto& process_text : ini->get_all(section, "process")) {
      ProcessPattern pattern;
      std::uint64_t count = 1;
      std::string error;
      if (!parse_process(process_text, pattern, count, error))
        return fail("[" + section + "] process: " + error);
      processes += count;
      const std::size_t estimate = estimate_peak_events(spec, processes);
      if (estimate > kMaxPeakEvents)
        return fail("[" + section + "] process: the scenario " +
                    too_many_events(estimate));
      job.processes.insert(job.processes.end(), count, pattern);
    }
    if (job.processes.empty())
      return fail("[" + section + "] has no process lines");
    spec.jobs.push_back(std::move(job));
  }
  if (spec.jobs.empty()) return fail("scenario has no [job.N] sections");

  ScenarioLoadResult result;
  result.spec = std::move(spec);
  return result;
}

ScenarioLoadResult load_scenario_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return load_scenario(buffer.str());
}

std::string scenario_to_ini(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << std::boolalpha;
  ScenarioSpec fields = spec;  // The key table addresses writable fields.
  std::string_view section;
  for (const ScenarioKey& key : kScenarioKeys) {
    if (key.section != section) {
      out << (section.empty() ? "[" : "\n[") << key.section << "]\n";
      section = key.section;
    }
    const Field field = key.field(fields);
    // A number outside its range is written by omitting the key: that is
    // how a file says max_token_rate's -1 (derive T_i).
    if (auto* number = std::get_if<double*>(&field);
        number != nullptr && !key.range.holds(**number / key.unit))
      continue;
    out << key.name << " = ";
    std::visit(
        [&](auto* value) {
          using T = std::remove_pointer_t<decltype(value)>;
          if constexpr (std::is_same_v<T, BwControl>)
            out << bw_control_config_name(*value);
          else if constexpr (std::is_same_v<T, SimDuration>)
            out << value->to_seconds() * key.unit;
          else if constexpr (std::is_same_v<T, std::uint32_t>)
            out << *value / static_cast<std::uint32_t>(key.unit);
          else if constexpr (std::is_same_v<T, double>)
            out << *value / key.unit;
          else
            out << *value;
        },
        field);
    out << "\n";
  }
  for (const auto& job : spec.jobs) {
    out << "\n[job." << job.id.value() << "]\n";
    out << "name = " << job.name << "\n";
    out << "nodes = " << job.nodes << "\n";
    for (const auto& process : job.processes) {
      if (process.kind == ProcessPattern::Kind::kContinuous) {
        out << "process = continuous total=" << process.total_rpcs;
      } else if (process.kind == ProcessPattern::Kind::kPoisson) {
        out << "process = poisson total=" << process.total_rpcs
            << " rate=" << process.poisson_rate
            << " seed=" << process.seed;
      } else {
        out << "process = burst total=" << process.total_rpcs
            << " burst=" << process.burst_rpcs
            << " period_ms=" << process.period.to_seconds() * 1e3;
      }
      out << " delay_ms=" << process.start_delay.to_seconds() * 1e3;
      if (process.locality == Locality::kRandom) out << " random=true";
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace adaptbf
