#include "search/journal.h"

#include "sweep/resume.h"
#include "support/json.h"

namespace adaptbf {

namespace {

/// Step rows and trial rows interleave; the scanner dispatches on the
/// first key, which is unambiguous because both dialects are
/// machine-written with fixed key order.
constexpr std::string_view kStepPrefix = "{\"search_step\":";

}  // namespace

std::string search_step_to_jsonl(const SearchStepRow& row) {
  std::string out;
  out.reserve(256);
  out += "{\"search_step\":";
  out += std::to_string(row.step);
  out += ",\"stage\":\"";
  out += row.test_stage ? "test" : "adjust";
  out += "\",\"input_index\":";
  out += std::to_string(row.input_index);
  out += ",\"input\":";
  out += json_num_exact(row.input);
  out += ",\"repetitions\":";
  out += std::to_string(row.repetitions);
  out += ",\"mibps\":";
  out += json_num_exact(row.metrics.mibps);
  out += ",\"fairness\":";
  out += json_num_exact(row.metrics.fairness);
  out += ",\"p50_ms\":";
  out += json_num_exact(row.metrics.p50_ms);
  out += ",\"p95_ms\":";
  out += json_num_exact(row.metrics.p95_ms);
  out += ",\"p99_ms\":";
  out += json_num_exact(row.metrics.p99_ms);
  out += ",\"objective\":";
  out += json_num_exact(row.objective);
  out += ",\"verdict\":\"";
  out += verdict_name(row.verdict);
  out += "\",\"bracket\":";
  out += json_num_exact(row.bracket);
  out += '}';
  return out;
}

bool search_step_from_jsonl(std::string_view line, SearchStepRow& out) {
  JsonCursor c(line);
  out = SearchStepRow{};
  if (!json_lit(c, "{\"search_step\":") || !json_parse_u32(c, out.step) ||
      out.step == 0)
    return false;
  if (!json_lit(c, ",\"stage\":\"")) return false;
  if (json_lit(c, "test\"")) {
    out.test_stage = true;
  } else if (json_lit(c, "adjust\"")) {
    out.test_stage = false;
  } else {
    return false;
  }
  if (!json_lit(c, ",\"input_index\":") ||
      !json_parse_u32(c, out.input_index))
    return false;
  if (!json_lit(c, ",\"input\":") || !json_parse_double_or_null(c, out.input))
    return false;
  if (!json_lit(c, ",\"repetitions\":") ||
      !json_parse_u32(c, out.repetitions) || out.repetitions == 0)
    return false;
  if (!json_lit(c, ",\"mibps\":") ||
      !json_parse_double_or_null(c, out.metrics.mibps))
    return false;
  if (!json_lit(c, ",\"fairness\":") ||
      !json_parse_double_or_null(c, out.metrics.fairness))
    return false;
  if (!json_lit(c, ",\"p50_ms\":") ||
      !json_parse_double_or_null(c, out.metrics.p50_ms))
    return false;
  if (!json_lit(c, ",\"p95_ms\":") ||
      !json_parse_double_or_null(c, out.metrics.p95_ms))
    return false;
  if (!json_lit(c, ",\"p99_ms\":") ||
      !json_parse_double_or_null(c, out.metrics.p99_ms))
    return false;
  if (!json_lit(c, ",\"objective\":") ||
      !json_parse_double_or_null(c, out.objective))
    return false;
  if (!json_lit(c, ",\"verdict\":\"")) return false;
  std::string verdict;
  while (c.p != c.end && *c.p != '"') verdict += *c.p++;
  const auto parsed = verdict_from_name(verdict);
  if (!parsed.has_value()) return false;
  out.verdict = *parsed;
  if (!json_lit(c, "\"") || !json_lit(c, ",\"bracket\":") ||
      !json_parse_double_or_null(c, out.bracket))
    return false;
  if (!json_lit(c, "}")) return false;
  return c.done();
}

// ----------------------------------------------------------------- scanner

SearchScan scan_search_file(const std::string& path,
                            const std::string& sweep_name,
                            std::span<const TrialSpec> trials,
                            std::uint64_t search_hash) {
  SearchScan scan;
  scan.have.assign(trials.size(), false);

  JournalRules rules;
  rules.grid_mismatch =
      "probe grid (sweep file or search ladder changed since the journal "
      "started?)";
  rules.header = [&](const CampaignHeader& header) {
    if (header.search_step == 0) {
      scan.error = "journal '" + path +
                   "' line 1: is a plain campaign journal, not a search "
                   "journal; resume it with 'sweep_cli --resume'";
    } else if (header.search_step != kSearchStepVersion) {
      scan.error = "journal '" + path + "' line 1: search_step format " +
                   std::to_string(header.search_step) +
                   " is newer than this build understands (" +
                   std::to_string(kSearchStepVersion) + ")";
    } else if (header.search_hash != search_hash) {
      scan.error = "journal '" + path +
                   "' line 1: written for a different search "
                   "(controller/ladder/SLO changed since the journal "
                   "started?)";
    } else if (header.shard.sharded()) {
      scan.error = "journal '" + path +
                   "' line 1: search journals are never sharded";
    }
  };
  rules.row = [&](std::string_view line, std::uint64_t, std::uint64_t) {
    if (line.substr(0, kStepPrefix.size()) == kStepPrefix) {
      SearchStepRow step;
      // Step rows are dense and 1-based: the replay feeds them to the
      // controller in order, so a gap or repeat means the history itself
      // is damaged (unlike a campaign journal, where any row subset is a
      // valid resume point).
      if (!search_step_from_jsonl(line, step) ||
          step.step != scan.steps.size() + 1)
        return false;
      scan.steps.push_back(step);
      return true;
    }
    TrialResult row;
    if (!trial_scalars_from_jsonl(line, row) ||
        !trial_row_matches(row, trials) || scan.have[row.index])
      return false;
    scan.have[row.index] = true;
    scan.rows.push_back(std::move(row));
    return true;
  };
  rules.garbage = [&](std::uint64_t line_no) {
    // Interior garbage is unrecoverable here: the journal's byte layout
    // is a pure function of the step history, so resuming past a torn
    // interior line could never reproduce the uninterrupted bytes.
    scan.error = "journal '" + path + "' line " + std::to_string(line_no) +
                 ": corrupt row in a search journal (cannot resume; "
                 "delete the journal to restart the search)";
  };
  walk_journal(path, sweep_name, trials, rules, scan);
  return scan;
}

}  // namespace adaptbf
