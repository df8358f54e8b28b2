#include "sweep/trial_sink.h"

#include <charconv>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.h"
#include "support/json.h"
#include "sweep/resume.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace adaptbf {

namespace {

// ------------------------------------------------------------- row writer

void append_field(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += std::to_string(v);
}

void append_field(std::string& out, const char* key, double v) {
  out += key;
  out += json_num_exact(v);
}

// --------------------------------------------------------- strict parser
//
// The journal is machine-written by the functions above, so the reader is
// a strict mirror built on the shared support/json.h scanner: exact key
// order, exact structure. Anything else — truncation, hand edits,
// interleaved crash garbage — fails the parse and the row counts as
// missing (the resume plan re-runs it). This is the crash-safety
// property: a row is either bit-exact or not a row.

bool parse_row(std::string_view line, TrialResult& out, bool keep_jobs) {
  JsonCursor c(line);
  out = TrialResult{};
  std::uint64_t index = 0;
  std::string policy_name;
  if (!json_lit(c, "{\"trial\":") || !json_parse_u64(c, index)) return false;
  out.index = static_cast<std::size_t>(index);
  if (!json_lit(c, ",\"scenario\":") || !json_parse_string(c, out.scenario))
    return false;
  if (!json_lit(c, ",\"policy\":") || !json_parse_string(c, policy_name)) return false;
  const auto policy = bw_control_from_name(policy_name);
  if (!policy.has_value()) return false;
  out.policy = *policy;
  if (!json_lit(c, ",\"osts\":") || !json_parse_u32(c, out.num_osts)) return false;
  if (!json_lit(c, ",\"token_rate\":") ||
      !json_parse_double_or_null(c, out.max_token_rate))
    return false;
  if (!json_lit(c, ",\"repetition\":") || !json_parse_u32(c, out.repetition))
    return false;
  if (!json_lit(c, ",\"seed\":") || !json_parse_u64(c, out.seed)) return false;
  if (!json_lit(c, ",\"aggregate_mibps\":") ||
      !json_parse_double_or_null(c, out.aggregate_mibps))
    return false;
  if (!json_lit(c, ",\"fairness\":") || !json_parse_double_or_null(c, out.fairness))
    return false;
  if (!json_lit(c, ",\"p50_ms\":") || !json_parse_double_or_null(c, out.p50_ms))
    return false;
  if (!json_lit(c, ",\"p95_ms\":") || !json_parse_double_or_null(c, out.p95_ms))
    return false;
  if (!json_lit(c, ",\"p99_ms\":") || !json_parse_double_or_null(c, out.p99_ms))
    return false;
  if (!json_lit(c, ",\"horizon_s\":") || !json_parse_double_or_null(c, out.horizon_s))
    return false;
  if (!json_lit(c, ",\"total_bytes\":") || !json_parse_u64(c, out.total_bytes))
    return false;
  if (!json_lit(c, ",\"events\":") || !json_parse_u64(c, out.events_dispatched))
    return false;
  if (!json_lit(c, ",\"jobs\":[")) return false;
  bool first = true;
  while (!json_lit(c, "]")) {
    if (!first && !json_lit(c, ",")) return false;
    first = false;
    JobSummary job;
    std::uint32_t id = 0;
    std::int64_t finish_ns = 0;
    if (!json_lit(c, "{\"id\":") || !json_parse_u32(c, id)) return false;
    job.id = JobId(id);
    if (!json_lit(c, ",\"name\":") || !json_parse_string(c, job.name)) return false;
    if (!json_lit(c, ",\"nodes\":") || !json_parse_u32(c, job.nodes)) return false;
    if (!json_lit(c, ",\"mean_mibps\":") ||
        !json_parse_double_or_null(c, job.mean_mibps))
      return false;
    if (!json_lit(c, ",\"rpcs\":") || !json_parse_u64(c, job.rpcs_completed))
      return false;
    if (!json_lit(c, ",\"bytes\":") || !json_parse_u64(c, job.bytes_completed))
      return false;
    if (!json_lit(c, ",\"finish_ns\":") || !json_parse_i64(c, finish_ns)) return false;
    job.finish_time = SimTime(finish_ns);
    if (!json_lit(c, ",\"finished\":") || !json_parse_bool(c, job.finished))
      return false;
    if (!json_lit(c, "}")) return false;
    if (keep_jobs) out.jobs.push_back(std::move(job));
  }
  if (!json_lit(c, "}")) return false;
  return c.done();
}

void sync_to_disk(std::FILE* file) {
#if defined(__unix__) || defined(__APPLE__)
  ::fsync(fileno(file));
#else
  (void)file;
#endif
}

}  // namespace

std::string journal_header_prefix() {
  return "{\"adaptbf_sweep\":" + std::to_string(kJournalFormatVersion) +
         ",\"name\":";
}

std::string campaign_header_line(const CampaignHeader& header) {
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, header.grid_hash);
  std::string out = journal_header_prefix();
  out += json_quote(header.sweep);
  out += ",\"grid_hash\":\"";
  out += hash;
  out += "\",\"trials\":";
  out += std::to_string(header.trials);
  if (header.shard.sharded()) {
    out += ",\"shard\":";
    out += std::to_string(header.shard.index);
    out += ",\"shard_count\":";
    out += std::to_string(header.shard.count);
  }
  if (header.search_step != 0) {
    char search_hash[24];
    std::snprintf(search_hash, sizeof(search_hash), "%016" PRIx64,
                  header.search_hash);
    out += ",\"search_step\":";
    out += std::to_string(header.search_step);
    out += ",\"search_hash\":\"";
    out += search_hash;
    out += '"';
  }
  out += '}';
  return out;
}

bool parse_campaign_header(std::string_view line, CampaignHeader& out) {
  JsonCursor c(line);
  out = CampaignHeader{};
  if (!json_lit(c, journal_header_prefix()) || !json_parse_string(c, out.sweep))
    return false;
  if (!json_lit(c, ",\"grid_hash\":\"") ||
      !json_parse_hash16(c, out.grid_hash))
    return false;
  if (!json_lit(c, "\"") || !json_lit(c, ",\"trials\":") ||
      !json_parse_u64(c, out.trials))
    return false;
  if (json_lit(c, ",\"shard\":")) {
    if (!json_parse_u32(c, out.shard.index) || !json_lit(c, ",\"shard_count\":") ||
        !json_parse_u32(c, out.shard.count))
      return false;
    // A stamped shard must be a real slice: K >= 2 and index in range.
    // (K == 1 writes the unsharded form above, never this one.)
    if (out.shard.count < 2 || out.shard.index >= out.shard.count)
      return false;
  }
  if (json_lit(c, ",\"search_step\":")) {
    // A stamped search journal declares a real generation (0 writes the
    // plain header above, never this clause).
    if (!json_parse_u32(c, out.search_step) || out.search_step == 0)
      return false;
    if (!json_lit(c, ",\"search_hash\":\"") ||
        !json_parse_hash16(c, out.search_hash) || !json_lit(c, "\""))
      return false;
  }
  if (!json_lit(c, "}")) return false;
  return c.done();
}

std::string trial_to_jsonl(const TrialResult& trial) {
  std::string out;
  out.reserve(256 + trial.jobs.size() * 128);
  append_field(out, "{\"trial\":",
               static_cast<std::uint64_t>(trial.index));
  out += ",\"scenario\":";
  out += json_quote(trial.scenario);
  out += ",\"policy\":";
  out += json_quote(bw_control_config_name(trial.policy));
  append_field(out, ",\"osts\":", std::uint64_t{trial.num_osts});
  append_field(out, ",\"token_rate\":", trial.max_token_rate);
  append_field(out, ",\"repetition\":", std::uint64_t{trial.repetition});
  append_field(out, ",\"seed\":", trial.seed);
  append_field(out, ",\"aggregate_mibps\":", trial.aggregate_mibps);
  append_field(out, ",\"fairness\":", trial.fairness);
  append_field(out, ",\"p50_ms\":", trial.p50_ms);
  append_field(out, ",\"p95_ms\":", trial.p95_ms);
  append_field(out, ",\"p99_ms\":", trial.p99_ms);
  append_field(out, ",\"horizon_s\":", trial.horizon_s);
  append_field(out, ",\"total_bytes\":", trial.total_bytes);
  append_field(out, ",\"events\":", trial.events_dispatched);
  out += ",\"jobs\":[";
  bool first = true;
  for (const auto& job : trial.jobs) {
    if (!first) out += ',';
    first = false;
    append_field(out, "{\"id\":", std::uint64_t{job.id.value()});
    out += ",\"name\":";
    out += json_quote(job.name);
    append_field(out, ",\"nodes\":", std::uint64_t{job.nodes});
    append_field(out, ",\"mean_mibps\":", job.mean_mibps);
    append_field(out, ",\"rpcs\":", job.rpcs_completed);
    append_field(out, ",\"bytes\":", job.bytes_completed);
    out += ",\"finish_ns\":";
    out += std::to_string(job.finish_time.ns());
    out += ",\"finished\":";
    out += job.finished ? "true" : "false";
    out += '}';
  }
  out += "]}";
  return out;
}

bool trial_from_jsonl(std::string_view line, TrialResult& out) {
  return parse_row(line, out, /*keep_jobs=*/true);
}

bool trial_scalars_from_jsonl(std::string_view line, TrialResult& out) {
  return parse_row(line, out, /*keep_jobs=*/false);
}

// --------------------------------------------------------- JsonlTrialSink

JsonlTrialSink::JsonlTrialSink(std::FILE* file, Options options)
    : file_(file), options_(options) {
  if (options_.flush_every == 0) options_.flush_every = 1;
  if (options_.metrics != nullptr) {
    rows_metric_ = &options_.metrics->counter(kMetricJournalRows);
    bytes_metric_ = &options_.metrics->counter(kMetricJournalBytes);
    fsyncs_metric_ = &options_.metrics->counter(kMetricJournalFsyncs);
  }
}

JsonlTrialSink::OpenResult JsonlTrialSink::open_fresh(
    const std::string& path, const CampaignHeader& header, Options options) {
  OpenResult result;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    result.error = "cannot create '" + path + "'";
    return result;
  }
  const std::string line = campaign_header_line(header) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
      std::fflush(file) != 0) {
    std::fclose(file);
    result.error = "cannot write header to '" + path + "'";
    return result;
  }
  if (options.fsync) sync_to_disk(file);
  result.sink.reset(new JsonlTrialSink(file, options));
  return result;
}

JsonlTrialSink::OpenResult JsonlTrialSink::open_append(const std::string& path,
                                                       std::uint64_t keep_bytes,
                                                       bool add_newline,
                                                       Options options) {
  OpenResult result;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    result.error = "cannot stat '" + path + "': " + ec.message();
    return result;
  }
  if (keep_bytes > size) {
    result.error = "journal '" + path + "' shrank since it was scanned";
    return result;
  }
  if (keep_bytes < size) {
    // Drop a crash's partial tail so the next append starts a clean line.
    std::filesystem::resize_file(path, keep_bytes, ec);
    if (ec) {
      result.error = "cannot truncate '" + path + "': " + ec.message();
      return result;
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    result.error = "cannot append to '" + path + "'";
    return result;
  }
  if (add_newline && std::fputc('\n', file) == EOF) {
    std::fclose(file);
    result.error = "cannot write to '" + path + "'";
    return result;
  }
  result.sink.reset(new JsonlTrialSink(file, options));
  return result;
}

JsonlTrialSink::OpenResult JsonlTrialSink::open(const std::string& path,
                                                const JournalTail& tail,
                                                const CampaignHeader& header,
                                                Options options) {
  if (tail.fresh) return open_fresh(path, header, options);
  return open_append(path, tail.valid_bytes, tail.missing_final_newline,
                     options);
}

JsonlTrialSink::~JsonlTrialSink() {
  if (file_ != nullptr) {
    // Destructor cannot throw; best-effort final durability point.
    if (std::fflush(file_) == 0 && options_.fsync) sync_to_disk(file_);
    std::fclose(file_);
  }
}

void JsonlTrialSink::append(const TrialResult& result) {
  append_line(trial_to_jsonl(result));
}

void JsonlTrialSink::append_line(std::string_view line) {
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF)
    throw std::runtime_error("campaign journal: short write");
  ++rows_;
  if (rows_metric_ != nullptr) rows_metric_->inc();
  if (bytes_metric_ != nullptr) bytes_metric_->inc(line.size() + 1);
  if (++pending_ >= options_.flush_every) flush();
}

void JsonlTrialSink::flush() {
  if (std::fflush(file_) != 0)
    throw std::runtime_error("campaign journal: flush failed");
  if (options_.fsync) {
    sync_to_disk(file_);
    if (fsyncs_metric_ != nullptr) fsyncs_metric_->inc();
  }
  pending_ = 0;
}

}  // namespace adaptbf
