#include "sweep/shard.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "sweep/resume.h"
#include "sweep/trial_sink.h"

namespace adaptbf {

std::string ShardRef::str() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

std::string shard_ref_error(const ShardRef& shard) {
  if (shard.count == 0) return "shard count must be >= 1";
  if (shard.index >= shard.count)
    return "shard index " + std::to_string(shard.index) +
           " out of range for " + std::to_string(shard.count) +
           " shard(s) (indices are 0-based)";
  return {};
}

ShardPlan plan_shard(std::span<const TrialSpec> trials, ShardRef shard) {
  ShardPlan plan;
  plan.shard = shard;
  plan.trials.reserve(trials.size() / std::max<std::uint32_t>(shard.count, 1) +
                      1);
  for (const TrialSpec& trial : trials)
    if (shard_owner(trial.index, shard.count) == shard.index)
      plan.trials.push_back(trial);
  return plan;
}

std::string shard_journal_path(const std::string& base,
                               const ShardRef& shard) {
  if (!shard.sharded()) return base;
  return base + ".shard-" + std::to_string(shard.index) + "-of-" +
         std::to_string(shard.count);
}

namespace {

/// First line of a shard journal, parsed and pre-validated against the
/// sweep. Read before the full row scan so shard-set-level errors
/// (disagreeing K, duplicate indices, missing shards) can name every
/// offending file instead of failing on whichever scanned first.
struct ShardHeader {
  std::string path;
  CampaignHeader header;
};

std::string read_shard_header(const std::string& path,
                              const std::string& sweep_name,
                              std::uint64_t grid_hash, std::uint64_t trials,
                              ShardHeader& out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return "cannot open shard journal '" + path + "'";
  std::string line;
  if (!std::getline(file, line) ||
      !parse_campaign_header(line, out.header)) {
    return "'" + path + "' line 1: not a campaign journal";
  }
  if (out.header.sweep != sweep_name) {
    return "journal '" + path + "' line 1: belongs to sweep '" +
           out.header.sweep + "', not '" + sweep_name + "'";
  }
  if (out.header.trials != trials || out.header.grid_hash != grid_hash) {
    return "journal '" + path +
           "' line 1: written for a different campaign grid than this "
           "sweep file expands to (sweep file edited after the shards "
           "ran? re-run the campaign)";
  }
  if (!out.header.shard.sharded()) {
    return "journal '" + path +
           "' line 1: is an unsharded campaign journal, not a shard "
           "(its artifacts can be exported directly; merge is for "
           "--shard-count runs)";
  }
  out.path = path;
  return {};
}

}  // namespace

ShardMergeResult merge_shard_journals(std::span<const std::string> shard_paths,
                                      const std::string& sweep_name,
                                      std::span<const TrialSpec> trials,
                                      const std::string& merged_path) {
  ShardMergeResult result;
  if (shard_paths.empty()) {
    result.error = "no shard journals given";
    return result;
  }

  // Pass 1: headers only — establish the shard set's shape and reject
  // set-level misuse with every offender named.
  const std::uint64_t grid_hash = sweep_grid_hash(trials);
  std::vector<ShardHeader> headers(shard_paths.size());
  for (std::size_t i = 0; i < shard_paths.size(); ++i) {
    result.error = read_shard_header(shard_paths[i], sweep_name, grid_hash,
                                     trials.size(), headers[i]);
    if (!result.ok()) return result;
  }

  const std::uint32_t shard_count = headers.front().header.shard.count;
  result.shard_count = shard_count;
  for (const ShardHeader& h : headers) {
    if (h.header.shard.count != shard_count) {
      result.error = "shard journals disagree on the shard count: '" +
                     headers.front().path + "' is shard " +
                     headers.front().header.shard.str() + " but '" + h.path +
                     "' is shard " + h.header.shard.str() +
                     " (slices of different campaign splits cannot be "
                     "merged)";
      return result;
    }
  }

  std::vector<const ShardHeader*> by_index(shard_count, nullptr);
  for (const ShardHeader& h : headers) {
    const std::uint32_t index = h.header.shard.index;
    if (by_index[index] != nullptr) {
      result.error = "overlapping shards: '" + by_index[index]->path +
                     "' and '" + h.path + "' both claim shard " +
                     h.header.shard.str() +
                     " (merging both would double-count its trials)";
      return result;
    }
    by_index[index] = &h;
  }
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    if (by_index[i] == nullptr) {
      result.error = "missing shard " + ShardRef{i, shard_count}.str() +
                     ": got " + std::to_string(headers.size()) + " of " +
                     std::to_string(shard_count) +
                     " shard journals (pass every shard's file)";
      return result;
    }
  }

  // The output must not alias an input (opening it for write would
  // destroy that shard's rows before they are read) and must not clobber
  // an existing file — the same no-overwrite stance the run path takes.
  std::error_code ec;
  if (std::filesystem::exists(merged_path, ec)) {
    for (const ShardHeader& h : headers) {
      if (std::filesystem::equivalent(merged_path, h.path, ec)) {
        result.error = "merged journal path '" + merged_path +
                       "' is shard journal '" + h.path +
                       "' itself; writing the merge there would destroy "
                       "the shard's rows — choose a different --output";
        return result;
      }
    }
    result.error = "'" + merged_path +
                   "' already exists; remove it or choose a different "
                   "--output for the merged journal";
    return result;
  }

  // Pass 2: full row scan of each slice, in shard order. The scanner
  // enforces per-row ownership (a trial surfacing in a foreign shard's
  // journal is rejected with its line number) and completeness.
  std::vector<CampaignScan> scans(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    const std::string& path = by_index[i]->path;
    scans[i] = scan_campaign_file(path, sweep_name, trials,
                                  ShardRef{i, shard_count});
    if (!scans[i].ok()) {
      result.error = scans[i].error;
      return result;
    }
    if (!scans[i].complete()) {
      result.error =
          "shard " + ShardRef{i, shard_count}.str() + " journal '" + path +
          "' is incomplete (" +
          std::to_string(scans[i].expected_rows - scans[i].rows) + " of " +
          std::to_string(scans[i].expected_rows) +
          " trials missing; finish it with --shard-index " +
          std::to_string(i) + " --shard-count " +
          std::to_string(shard_count) + " --resume)";
      return result;
    }
  }

  // Emit: unsharded header, then every row byte-for-byte from its owning
  // slice in trial-index order, through the same durable sink as every
  // other journal. Rows are deterministic, so the merged journal's
  // derived CSV/JSON match a single-process campaign's exactly.
  JsonlTrialSink::OpenResult merged = JsonlTrialSink::open_fresh(
      merged_path,
      CampaignHeader{sweep_name, grid_hash, trials.size(), ShardRef{}});
  if (!merged.ok()) {
    result.error = merged.error;
    return result;
  }

  std::vector<std::ifstream> slices(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    slices[i].open(by_index[i]->path, std::ios::binary);
    if (!slices[i]) {
      result.error = "cannot open shard journal '" + by_index[i]->path + "'";
      return result;
    }
  }
  std::string line;
  try {
    for (std::size_t index = 0; index < trials.size(); ++index) {
      const std::uint32_t owner = shard_owner(index, shard_count);
      std::ifstream& slice = slices[owner];
      slice.clear();
      slice.seekg(scans[owner].row_offset[index]);
      if (!std::getline(slice, line)) {
        result.error = "journal '" + by_index[owner]->path + "' line " +
                       std::to_string(scans[owner].row_line[index]) +
                       ": changed while merging (row for trial " +
                       std::to_string(index) + " no longer readable)";
        return result;
      }
      merged.sink->append_line(line);
      ++result.rows;
    }
    merged.sink->flush();
  } catch (const std::exception& e) {
    result.error =
        "cannot write merged journal '" + merged_path + "': " + e.what();
  }
  return result;
}

}  // namespace adaptbf
