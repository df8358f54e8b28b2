#include "sweep/resume.h"

#include <fstream>
#include <string_view>

#include "support/fnv.h"

namespace adaptbf {

bool trial_row_matches(const TrialResult& row,
                       std::span<const TrialSpec> trials) {
  if (row.index >= trials.size()) return false;
  const TrialSpec& trial = trials[row.index];
  return row.seed == trial.seed && row.repetition == trial.repetition &&
         row.cell_id() == trial.cell_id();
}

std::uint64_t sweep_grid_hash(std::span<const TrialSpec> trials) {
  Fnv1a fnv;
  fnv.u64(trials.size());
  for (const TrialSpec& trial : trials) {
    fnv.u64(trial.index);
    fnv.str(trial.cell_id());
    fnv.u64(trial.repetition);
    fnv.u64(trial.seed);
    // Salient materialized-spec fields: a resumed journal must have been
    // produced by the same workloads, not just the same grid coordinates.
    const ScenarioSpec& spec = trial.spec;
    fnv.i64(spec.duration.ns());
    fnv.u64(spec.num_osts);
    fnv.f64(spec.max_token_rate);
    fnv.u64(static_cast<std::uint64_t>(spec.control));
    fnv.u64(spec.jobs.size());
    for (const JobSpec& job : spec.jobs) {
      fnv.u64(job.id.value());
      fnv.u64(job.nodes);
      fnv.u64(job.processes.size());
      for (const ProcessPattern& process : job.processes) {
        fnv.u64(static_cast<std::uint64_t>(process.kind));
        fnv.u64(process.total_rpcs);
        fnv.f64(process.poisson_rate);
        fnv.u64(process.seed);
        fnv.i64(process.start_delay.ns());
      }
    }
  }
  return fnv.value();
}

void walk_journal(const std::string& path, const std::string& sweep_name,
                  std::span<const TrialSpec> trials, const JournalRules& rules,
                  JournalTail& tail) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    tail.fresh = true;
    return;
  }

  const std::uint64_t expected_hash = sweep_grid_hash(trials);
  std::uint64_t offset = 0;
  std::uint64_t line_no = 0;
  std::string line;
  bool saw_header = false;
  while (std::getline(file, line)) {
    // getline sets eofbit only when the final line lacks its '\n'.
    const bool has_newline = !file.eof();
    const std::uint64_t line_end = offset + line.size() + (has_newline ? 1 : 0);
    ++line_no;

    if (!saw_header) {
      CampaignHeader header;
      if (!parse_campaign_header(line, header)) {
        // Torn header: the crash hit during the very first writeout. The
        // line must still be a recognizable prefix of a header — an
        // unterminated line of some unrelated file the user pointed
        // --output at keeps the hard error instead of getting clobbered.
        const std::string magic = journal_header_prefix();
        const bool header_prefix =
            std::string_view(line).substr(0, magic.size()) ==
            std::string_view(magic).substr(0, line.size());
        if (!has_newline && header_prefix) {
          // Nothing recoverable; start fresh rather than wedging every
          // future --resume on a hard error.
          tail.fresh = true;
          return;
        }
        tail.error = "'" + path + "' line 1: not a campaign journal";
        return;
      }
      if (header.sweep != sweep_name) {
        tail.error = "journal '" + path + "' line 1: belongs to sweep '" +
                     header.sweep + "', not '" + sweep_name + "'";
        return;
      }
      if (header.trials != trials.size() ||
          header.grid_hash != expected_hash) {
        tail.error = "journal '" + path +
                     "' line 1: written for a different " +
                     std::string(rules.grid_mismatch);
        return;
      }
      rules.header(header);
      if (!tail.ok()) return;
      tail.header = header;
      saw_header = true;
      if (!has_newline) tail.missing_final_newline = true;
      tail.valid_bytes = line_end;
      offset = line_end;
      continue;
    }

    const bool valid = rules.row(line, offset, line_no);
    if (!tail.ok()) return;
    if (valid) {
      if (!has_newline) tail.missing_final_newline = true;
      tail.valid_bytes = line_end;
    } else if (!has_newline) {
      // Partial tail from a mid-write crash: discard; valid_bytes stays at
      // the end of the last good line so the sink truncates it away.
      tail.truncated_tail = true;
    } else {
      // Interior garbage: the scanner decides. Kept bytes stay in place
      // (truncating would drop every row after them).
      rules.garbage(line_no);
      if (!tail.ok()) return;
      tail.valid_bytes = line_end;
    }
    offset = line_end;
  }

  if (!saw_header) {
    // Zero-byte file: treat like a missing one and start fresh.
    tail.fresh = true;
  }
}

CampaignScan scan_campaign_file(const std::string& path,
                                const std::string& sweep_name,
                                std::span<const TrialSpec> trials,
                                ShardRef shard) {
  CampaignScan scan;
  scan.trial_count = trials.size();
  scan.have.assign(trials.size(), false);
  scan.row_offset.assign(trials.size(), -1);
  scan.row_line.assign(trials.size(), 0);
  scan.expected_rows = 0;
  for (const TrialSpec& trial : trials)
    if (shard_owner(trial.index, shard.count) == shard.index)
      ++scan.expected_rows;

  JournalRules rules;
  rules.grid_mismatch =
      "campaign grid (sweep file changed since the journal started?)";
  rules.header = [&](const CampaignHeader& header) {
    if (header.search_step != 0) {
      // A search journal holds only the trials its probes visited plus
      // interleaved search_step rows; reading it as a plain campaign
      // would re-run every unprobed trial and corrupt the step record.
      scan.error = "journal '" + path +
                   "' line 1: is a search journal; resume it with "
                   "'sweep_cli search --resume'";
    } else if (header.shard != shard) {
      if (!shard.sharded() && header.shard.sharded()) {
        scan.error = "journal '" + path + "' line 1: is shard " +
                     header.shard.str() +
                     " of a sharded campaign; merge the full shard set "
                     "with 'sweep_cli merge' instead of reading one slice";
      } else if (shard.sharded() && !header.shard.sharded()) {
        scan.error = "journal '" + path +
                     "' line 1: is an unsharded campaign journal, but "
                     "this run is shard " + shard.str() +
                     "; give each shard its own --output";
      } else {
        scan.error = "journal '" + path + "' line 1: belongs to shard " +
                     header.shard.str() + ", but this run is shard " +
                     shard.str() +
                     (header.shard.count != shard.count
                          ? " (shard count changed since the journal "
                            "started?)"
                          : " (shard journals mixed up?)");
      }
    }
  };
  rules.row = [&](std::string_view line, std::uint64_t offset,
                  std::uint64_t line_no) {
    TrialResult row;
    if (!trial_scalars_from_jsonl(line, row) || !trial_row_matches(row, trials))
      return false;
    if (shard_owner(row.index, shard.count) != shard.index) {
      // A foreign shard's row is not corruption — it parses fine — and
      // ignoring it would let a later merge double-count the trial.
      // Hard error, pinned to the line.
      scan.error = "journal '" + path + "' line " + std::to_string(line_no) +
                   ": trial " + std::to_string(row.index) +
                   " belongs to shard " +
                   std::to_string(shard_owner(row.index, shard.count)) + "/" +
                   std::to_string(shard.count) +
                   ", not this journal's shard " + shard.str() +
                   " (shard journals mixed up? merging would "
                   "double-count it)";
      return false;
    }
    if (!scan.have[row.index]) {
      scan.have[row.index] = true;
      scan.row_offset[row.index] = static_cast<std::int64_t>(offset);
      scan.row_line[row.index] = line_no;
      ++scan.rows;
    } else {
      ++scan.duplicate_rows;
    }
    return true;
  };
  // Interior garbage: the line is ignored and its trial re-run.
  rules.garbage = [&](std::uint64_t) { ++scan.corrupt_lines; };
  walk_journal(path, sweep_name, trials, rules, scan);
  return scan;
}

std::vector<TrialSpec> missing_trials(const CampaignScan& scan,
                                      std::span<const TrialSpec> trials) {
  std::vector<TrialSpec> todo;
  for (const TrialSpec& trial : trials)
    if (trial.index >= scan.have.size() || !scan.have[trial.index])
      todo.push_back(trial);
  return todo;
}

}  // namespace adaptbf
