#include "metrics/report.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "support/check.h"

namespace adaptbf {

namespace {
/// Mean of chunk [begin, end) of `series` (empty chunk -> 0).
double chunk_mean(const std::vector<double>& series, std::size_t begin,
                  std::size_t end) {
  if (begin >= end || begin >= series.size()) return 0.0;
  end = std::min(end, series.size());
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += series[i];
  return sum / static_cast<double>(end - begin);
}

/// Fewest decimals that print every multiple of `width` exactly, in s.
int decimals_for(SimDuration width) {
  int decimals = 0;
  for (std::int64_t unit = 1'000'000'000;
       decimals < 9 && width.ns() % unit != 0; unit /= 10)
    ++decimals;
  return decimals;
}

/// `t` in seconds with `decimals` decimals, from integer nanoseconds:
/// exact when `t` is a multiple of 10^-decimals s.
std::string seconds_label(SimTime t, int decimals) {
  std::int64_t per_second = 1;
  for (int i = 0; i < decimals; ++i) per_second *= 10;
  const auto units =
      static_cast<long long>(t.ns() / (1'000'000'000 / per_second));
  char buf[48];
  if (decimals == 0) {
    std::snprintf(buf, sizeof buf, "%lld", units);
  } else {
    std::snprintf(buf, sizeof buf, "%lld.%0*lld", units / per_second,
                  decimals, units % per_second);
  }
  return buf;
}
}  // namespace

Table timeline_table(const ThroughputTimeline& timeline, SimTime horizon,
                     const std::vector<std::pair<JobId, std::string>>& jobs,
                     std::size_t points) {
  ADAPTBF_CHECK(points > 0);
  std::vector<std::string> headers{"t (s)"};
  for (const auto& [id, name] : jobs) headers.push_back(name + " MiB/s");
  headers.push_back("Aggregate MiB/s");
  Table table(std::move(headers));

  std::vector<std::vector<double>> series;
  series.reserve(jobs.size());
  for (const auto& [id, name] : jobs)
    series.push_back(timeline.series_mibps(id, horizon));
  const auto aggregate = timeline.aggregate_mibps(horizon);
  const std::size_t bins = aggregate.size();
  const std::size_t chunk = std::max<std::size_t>(1, bins / points);
  const SimDuration bin = timeline.bin_width();
  const int decimals = decimals_for(bin * static_cast<std::int64_t>(chunk));

  for (std::size_t begin = 0; begin < bins; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, bins);
    const SimTime start =
        SimTime::zero() + bin * static_cast<std::int64_t>(begin);
    std::vector<std::string> row{seconds_label(start, decimals)};
    for (const auto& s : series)
      row.push_back(fmt_fixed(chunk_mean(s, begin, end), 1));
    row.push_back(fmt_fixed(chunk_mean(aggregate, begin, end), 1));
    table.add_row(std::move(row));
  }
  return table;
}

Table bandwidth_summary_table(
    const std::vector<std::pair<JobId, std::string>>& jobs,
    const std::vector<PolicySummary>& policies) {
  std::vector<std::string> headers{"Job"};
  for (const auto& p : policies) headers.push_back(p.policy + " MiB/s");
  Table table(std::move(headers));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<std::string> row{jobs[j].second};
    for (const auto& p : policies) {
      ADAPTBF_CHECK(p.per_job_mibps.size() == jobs.size());
      row.push_back(fmt_fixed(p.per_job_mibps[j], 1));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> overall{"Overall"};
  for (const auto& p : policies)
    overall.push_back(fmt_fixed(p.aggregate_mibps, 1));
  table.add_row(std::move(overall));
  return table;
}

Table gain_loss_table(const std::vector<std::pair<JobId, std::string>>& jobs,
                      const PolicySummary& subject,
                      const PolicySummary& baseline) {
  ADAPTBF_CHECK(subject.per_job_mibps.size() == jobs.size());
  ADAPTBF_CHECK(baseline.per_job_mibps.size() == jobs.size());
  Table table({"Job", subject.policy + " MiB/s", baseline.policy + " MiB/s",
               "Gain MiB/s", "Gain %"});
  auto add = [&](const std::string& name, double got, double base) {
    const double delta = got - base;
    const double pct = base > 0.0 ? delta / base * 100.0 : 0.0;
    table.add_row({name, fmt_fixed(got, 1), fmt_fixed(base, 1),
                   fmt_signed(delta, 1), fmt_signed(pct, 1)});
  };
  for (std::size_t j = 0; j < jobs.size(); ++j)
    add(jobs[j].second, subject.per_job_mibps[j], baseline.per_job_mibps[j]);
  add("Overall", subject.aggregate_mibps, baseline.aggregate_mibps);
  return table;
}

Table record_trace_table(
    const std::vector<WindowResult>& trace,
    const std::vector<std::pair<JobId, std::string>>& jobs,
    std::size_t points) {
  ADAPTBF_CHECK(points > 0);
  std::vector<std::string> headers{"t (s)"};
  for (const auto& [id, name] : jobs) {
    headers.push_back(name + " record");
    headers.push_back(name + " demand");
  }
  Table table(std::move(headers));
  if (trace.empty()) return table;
  const std::size_t chunk = std::max<std::size_t>(1, trace.size() / points);
  // The record is a running balance that only moves in windows where the
  // job is active; carry the last-known value forward so sampling a window
  // where the job sat out still shows its standing balance (the paper's
  // Fig. 7 plots exactly this running value).
  std::vector<double> last_record(jobs.size(), 0.0);
  for (std::size_t begin = 0; begin < trace.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, trace.size());
    std::vector<double> demand(jobs.size(), 0.0);
    for (std::size_t w = begin; w < end; ++w) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const JobAllocation* alloc = trace[w].find(jobs[j].first);
        if (alloc == nullptr) continue;
        last_record[j] = alloc->record_after;
        demand[j] += alloc->demand;
      }
    }
    std::vector<std::string> row{
        fmt_fixed(trace[end - 1].when.to_seconds(), 1)};
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      row.push_back(fmt_fixed(last_record[j], 0));
      row.push_back(fmt_fixed(demand[j], 0));
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace adaptbf
