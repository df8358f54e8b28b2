#include "ost/job_stats.h"

namespace adaptbf {

JobStatsTracker::Entry& JobStatsTracker::entry(JobId job) {
  Entry& e = jobs_[job];
  e.window.job = job;
  return e;
}

void JobStatsTracker::record_arrival(const Rpc& rpc) {
  Entry& e = entry(rpc.job);
  ++e.window.rpcs;
  e.window.bytes += rpc.size_bytes;
  ++e.cumulative.rpcs_issued;
  e.cumulative.bytes_issued += rpc.size_bytes;
}

void JobStatsTracker::record_completion(const Rpc& rpc) {
  Entry& e = entry(rpc.job);
  ++e.cumulative.rpcs_completed;
  e.cumulative.bytes_completed += rpc.size_bytes;
}

std::vector<JobWindowStats> JobStatsTracker::window_snapshot() const {
  std::vector<JobWindowStats> jobs;
  jobs.reserve(jobs_.size());
  for (const Entry& e : jobs_.values())
    if (e.window.rpcs > 0) jobs.push_back(e.window);
  return jobs;
}

void JobStatsTracker::clear_window() {
  for (Entry& e : jobs_.values()) e.window.rpcs = e.window.bytes = 0;
}

const JobCumulativeStats* JobStatsTracker::cumulative(JobId job) const {
  const Entry* e = jobs_.find(job);
  return e == nullptr ? nullptr : &e->cumulative;
}

std::vector<JobId> JobStatsTracker::jobs_ever_seen() const {
  return {jobs_.keys().begin(), jobs_.keys().end()};
}

}  // namespace adaptbf
