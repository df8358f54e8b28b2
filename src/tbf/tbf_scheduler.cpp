#include "tbf/tbf_scheduler.h"

#include <algorithm>
#include <utility>

#include "support/check.h"
#include "support/log.h"

namespace adaptbf {

TbfScheduler::TbfScheduler(Config config) : config_(config) {
  ADAPTBF_CHECK(config_.default_depth >= 1.0);
}

void TbfScheduler::start_rule(const RuleSpec& spec) {
  ADAPTBF_CHECK_MSG(!spec.name.empty(), "rule name must be non-empty");
  ADAPTBF_CHECK_MSG(!has_rule(spec.name), "duplicate rule name");
  ADAPTBF_CHECK_MSG(spec.rate >= 0.0, "rule rate must be non-negative");
  ADAPTBF_CHECK_MSG(spec.depth >= 1.0, "rule depth must admit one RPC");
  auto rule = std::make_unique<Rule>();
  rule->spec = spec;
  rule->generation = ++generation_counter_;
  Rule* started = rule.get();
  rules_by_name_.emplace(spec.name, started);
  rules_.push_back(std::move(rule));
  const auto& jobs = spec.matcher.jobs();
  if (jobs.empty()) jobless_rules_.push_back(started);
  for (JobId job : jobs) {
    // The new rule is the newest in every list, so a repeated id finds it
    // at the back already.
    auto& candidates = rules_by_job_[job];
    if (candidates.empty() || candidates.back() != started)
      candidates.push_back(started);
  }
  ADAPTBF_LOG_DEBUG("tbf", "start rule '%s' (%s) rate=%.2f rank=%d",
                    spec.name.c_str(), spec.matcher.to_string().c_str(),
                    spec.rate, spec.rank);
}

bool TbfScheduler::change_rule(const std::string& name, double new_rate,
                               std::int32_t new_rank, SimTime now) {
  ADAPTBF_CHECK(new_rate >= 0.0);
  auto it = rules_by_name_.find(name);
  if (it == rules_by_name_.end()) return false;
  Rule* rule = it->second;
  rule->spec.rate = new_rate;
  rule->spec.rank = new_rank;
  ++rule->stats.rate_changes;
  for (JobId job : rule->bound_jobs) {
    auto& queue = queues_.at(job);
    queue.bucket.set_rate(new_rate, now);
    queue.rank = new_rank;
    if (!queue.rpcs.empty()) push_deadline(queue, now);
  }
  return true;
}

bool TbfScheduler::stop_rule(const std::string& name, SimTime /*now*/) {
  auto named = rules_by_name_.find(name);
  if (named == rules_by_name_.end()) return false;
  Rule* rule = named->second;
  // Queues bound to the stopped rule drain through the fallback path:
  // their pending RPCs keep FIFO order within each queue and are appended
  // in ascending JobId order across queues (deterministic).
  std::vector<JobId> to_erase(rule->bound_jobs.begin(),
                              rule->bound_jobs.end());
  std::sort(to_erase.begin(), to_erase.end());
  for (JobId job : to_erase) {
    auto& queue = queues_.at(job);
    for (; !queue.rpcs.empty(); queue.rpcs.pop_front())
      fallback_.push_back({arrival_counter_++, queue.rpcs.front()});
    queues_.erase(job);
  }
  const auto& jobs = rule->spec.matcher.jobs();
  if (jobs.empty()) std::erase(jobless_rules_, rule);
  for (JobId job : jobs) std::erase(*rules_by_job_.find(job), rule);
  rules_by_name_.erase(named);
  std::erase_if(rules_, [rule](const auto& r) { return r.get() == rule; });
  ADAPTBF_LOG_DEBUG("tbf", "stop rule '%s'", name.c_str());
  return true;
}

bool TbfScheduler::has_rule(const std::string& name) const {
  return rules_by_name_.contains(name);
}

std::vector<std::string> TbfScheduler::active_rules() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& rule : rules_) names.push_back(rule->spec.name);
  return names;
}

const RuleStats* TbfScheduler::rule_stats(const std::string& name) const {
  auto it = rules_by_name_.find(name);
  return it == rules_by_name_.end() ? nullptr : &it->second->stats;
}

TbfScheduler::Rule* TbfScheduler::classify(const Rpc& rpc) {
  // The same pick as a scan of rules_ in start order that keeps the first
  // lowest rank: start order is generation order.
  Rule* best = nullptr;
  auto consider = [&](Rule* rule) {
    if (!rule->spec.matcher.matches(rpc)) return;
    if (best == nullptr || rule->spec.rank < best->spec.rank ||
        (rule->spec.rank == best->spec.rank &&
         rule->generation < best->generation))
      best = rule;
  };
  if (const auto* named = rules_by_job_.find(rpc.job))
    for (Rule* rule : *named) consider(rule);
  for (Rule* rule : jobless_rules_) consider(rule);
  return best;
}

void TbfScheduler::push_deadline(ClassQueue& q, SimTime now) {
  const SimTime deadline = q.bucket.time_for_tokens(1.0, now);
  q.heap_version = ++heap_version_counter_;
  heap_.push(HeapEntry{deadline, q.rank, arrival_counter_++, q.heap_version,
                       q.job});
}

void TbfScheduler::enqueue(const Rpc& rpc, SimTime now) {
  Rule* rule = classify(rpc);
  if (rule == nullptr) {
    fallback_.push_back({arrival_counter_++, rpc});
    ++backlog_;
    return;
  }
  ++rule->stats.arrived;
  auto it = queues_.find(rpc.job);
  if (it != queues_.end() && it->second.rule != rule) {
    // The job's best-matching rule changed (rule stopped+restarted, or a
    // higher-rank rule now matches). Rebind: keep pending RPCs, adopt the
    // new rule's rate/rank with a fresh bucket.
    ClassQueue& queue = it->second;
    queue.rule->bound_jobs.erase(rpc.job);
    rule->bound_jobs.insert(rpc.job);
    queue.rule = rule;
    queue.rank = rule->spec.rank;
    queue.bucket = TokenBucket(rule->spec.rate, rule->spec.depth, now,
                               config_.start_full ? rule->spec.depth : 0.0);
    queue.rpcs.push_back(rpc);
    ++backlog_;
    push_deadline(queue, now);
    return;
  }
  if (it == queues_.end()) {
    ClassQueue queue{
        rpc.job,
        rule,
        TokenBucket(rule->spec.rate, rule->spec.depth, now,
                    config_.start_full ? rule->spec.depth : 0.0),
        {},
        rule->spec.rank,
        0};
    rule->bound_jobs.insert(rpc.job);
    it = queues_.emplace(rpc.job, std::move(queue)).first;
  }
  ClassQueue& queue = it->second;
  const bool was_empty = queue.rpcs.empty();
  queue.rpcs.push_back(rpc);
  ++backlog_;
  if (was_empty) push_deadline(queue, now);
}

std::optional<Rpc> TbfScheduler::dequeue(SimTime now) {
  while (true) {
    // Drop stale heap entries off the top.
    const HeapEntry* top = nullptr;
    while (!heap_.empty()) {
      const HeapEntry& candidate = heap_.top();
      auto it = queues_.find(candidate.job);
      if (it == queues_.end() ||
          it->second.heap_version != candidate.version) {
        heap_.pop();
        continue;
      }
      top = &candidate;
      break;
    }
    const bool rule_due = top != nullptr && top->deadline <= now;
    // Fallback competes with due rule queues in arrival order; it wins
    // outright when no rule queue is due.
    if (!fallback_.empty() &&
        (!rule_due || fallback_.front().first < top->arrival_seq)) {
      Rpc rpc = fallback_.front().second;
      fallback_.pop_front();
      --backlog_;
      return rpc;
    }
    if (!rule_due) return std::nullopt;
    const HeapEntry entry = *top;
    heap_.pop();
    ClassQueue& queue = queues_.at(entry.job);
    ADAPTBF_CHECK(!queue.rpcs.empty());
    if (queue.bucket.try_consume(1.0, now)) {
      Rpc rpc = queue.rpcs.front();
      queue.rpcs.pop_front();
      --backlog_;
      ++queue.rule->stats.served;
      if (!queue.rpcs.empty()) {
        push_deadline(queue, now);
      } else {
        queue.heap_version = 0;  // no live entry while queue is empty
      }
      return rpc;
    }
    // Deadline was computed under an older (higher) rate; recompute. The
    // new deadline is strictly in the future, so this cannot loop.
    push_deadline(queue, now);
  }
}

SimTime TbfScheduler::next_ready_time(SimTime now) {
  if (!fallback_.empty()) return now;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    auto it = queues_.find(top.job);
    if (it == queues_.end() || it->second.heap_version != top.version) {
      heap_.pop();
      continue;
    }
    return std::max(now, top.deadline);
  }
  return SimTime::max();
}

double TbfScheduler::queue_tokens(JobId job, SimTime now) {
  auto it = queues_.find(job);
  if (it == queues_.end()) return 0.0;
  return it->second.bucket.tokens(now);
}

std::size_t TbfScheduler::queue_backlog(JobId job) const {
  auto it = queues_.find(job);
  return it == queues_.end() ? 0 : it->second.rpcs.size();
}

}  // namespace adaptbf
