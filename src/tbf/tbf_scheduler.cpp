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
    auto& candidates = jobs_[job].rules;
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
    const std::uint32_t slot = jobs_.find(job)->queue;
    ClassQueue& queue = queues_[slot];
    queue.bucket.set_rate(new_rate, now);
    queue.rank = new_rank;
    if (!queue.rpcs.empty()) push_deadline(slot, now);
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
    JobEntry& entry = *jobs_.find(job);
    ClassQueue& queue = queues_[entry.queue];
    heap_remove(entry.queue);
    for (; !queue.rpcs.empty(); queue.rpcs.pop_front())
      fallback_.push_back({arrival_counter_++, queue.rpcs.front()});
    queue.rule = nullptr;
    free_queues_.push_back(entry.queue);
    entry.queue = kNone;
  }
  const auto& jobs = rule->spec.matcher.jobs();
  if (jobs.empty()) std::erase(jobless_rules_, rule);
  for (JobId job : jobs) std::erase(jobs_.find(job)->rules, rule);
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

TbfScheduler::Rule* TbfScheduler::classify(const Rpc& rpc,
                                           const JobEntry* entry) {
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
  if (entry != nullptr)
    for (Rule* rule : entry->rules) consider(rule);
  for (Rule* rule : jobless_rules_) consider(rule);
  return best;
}

TokenBucket TbfScheduler::fresh_bucket(const Rule& rule, SimTime now) const {
  return TokenBucket(rule.spec.rate, rule.spec.depth, now,
                     config_.start_full ? rule.spec.depth : 0.0);
}

std::uint32_t TbfScheduler::acquire_queue(Rule* rule, SimTime now) {
  if (free_queues_.empty()) {
    queues_.push_back(ClassQueue{rule, fresh_bucket(*rule, now), {},
                                 rule->spec.rank, kNone});
    return static_cast<std::uint32_t>(queues_.size() - 1);
  }
  const std::uint32_t slot = free_queues_.back();
  free_queues_.pop_back();
  ClassQueue& queue = queues_[slot];  // drained: keeps its ring's capacity
  queue.rule = rule;
  queue.bucket = fresh_bucket(*rule, now);
  queue.rank = rule->spec.rank;
  return slot;
}

void TbfScheduler::push_deadline(std::uint32_t slot, SimTime now) {
  ClassQueue& queue = queues_[slot];
  const HeapEntry entry{queue.bucket.time_for_tokens(1.0, now), queue.rank,
                        slot, arrival_counter_++};
  if (queue.heap_pos == kNone) {
    queue.heap_pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(entry);
  } else {
    heap_[queue.heap_pos] = entry;
  }
  // A moved entry's new key may order either way against its old one.
  heap_sift_up(queue.heap_pos);
  heap_sift_down(queue.heap_pos);
}

void TbfScheduler::heap_remove(std::uint32_t slot) {
  const std::uint32_t pos = queues_[slot].heap_pos;
  if (pos == kNone) return;
  queues_[slot].heap_pos = kNone;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_set(pos, last);
  heap_sift_up(pos);
  heap_sift_down(queues_[last.slot].heap_pos);
}

void TbfScheduler::heap_set(std::size_t pos, const HeapEntry& entry) {
  heap_[pos] = entry;
  queues_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void TbfScheduler::heap_sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(moving < heap_[parent])) break;
    heap_set(pos, heap_[parent]);
    pos = parent;
  }
  heap_set(pos, moving);
}

void TbfScheduler::heap_sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[pos];
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < moving)) break;
    heap_set(pos, heap_[child]);
    pos = child;
  }
  heap_set(pos, moving);
}

void TbfScheduler::enqueue(const Rpc& rpc, SimTime now) {
  JobEntry* entry = jobs_.find(rpc.job);
  Rule* rule = classify(rpc, entry);
  if (rule == nullptr) {
    fallback_.push_back({arrival_counter_++, rpc});
    ++backlog_;
    return;
  }
  ++rule->stats.arrived;
  if (entry == nullptr) entry = &jobs_[rpc.job];  // matched by a jobless rule
  if (entry->queue != kNone && queues_[entry->queue].rule != rule) {
    // The job's best-matching rule changed (rule stopped+restarted, or a
    // higher-rank rule now matches). Rebind: keep pending RPCs, adopt the
    // new rule's rate/rank with a fresh bucket.
    ClassQueue& queue = queues_[entry->queue];
    queue.rule->bound_jobs.erase(rpc.job);
    rule->bound_jobs.insert(rpc.job);
    queue.rule = rule;
    queue.rank = rule->spec.rank;
    queue.bucket = fresh_bucket(*rule, now);
    queue.rpcs.push_back(rpc);
    ++backlog_;
    push_deadline(entry->queue, now);
    return;
  }
  if (entry->queue == kNone) {
    rule->bound_jobs.insert(rpc.job);
    entry->queue = acquire_queue(rule, now);
  }
  ClassQueue& queue = queues_[entry->queue];
  const bool was_empty = queue.rpcs.empty();
  queue.rpcs.push_back(rpc);
  ++backlog_;
  if (was_empty) push_deadline(entry->queue, now);
}

std::optional<Rpc> TbfScheduler::dequeue(SimTime now) {
  while (true) {
    const bool rule_due = !heap_.empty() && heap_[0].deadline <= now;
    // Fallback competes with due rule queues in arrival order; it wins
    // outright when no rule queue is due.
    if (!fallback_.empty() &&
        (!rule_due || fallback_.front().first < heap_[0].arrival_seq)) {
      Rpc rpc = fallback_.front().second;
      fallback_.pop_front();
      --backlog_;
      return rpc;
    }
    if (!rule_due) return std::nullopt;
    const std::uint32_t slot = heap_[0].slot;
    ClassQueue& queue = queues_[slot];
    ADAPTBF_CHECK(!queue.rpcs.empty());
    if (queue.bucket.try_consume(1.0, now)) {
      Rpc rpc = queue.rpcs.front();
      queue.rpcs.pop_front();
      --backlog_;
      ++queue.rule->stats.served;
      if (queue.rpcs.empty()) {
        heap_remove(slot);
      } else {
        push_deadline(slot, now);
      }
      return rpc;
    }
    // Deadline was computed under an older (higher) rate; recompute. The
    // new deadline is strictly in the future, so this cannot loop.
    push_deadline(slot, now);
  }
}

SimTime TbfScheduler::next_ready_time(SimTime now) {
  if (!fallback_.empty()) return now;
  return heap_.empty() ? SimTime::max() : std::max(now, heap_[0].deadline);
}

double TbfScheduler::queue_tokens(JobId job, SimTime now) {
  const JobEntry* entry = jobs_.find(job);
  if (entry == nullptr || entry->queue == kNone) return 0.0;
  return queues_[entry->queue].bucket.tokens(now);
}

std::size_t TbfScheduler::queue_backlog(JobId job) const {
  const JobEntry* entry = jobs_.find(job);
  if (entry == nullptr || entry->queue == kNone) return 0;
  return queues_[entry->queue].rpcs.size();
}

}  // namespace adaptbf
