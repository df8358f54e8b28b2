// NRS-TBF: classful token-bucket-filter request scheduler.
//
// Faithful model of the Lustre Network Request Scheduler TBF policy
// (Qian et al., SC'17; Fig. 1 of the AdapTBF paper):
//
//  * A rule list classifies arriving RPCs: the matching rule with the
//    lowest rank wins, and the earliest-started one among equal ranks.
//    Rules can be started, changed (re-rated) and stopped at runtime.
//  * Each (rule, classification-key) pair owns a queue with a token bucket.
//    RPCs within a queue are FCFS and dequeue only when a token is held.
//  * Queues carry a deadline — the time at which they will next hold a
//    token — and the scheduler serves the queue with the earliest deadline
//    (binary heap). Ties break by rule rank (AdapTBF's priority hierarchy,
//    §III-D), then arrival order.
//  * RPCs matching no rule land in the fallback queue, which has no token
//    limit and is served whenever no rule queue is eligible, so unclassified
//    jobs never starve (§III-D).
//
// Classification key: this reproduction keys queues by JobID (the paper sets
// `jobid_var=nodelocal`), so one queue exists per (rule, job) pair.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "support/flat_map.h"
#include "support/ring_fifo.h"
#include "tbf/rule.h"
#include "tbf/scheduler.h"
#include "tbf/token_bucket.h"

namespace adaptbf {

class TbfScheduler final : public RequestScheduler {
 public:
  struct Config {
    /// Bucket depth for queues whose rule does not override it.
    double default_depth = 3.0;
    /// New queues start with a full bucket (Lustre behaviour: the first
    /// burst up to `depth` RPCs passes immediately).
    bool start_full = true;
  };

  TbfScheduler() : TbfScheduler(Config{}) {}
  explicit TbfScheduler(Config config);

  // --- Rule management (what AdapTBF's Rule Management Daemon drives) ---

  /// Starts a rule. Name must be unique among active rules. Existing queued
  /// RPCs are NOT reclassified (matches Lustre: classification happens at
  /// arrival), but new arrivals see the rule immediately.
  void start_rule(const RuleSpec& spec);

  /// Changes the token rate (and rank) of an active rule; all queues bound
  /// to it pick up the new rate at `now`, keeping their accrued tokens.
  /// Returns false if no such rule.
  bool change_rule(const std::string& name, double new_rate,
                   std::int32_t new_rank, SimTime now);

  /// Stops a rule. Its queues drain without further token limits (they are
  /// folded into the fallback path), and new arrivals are reclassified.
  /// Returns false if no such rule.
  bool stop_rule(const std::string& name, SimTime now);

  [[nodiscard]] bool has_rule(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> active_rules() const;
  [[nodiscard]] const RuleStats* rule_stats(const std::string& name) const;

  // --- RequestScheduler interface ---

  void enqueue(const Rpc& rpc, SimTime now) override;
  std::optional<Rpc> dequeue(SimTime now) override;
  SimTime next_ready_time(SimTime now) override;
  [[nodiscard]] std::size_t backlog() const override { return backlog_; }

  /// RPCs waiting in the fallback (unclassified) queue.
  [[nodiscard]] std::size_t fallback_backlog() const {
    return fallback_.size();
  }

  /// Tokens currently held by job `job`'s queue (testing aid).
  [[nodiscard]] double queue_tokens(JobId job, SimTime now);

  /// RPCs waiting in job `job`'s rule-bound queue (0 if it has none).
  /// The rule daemon uses this to avoid stopping rules that still gate
  /// queued work — stopping such a rule would release the backlog
  /// unthrottled through the fallback path.
  [[nodiscard]] std::size_t queue_backlog(JobId job) const;

 private:
  struct Rule {
    RuleSpec spec;
    RuleStats stats;
    std::uint64_t generation;  ///< Distinguishes a restarted same-name rule.
    /// Jobs whose queue is currently bound to this rule. Lets rule changes
    /// and stops touch exactly their own queues (O(bound) instead of a
    /// scan over every queue — the §IV-G O(n) scaling depends on it).
    std::unordered_set<JobId> bound_jobs;
  };

  struct ClassQueue {
    JobId job;
    /// Owning rule. Stable: rules_ stores unique_ptrs, and stop_rule()
    /// erases every bound queue before destroying the rule.
    Rule* rule = nullptr;
    TokenBucket bucket;
    RingFifo<Rpc> rpcs;
    std::int32_t rank = 0;
    /// Version of the queue's one live heap entry (0: none). Drawn from
    /// the scheduler-wide heap_version_counter_, so a queue re-created
    /// for the same job can never revive an entry left by its predecessor.
    std::uint64_t heap_version = 0;
  };

  struct HeapEntry {
    SimTime deadline;
    std::int32_t rank;
    std::uint64_t arrival_seq;
    std::uint64_t version;
    JobId job;
    bool operator>(const HeapEntry& o) const {
      if (deadline != o.deadline) return deadline > o.deadline;
      if (rank != o.rank) return rank > o.rank;
      return arrival_seq > o.arrival_seq;
    }
  };

  /// The matching rule with the lowest rank, then the earliest start.
  /// Considers only the rules listed under `rpc.job` and the rules with no
  /// job clause, so its cost does not grow with the number of jobs.
  Rule* classify(const Rpc& rpc);

  /// Recomputes and pushes the heap entry for a non-empty throttled queue.
  void push_deadline(ClassQueue& q, SimTime now);

  Config config_;
  std::vector<std::unique_ptr<Rule>> rules_;           // insertion-ordered
  std::unordered_map<std::string, Rule*> rules_by_name_;
  /// Classification candidates, each list in start order: every rule whose
  /// matcher names a job is listed under that job, once; rules with no job
  /// clause are listed in jobless_rules_. A job's list stays in the table
  /// when its last rule stops, so a restart reuses the storage.
  FlatMap<JobId, std::vector<Rule*>> rules_by_job_;
  std::vector<Rule*> jobless_rules_;
  std::unordered_map<JobId, ClassQueue> queues_;       // one per job
  /// Unclassified RPCs, tagged with their arrival sequence. The fallback
  /// competes FIFO-fairly with *due* rule queues (older head first) rather
  /// than only running when every rule queue is token-blocked — matching
  /// Lustre, where the default/fallback queue participates in scheduling.
  /// Otherwise a saturated rule set (Σ rates ≈ device rate) would starve
  /// fallback RPCs forever, deadlocking closed-loop clients.
  RingFifo<std::pair<std::uint64_t, Rpc>> fallback_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      heap_;
  std::size_t backlog_ = 0;
  std::uint64_t arrival_counter_ = 0;
  std::uint64_t generation_counter_ = 0;
  std::uint64_t heap_version_counter_ = 0;
};

}  // namespace adaptbf
