// Service-order model of the NRS-TBF scheduler. One TbfScheduler and an
// in-test reference run the same seeded operations — rule starts (job
// rules, multi-job matchers, jobless rules; ranks -1..2), re-rates up, down
// and to 0, stops and restarts under stopped names, matched and unmatched
// enqueues, and dequeue / next_ready_time at advancing times — and every
// dequeued RPC id, every empty dequeue and every next_ready_time must agree.
//
// The reference keeps one (deadline, rank, arrival seq) key per non-empty
// queue and serves the least by a linear scan, with no heap, so it checks
// the scheduler's queue table and deadline heap rather than restating them.
// It draws one arrival seq wherever the scheduler does: a fallback arrival,
// each (re)computed deadline, each RPC a stopped rule hands to the fallback.
// change_rule re-keys a rule's queues in the iteration order of the rule's
// bound-job set; that order is a function of the set's insert/erase history,
// so the reference replays the same history into a set of the same type.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "support/random.h"
#include "tbf/tbf_scheduler.h"
#include "tbf/token_bucket.h"

namespace adaptbf {
namespace {

class ServiceOrderReference {
 public:
  void start_rule(const RuleSpec& spec) {
    rules_.push_back(std::make_unique<Rule>(
        Rule{spec.name, spec.matcher, spec.rate, spec.depth, spec.rank, {}}));
  }

  void change_rule(const std::string& name, double rate, std::int32_t rank,
                   SimTime now) {
    Rule* rule = find_rule(name);
    ASSERT_NE(rule, nullptr) << name;
    rule->rate = rate;
    rule->rank = rank;
    for (JobId job : rule->bound_jobs) {
      Queue& queue = queues_.at(job);
      queue.bucket.set_rate(rate, now);
      queue.rank = rank;
      if (!queue.rpcs.empty()) rekey(queue, now);
    }
  }

  void stop_rule(const std::string& name) {
    Rule* rule = find_rule(name);
    ASSERT_NE(rule, nullptr) << name;
    // Ascending JobId across queues, FIFO within each (std::map order).
    for (auto it = queues_.begin(); it != queues_.end();) {
      if (it->second.rule != rule) {
        ++it;
        continue;
      }
      for (const Rpc& rpc : it->second.rpcs)
        fallback_.push_back({next_seq_++, rpc});
      it = queues_.erase(it);
    }
    std::erase_if(rules_, [rule](const auto& r) { return r.get() == rule; });
  }

  void enqueue(const Rpc& rpc, SimTime now) {
    Rule* rule = classify(rpc);
    if (rule == nullptr) {
      fallback_.push_back({next_seq_++, rpc});
      return;
    }
    auto it = queues_.find(rpc.job);
    if (it != queues_.end() && it->second.rule != rule) {
      Queue& queue = it->second;
      queue.rule->bound_jobs.erase(rpc.job);
      rule->bound_jobs.insert(rpc.job);
      queue.rule = rule;
      queue.rank = rule->rank;
      queue.bucket = TokenBucket(rule->rate, rule->depth, now, rule->depth);
      queue.rpcs.push_back(rpc);
      rekey(queue, now);
      return;
    }
    if (it == queues_.end()) {
      rule->bound_jobs.insert(rpc.job);
      it = queues_
               .emplace(rpc.job,
                        Queue{rule,
                              TokenBucket(rule->rate, rule->depth, now,
                                          rule->depth),
                              {},
                              rule->rank,
                              {}})
               .first;
    }
    Queue& queue = it->second;
    queue.rpcs.push_back(rpc);
    if (queue.rpcs.size() == 1) rekey(queue, now);
  }

  std::optional<Rpc> dequeue(SimTime now) {
    while (true) {
      Queue* top = least_queue();
      const bool rule_due = top != nullptr && top->key.deadline <= now;
      if (!fallback_.empty() &&
          (!rule_due || fallback_.front().first < top->key.seq)) {
        const Rpc rpc = fallback_.front().second;
        fallback_.pop_front();
        return rpc;
      }
      if (!rule_due) return std::nullopt;
      if (top->bucket.try_consume(1.0, now)) {
        const Rpc rpc = top->rpcs.front();
        top->rpcs.pop_front();
        if (!top->rpcs.empty()) rekey(*top, now);
        return rpc;
      }
      rekey(*top, now);
    }
  }

  SimTime next_ready_time(SimTime now) {
    if (!fallback_.empty()) return now;
    const Queue* top = least_queue();
    return top == nullptr ? SimTime::max() : std::max(now, top->key.deadline);
  }

  [[nodiscard]] std::size_t backlog() const {
    std::size_t total = fallback_.size();
    for (const auto& [job, queue] : queues_) total += queue.rpcs.size();
    return total;
  }

 private:
  struct Rule {
    std::string name;
    RpcMatcher matcher;
    double rate;
    double depth;
    std::int32_t rank;
    std::unordered_set<JobId> bound_jobs;
  };
  struct Key {
    SimTime deadline;
    std::int32_t rank = 0;
    std::uint64_t seq = 0;
    bool operator<(const Key& o) const {
      return std::tie(deadline, rank, seq) <
             std::tie(o.deadline, o.rank, o.seq);
    }
  };
  struct Queue {
    Rule* rule;
    TokenBucket bucket;
    std::deque<Rpc> rpcs;
    std::int32_t rank;
    Key key;  ///< Meaningful while rpcs is non-empty.
  };

  Rule* find_rule(const std::string& name) {
    for (const auto& rule : rules_)
      if (rule->name == name) return rule.get();
    return nullptr;
  }

  /// First lowest-rank match in start order.
  Rule* classify(const Rpc& rpc) {
    Rule* best = nullptr;
    for (const auto& rule : rules_)
      if (rule->matcher.matches(rpc) &&
          (best == nullptr || rule->rank < best->rank))
        best = rule.get();
    return best;
  }

  void rekey(Queue& queue, SimTime now) {
    queue.key = Key{queue.bucket.time_for_tokens(1.0, now), queue.rank,
                    next_seq_++};
  }

  Queue* least_queue() {
    Queue* best = nullptr;
    for (auto& [job, queue] : queues_)
      if (!queue.rpcs.empty() && (best == nullptr || queue.key < best->key))
        best = &queue;
    return best;
  }

  std::vector<std::unique_ptr<Rule>> rules_;  // start order
  std::map<JobId, Queue> queues_;
  std::deque<std::pair<std::uint64_t, Rpc>> fallback_;
  std::uint64_t next_seq_ = 0;
};

struct ServiceOrderParam {
  std::uint64_t seed;
  int operations;
  std::uint32_t max_jobs;
};

class TbfServiceOrderTest
    : public ::testing::TestWithParam<ServiceOrderParam> {};

TEST_P(TbfServiceOrderTest, MatchesLinearScanReference) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  TbfScheduler scheduler;
  ServiceOrderReference reference;
  std::vector<std::string> live;
  std::vector<std::string> stopped;
  std::uint64_t rule_counter = 0;
  std::uint64_t next_rpc_id = 1;
  std::uint64_t served = 0;
  SimTime now = SimTime::zero();
  // Jobs above max_jobs are never named by a rule: only a jobless rule
  // can match them, so they often go unmatched.
  auto random_job = [&] {
    return JobId(
        static_cast<std::uint32_t>(rng.next_in(1, param.max_jobs + 2)));
  };
  auto random_opcode = [&] {
    return rng.next_in(0, 1) == 0 ? Opcode::kOstRead : Opcode::kOstWrite;
  };
  auto random_rank = [&] {
    return static_cast<std::int32_t>(rng.next_in(0, 3)) - 1;
  };
  auto random_rate = [&] { return 1.0 + rng.next_double() * 2000.0; };

  for (int op = 0; op < param.operations; ++op) {
    const std::uint64_t hop = rng.next_in(0, 3);  // 0: same timestamp
    if (hop > 0)
      now += SimDuration::micros(
          static_cast<std::int64_t>(rng.next_in(1, 400 * hop)));
    const double dice = rng.next_double();
    if (dice < 0.40) {
      Rpc rpc;
      rpc.id = next_rpc_id++;
      rpc.job = random_job();
      rpc.nid = Nid(static_cast<std::uint32_t>(rng.next_in(0, 3)));
      rpc.opcode = random_opcode();
      rpc.size_bytes = 4096;
      scheduler.enqueue(rpc, now);
      reference.enqueue(rpc, now);
    } else if (dice < 0.62) {
      // Serve until both sides report nothing eligible.
      while (true) {
        const std::optional<Rpc> got = scheduler.dequeue(now);
        const std::optional<Rpc> want = reference.dequeue(now);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (!got.has_value()) break;
        ASSERT_EQ(got->id, want->id) << "op " << op << " serve " << served;
        ++served;
      }
    } else if (dice < 0.72) {
      const SimTime ready = scheduler.next_ready_time(now);
      ASSERT_EQ(ready.ns(), reference.next_ready_time(now).ns())
          << "op " << op;
      // Often jump to the ready time, where a token just became due.
      if (ready != SimTime::max() && rng.next_in(0, 1) == 0) now = ready;
    } else if (dice < 0.82) {
      RpcMatcher matcher;
      const auto shape = rng.next_in(0, 5);
      if (shape <= 2) {
        matcher.add_job(random_job());  // job rule
      } else if (shape <= 4) {
        const auto jobs = rng.next_in(2, 4);  // multi-job, repeats allowed
        for (std::uint64_t i = 0; i < jobs; ++i) {
          const JobId job = random_job();
          matcher.add_job(job);
          if (rng.next_in(0, 4) == 0) matcher.add_job(job);
        }
      } else if (rng.next_in(0, 5) != 0) {  // jobless; rarely a wildcard
        if (rng.next_in(0, 1) == 0)
          matcher.add_nid(Nid(static_cast<std::uint32_t>(rng.next_in(0, 3))));
        else
          matcher.add_opcode(random_opcode());
      }
      RuleSpec spec;
      if (!stopped.empty() && rng.next_in(0, 2) == 0) {
        const auto index = rng.next_in(0, stopped.size() - 1);
        spec.name = stopped[index];  // restart under a stopped name
        stopped.erase(stopped.begin() + static_cast<std::ptrdiff_t>(index));
      } else {
        spec.name = "r" + std::to_string(rule_counter++);
      }
      spec.matcher = matcher;
      spec.rate = random_rate();
      spec.rank = random_rank();
      if (rng.next_in(0, 3) == 0)
        spec.depth = 1.0 + static_cast<double>(rng.next_in(0, 4));
      scheduler.start_rule(spec);
      reference.start_rule(spec);
      live.push_back(spec.name);
    } else if (dice < 0.92 && !live.empty()) {
      const std::string& name = live[rng.next_in(0, live.size() - 1)];
      double rate = random_rate();
      switch (rng.next_in(0, 3)) {
        case 0: rate *= 4.0; break;    // up
        case 1: rate *= 0.01; break;   // down
        case 2: rate = 0.0; break;     // frozen
        default: break;
      }
      const std::int32_t rank = random_rank();
      ASSERT_TRUE(scheduler.change_rule(name, rate, rank, now));
      reference.change_rule(name, rate, rank, now);
    } else if (!live.empty()) {
      const auto index = rng.next_in(0, live.size() - 1);
      ASSERT_TRUE(scheduler.stop_rule(live[index], now));
      reference.stop_rule(live[index]);
      stopped.push_back(live[index]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    }
    ASSERT_EQ(scheduler.backlog(), reference.backlog()) << "op " << op;
  }
  // The seeds must reach the interesting paths, not just pass vacuously.
  EXPECT_GT(served, static_cast<std::uint64_t>(param.operations) / 10);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TbfServiceOrderTest,
    ::testing::Values(ServiceOrderParam{71, 8000, 3},
                      ServiceOrderParam{72, 8000, 8},
                      ServiceOrderParam{73, 6000, 24},
                      ServiceOrderParam{74, 4000, 64}),
    [](const ::testing::TestParamInfo<ServiceOrderParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace adaptbf
