#include "adaptbf/rule_daemon.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/log.h"

namespace adaptbf {

RuleDaemon::RuleDaemon(TbfScheduler& scheduler, RuleDaemonConfig config)
    : scheduler_(scheduler), config_(std::move(config)) {
  ADAPTBF_CHECK(config_.min_rate >= 0.0);
  ADAPTBF_CHECK(config_.depth >= 1.0);
}

std::string RuleDaemon::rule_name(JobId job) const {
  return config_.rule_prefix + std::to_string(job.value());
}

namespace {
/// Lower rank = served preferentially on deadline ties. Priority in (0,1].
std::int32_t rank_from_priority(double priority) {
  return -static_cast<std::int32_t>(std::llround(priority * 1'000'000.0));
}
}  // namespace

void RuleDaemon::apply(const WindowResult& window, SimTime now) {
  // Stop rules for jobs absent from this window's active set, in ascending
  // JobId order.
  for (OwnedRule& owned : owned_rules_.values()) owned.in_window = false;
  for (const auto& j : window.jobs)
    if (OwnedRule* owned = owned_rules_.find(j.job)) owned->in_window = true;
  owned_rules_.erase_if([&](JobId job, const OwnedRule& owned) {
    if (owned.in_window) return false;
    // A job with no arrivals this window but RPCs still queued is merely
    // throttled, not gone: stopping its rule would release the backlog
    // unthrottled through the fallback path and invert the priorities the
    // rule exists to enforce. Keep the rule (at its last rate) until the
    // queue drains.
    if (scheduler_.queue_backlog(job) > 0) return false;
    if (!scheduler_.stop_rule(owned.name, now)) return true;  // gone already
    ++stopped_;
    ADAPTBF_LOG_INFO("rule-daemon", "stopped %s (job inactive)",
                     owned.name.c_str());
    return true;
  });

  // Start or re-rate a rule per active job.
  for (const auto& j : window.jobs) {
    const OwnedRule* owned = owned_rules_.find(j.job);
    const std::string name = owned != nullptr ? owned->name : rule_name(j.job);
    const double rate = std::max(config_.min_rate, j.rate);
    const std::int32_t rank = rank_from_priority(j.priority);
    if (scheduler_.change_rule(name, rate, rank, now)) {
      ++changed_;
      continue;
    }
    RuleSpec spec;
    spec.name = name;
    spec.matcher = RpcMatcher::for_job(j.job);
    spec.rate = rate;
    spec.depth = config_.depth;
    spec.rank = rank;
    scheduler_.start_rule(spec);
    if (owned == nullptr) owned_rules_[j.job].name = name;
    ++started_;
    ADAPTBF_LOG_INFO("rule-daemon", "started %s rate=%.1f rank=%d",
                     name.c_str(), rate, rank);
  }
}

}  // namespace adaptbf
