#include "ost/ps_disk.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/check.h"

namespace adaptbf {

namespace {
// Transfers within this many work-bytes of done are considered complete;
// absorbs float drift from repeated progress integration.
constexpr double kCompletionSlack = 1e-3;
}  // namespace

PsDisk::PsDisk(Simulator& sim, double bandwidth)
    : sim_(sim), bandwidth_(bandwidth), last_update_(sim.now()) {
  ADAPTBF_CHECK_MSG(bandwidth > 0.0, "disk bandwidth must be positive");
}

void PsDisk::advance_to(SimTime now) {
  ADAPTBF_CHECK(now >= last_update_);
  if (!active_.empty() && now > last_update_) {
    const double share = bandwidth_ * (now - last_update_).to_seconds() /
                         static_cast<double>(active_.size());
    for (Transfer& transfer : active_) {
      const double progressed = std::min(transfer.remaining, share);
      transfer.remaining -= progressed;
      work_completed_ += progressed;
    }
  }
  last_update_ = now;
}

void PsDisk::arm_completion() {
  if (active_.empty()) {
    sim_.cancel(pending_event_);  // no-op when unarmed or already fired
    return;
  }
  double min_remaining = -1.0;
  for (const Transfer& transfer : active_)
    if (min_remaining < 0.0 || transfer.remaining < min_remaining)
      min_remaining = transfer.remaining;
  const double wait_sec = std::max(0.0, min_remaining) *
                          static_cast<double>(active_.size()) / bandwidth_;
  const SimTime when =
      sim_.now() +
      SimDuration(static_cast<std::int64_t>(std::ceil(wait_sec * 1e9)));
  if (!sim_.reschedule_at(pending_event_, when))
    pending_event_ = sim_.schedule_at(when, [this] { on_completion(); });
}

void PsDisk::on_completion() {
  advance_to(sim_.now());
  // Move everything done to finished_ and compact the rest in place; both
  // keep admission order, so ties complete in the order they were admitted.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Transfer& transfer = active_[i];
    if (transfer.remaining <= kCompletionSlack) {
      work_completed_ += transfer.remaining;  // count the slack
      finished_.push_back(std::move(transfer));
    } else {
      if (kept != i) active_[kept] = std::move(transfer);
      ++kept;
    }
  }
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                active_.end());
  // Re-arm before running callbacks: callbacks typically admit new work,
  // and admit() re-arms again with the updated active set.
  arm_completion();
  for (Transfer& transfer : finished_) transfer.done(transfer.tag);
  finished_.clear();
}

void PsDisk::admit(std::uint64_t tag, double work_bytes, DoneFn done) {
  ADAPTBF_CHECK_MSG(work_bytes > 0.0, "transfer work must be positive");
  ADAPTBF_CHECK_MSG(
      std::none_of(active_.begin(), active_.end(),
                   [tag](const Transfer& t) { return t.tag == tag; }),
      "duplicate active transfer tag");
  advance_to(sim_.now());
  active_.push_back(Transfer{tag, work_bytes, std::move(done)});
  arm_completion();
}

}  // namespace adaptbf
