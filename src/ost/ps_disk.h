// Processor-sharing device engine.
//
// Models the OST's backing device as a single resource of fixed bandwidth
// shared equally among all in-service transfers (egalitarian processor
// sharing) — the standard fluid approximation for concurrent bulk I/O on a
// shared SSD. Progress is integrated lazily between events; one pending
// completion event is kept armed for the transfer that will finish first.
// Deterministic: ties complete in admission order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"

namespace adaptbf {

class PsDisk {
 public:
  using DoneFn = std::function<void(std::uint64_t tag)>;

  /// `bandwidth` in work-bytes/second (see DiskModel::work_bytes).
  PsDisk(Simulator& sim, double bandwidth);

  /// Admits a transfer of `work_bytes` (> 0); `done` fires at completion.
  /// `tag` is any value unique among active transfers; it is handed back
  /// to `done` and plays no part in ordering.
  void admit(std::uint64_t tag, double work_bytes, DoneFn done);

  [[nodiscard]] std::size_t active() const { return active_.size(); }
  [[nodiscard]] double bandwidth() const { return bandwidth_; }

  /// Total work-bytes completed since construction (monotonic).
  [[nodiscard]] double work_completed() const { return work_completed_; }

 private:
  struct Transfer {
    std::uint64_t tag;
    double remaining;
    DoneFn done;
  };

  /// Integrates progress from last_update_ to now.
  void advance_to(SimTime now);
  /// (Re)arms the completion event for the earliest-finishing transfer.
  void arm_completion();
  void on_completion();

  Simulator& sim_;
  double bandwidth_;
  double work_completed_ = 0.0;
  /// Active transfers in admission order, the completion tie-break. The
  /// OST bounds them by its thread count, so scans stay short and the
  /// vector stops growing once warm.
  std::vector<Transfer> active_;
  /// on_completion()'s finished transfers; a member so it keeps capacity.
  std::vector<Transfer> finished_;
  SimTime last_update_;
  /// Armed completion event; stale (and safely cancellable) once fired.
  EventHandle pending_event_;
};

}  // namespace adaptbf
