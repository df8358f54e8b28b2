#include "replay.h"

#include <algorithm>
#include <map>

#include "adaptbf/rule_daemon.h"
#include "adaptbf/token_allocator.h"
#include "net/frame.h"
#include "ost/disk_model.h"
#include "ost/ps_disk.h"
#include "sim/simulator.h"
#include "sweep/dispatch.h"
#include "tbf/tbf_scheduler.h"

namespace perfbench {

using namespace adaptbf;

PsDiskReplay replay_psdisk(const ScenarioSpec& spec, const TrialCapture& capture) {
  PsDiskReplay out;
  const DiskModel model(spec.disk);
  std::map<std::uint64_t, std::int64_t> live;  // rpc id -> end_service
  for (const auto& [id, end_ns] : capture.completions) live.emplace(id, end_ns);

  for (std::uint32_t ost = 0; ost < spec.num_osts; ++ost) {
    struct Admit {
      SimTime when;
      std::uint64_t tag;
      double work;
    };
    std::vector<Admit> admits;
    for (const TrialCapture::Admit& admit : capture.admits)
      if (admit.ost == ost)
        admits.push_back({SimTime(admit.when_ns), admit.rpc.id,
                          model.work_bytes(admit.rpc)});
    std::vector<std::pair<std::uint64_t, std::int64_t>> done;
    done.reserve(admits.size());

    Simulator sim;
    PsDisk disk(sim, spec.disk.seq_bandwidth);
    const auto record = [&done, &sim](std::uint64_t tag) {
      done.emplace_back(tag, sim.now().ns());
    };
    const std::int64_t t0 = now_ns();
    // The live OST admits from inside event callbacks, after the device's
    // completion event at the same instant; running the clock up to each
    // new admit time first keeps that order.
    SimTime last = SimTime::zero();
    for (const Admit& admit : admits) {
      if (admit.when > last) sim.run_until(admit.when);
      last = admit.when;
      disk.admit(admit.tag, admit.work, record);
    }
    sim.run_to_completion();
    out.ns += now_ns() - t0;
    out.rpcs += admits.size();

    for (const Admit& admit : admits) {
      const auto it = live.find(admit.tag);
      if (it != live.end())
        out.busy_transfer_ns += static_cast<double>(it->second - admit.when.ns());
    }
    for (const auto& [tag, end_ns] : done) {
      const auto it = live.find(tag);
      // Transfers still in flight at the horizon have no live completion.
      if (it != live.end() && it->second != end_ns) ++out.mismatches;
    }
  }
  return out;
}

AllocatorReplay replay_allocator(const ScenarioSpec& spec, double max_token_rate,
                                 const TrialCapture& capture) {
  AllocatorReplay out;
  std::map<JobId, std::uint32_t> nodes;
  for (const JobSpec& job : spec.jobs) nodes[job.id] = job.nodes;

  for (const std::vector<WindowResult>& windows : capture.windows) {
    TokenAllocator allocator(allocator_config(spec, max_token_rate));
    TbfScheduler scheduler;
    RuleDaemonConfig daemon_config;
    daemon_config.depth = spec.bucket_depth;
    RuleDaemon daemon(scheduler, daemon_config);

    std::vector<JobWindowInput> inputs;
    for (const WindowResult& live : windows) {
      inputs.clear();
      for (const JobAllocation& job : live.jobs) {
        JobWindowInput input;
        input.job = job.job;
        const auto it = nodes.find(job.job);
        input.nodes = it == nodes.end() ? 1 : it->second;
        input.demand = job.demand;
        inputs.push_back(input);
      }
      const std::int64_t t0 = now_ns();
      const WindowResult replayed = allocator.allocate(inputs, live.when);
      allocator.collect_garbage(live.when);
      const std::int64_t t1 = now_ns();
      daemon.apply(replayed, live.when);
      out.apply_ns += now_ns() - t1;
      out.allocate_ns += t1 - t0;
      ++out.windows;

      bool same = replayed.jobs.size() == live.jobs.size();
      for (std::size_t j = 0; same && j < live.jobs.size(); ++j)
        same = replayed.jobs[j].job == live.jobs[j].job &&
               replayed.jobs[j].tokens == live.jobs[j].tokens;
      if (!same) ++out.mismatches;
    }
  }
  return out;
}

FrameReplay replay_frames(const std::vector<std::vector<std::string>>& streams) {
  FrameReplay out;
  out.ok = true;
  std::string payload, error;
  dispatch_wire::Message message;
  const std::int64_t t0 = now_ns();
  for (const std::vector<std::string>& chunks : streams) {
    FrameReader reader;
    for (const std::string& chunk : chunks) {
      reader.feed(chunk.data(), chunk.size());
      for (;;) {
        const FrameReader::Status status = reader.next(payload, error);
        if (status == FrameReader::Status::kNeedMore) break;
        if (status == FrameReader::Status::kBad || !dispatch_wire::parse(payload, message)) {
          out.ok = false;
          break;
        }
        ++out.frames;
      }
    }
    if (reader.pending_bytes() != 0) out.ok = false;
  }
  out.ns = now_ns() - t0;
  return out;
}

}  // namespace perfbench
