#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTrial: return "trial";
    case Layer::kClusterSetup: return "cluster.setup";
    case Layer::kSimRun: return "sim.run_until";
    case Layer::kTbf: return "tbf.scheduler";
    case Layer::kClientRoute: return "client.route";
    case Layer::kClientPattern: return "client.pattern";
    case Layer::kMetricsRecord: return "metrics.record";
    case Layer::kClusterTeardown: return "cluster.teardown";
    case Layer::kMetricsSummary: return "metrics.summary";
    case Layer::kSweepAppend: return "sweep.append";
    case Layer::kCount: break;
  }
  return "?";
}

void Counts::add(const Counts& o) {
  trials += o.trials;
  rpcs += o.rpcs;
  completions += o.completions;
  releases += o.releases;
  tbf_enqueue += o.tbf_enqueue;
  tbf_dequeue += o.tbf_dequeue;
  tbf_dequeue_hits += o.tbf_dequeue_hits;
  tbf_ready += o.tbf_ready;
  tbf_backlog += o.tbf_backlog;
  events += o.events;
  scheduled += o.scheduled;
  cancelled += o.cancelled;
  pool_reallocations += o.pool_reallocations;
  latency_samples += o.latency_samples;
  adaptive_trials += o.adaptive_trials;
  windows += o.windows;
  window_jobs += o.window_jobs;
  rule_ops += o.rule_ops;
}

void Tracer::begin_trial(std::uint64_t trial, bool detailed) {
  trial_ = trial;
  detailed_ = detailed;
  begin(Layer::kTrial);
}

std::int64_t Tracer::end_trial() { return end(); }

void Tracer::begin(Layer layer) {
  std::int32_t record = -1;
  if (stack_.empty() || (detailed_ && records_.size() < kDetailedRecords)) {
    SpanRecord span;
    span.layer = layer;
    span.trial = trial_;
    span.parent = stack_.empty() ? -1 : stack_.back().record;
    record = static_cast<std::int32_t>(records_.size());
    records_.push_back(span);
  }
  const std::int64_t start = now_ns();
  if (record >= 0) records_[static_cast<std::size_t>(record)].start_ns = start;
  stack_.push_back(Frame{layer, start, 0, record});
}

std::int64_t Tracer::end() {
  const std::int64_t end = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  Totals& totals = totals_[static_cast<std::size_t>(frame.layer)];
  totals.self_ns += duration - frame.child_ns;
  totals.total_ns += duration;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.record >= 0)
    records_[static_cast<std::size_t>(frame.record)].end_ns = end;
  return duration;
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    totals_[i].self_ns += other.totals_[i].self_ns;
    totals_[i].total_ns += other.totals_[i].total_ns;
  }
  counts.add(other.counts);
  const auto offset = static_cast<std::int32_t>(records_.size());
  for (SpanRecord span : other.records_) {
    if (span.parent >= 0) span.parent += offset;
    records_.push_back(span);
  }
}

double Tracer::span_cost_ns() {
  constexpr int kSpans = 200'000;
  Tracer tracer;
  tracer.begin_trial(0, false);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    tracer.begin(Layer::kTbf);
    tracer.end();
  }
  const std::int64_t elapsed = now_ns() - t0;
  tracer.end_trial();
  return static_cast<double>(elapsed) / kSpans;
}

bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& records) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::int64_t origin = 0;
  if (!records.empty()) {
    origin = std::min_element(records.begin(), records.end(),
                              [](const SpanRecord& a, const SpanRecord& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  for (const SpanRecord& span : records) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"trial\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}\n",
                 layer_name(span.layer),
                 static_cast<unsigned long long>(span.trial),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin), span.parent);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
