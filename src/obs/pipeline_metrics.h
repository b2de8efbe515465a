// Helpers that publish one compaction run's pipeline telemetry into a
// MetricsRegistry under the canonical names (docs/OBSERVABILITY.md is the
// reference for every name emitted here). Shared by the SCP and
// pipelined executors so `pipelsm.metrics` looks the same whichever
// procedure ran.
#pragma once

#include <string>

#include "src/obs/metrics.h"
#include "src/util/stopwatch.h"

namespace pipelsm::obs {

// Calls fn(counter, field) for each registry counter that mirrors a
// StepProfile field: the run totals plus
// compaction.step.<S1.read .. S7.write>.{nanos,bytes}.
template <typename Fn>
void ForEachStepCounter(MetricsRegistry* metrics, StepProfile* profile,
                        Fn fn) {
  fn(metrics->RegisterCounter("compaction.subtasks", "sub-tasks processed"),
     &profile->subtasks);
  fn(metrics->RegisterCounter("compaction.wall_nanos",
                              "end-to-end compaction wall time"),
     &profile->wall_nanos);
  fn(metrics->RegisterCounter("compaction.input_bytes",
                              "stored bytes of the input blocks compactions "
                              "planned, each block once"),
     &profile->input_bytes);
  fn(metrics->RegisterCounter("compaction.output_bytes",
                              "raw bytes produced by compactions"),
     &profile->output_bytes);
  for (int i = 0; i < kNumSteps; i++) {
    const std::string base =
        std::string("compaction.step.") +
        CompactionStepName(static_cast<CompactionStep>(i));
    fn(metrics->RegisterCounter(base + ".nanos", "time spent in this step"),
       &profile->nanos[i]);
    fn(metrics->RegisterCounter(base + ".bytes", "bytes through this step"),
       &profile->bytes[i]);
  }
}

// Publishes one successful run. Counters accumulate across runs
// (registration is idempotent).
inline void AddStepMetrics(MetricsRegistry* metrics, StepProfile profile) {
  if (metrics == nullptr) return;
  metrics->RegisterCounter("compaction.runs", "major compactions executed")
      ->Add(1);
  ForEachStepCounter(metrics, &profile,
                     [](Counter* c, uint64_t* v) { c->Add(*v); });
}

// The sum of every run AddStepMetrics published: the profile behind
// DB::GetCompactionMetrics().
inline StepProfile ReadStepMetrics(MetricsRegistry* metrics) {
  StepProfile profile;
  ForEachStepCounter(metrics, &profile,
                     [](Counter* c, uint64_t* v) { *v = c->value(); });
  return profile;
}

// compaction.queue.<name>.{push_stall_nanos,pop_stall_nanos,push_stalls,
// pop_stalls,depth_highwater} for one inter-stage queue. Takes the
// BoundedQueue<T>::Stats snapshot (templated because Stats is a nested
// type of the queue template).
template <typename QueueStats>
inline void AddQueueMetrics(MetricsRegistry* metrics,
                            const std::string& queue_name,
                            const QueueStats& stats) {
  if (metrics == nullptr) return;
  const std::string base = "compaction.queue." + queue_name;
  metrics
      ->RegisterCounter(base + ".push_stall_nanos",
                        "producer time blocked on a full queue "
                        "(downstream stage is the bottleneck)")
      ->Add(stats.push_stall_nanos);
  metrics
      ->RegisterCounter(base + ".pop_stall_nanos",
                        "consumer time blocked on an empty queue "
                        "(upstream stage is the bottleneck)")
      ->Add(stats.pop_stall_nanos);
  metrics->RegisterCounter(base + ".push_stalls", "Push calls that blocked")
      ->Add(stats.push_stalls);
  metrics->RegisterCounter(base + ".pop_stalls", "Pop calls that blocked")
      ->Add(stats.pop_stalls);
  metrics
      ->RegisterGauge(base + ".depth_highwater",
                      "max items queued at once (== depth: queue was the "
                      "backpressure point)")
      ->UpdateMax(static_cast<int64_t>(stats.depth_highwater));
}

}  // namespace pipelsm::obs
