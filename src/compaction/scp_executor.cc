// SCP: the Sequential Compaction Procedure (paper §III-A, Figure 3).
//
// Data blocks are scheduled in order; each sub-task's seven steps run back
// to back on the calling thread, so at any instant either the device or
// the CPU is idle — the inefficiency PCP removes. Equation 1:
//   B_scp = l / sum(t_S1..t_S7).
//
// SCP traces onto a single lane — the back-to-back S1 / S2-S6 / S7 spans
// make the serialization visually obvious next to a PCP trace.
#include "src/compaction/executor.h"
#include "src/compaction/planner.h"
#include "src/compaction/steps.h"
#include "src/compaction/write_stage.h"
#include "src/obs/pipeline_metrics.h"
#include "src/obs/trace.h"

namespace pipelsm {

namespace {

class ScpExecutor final : public CompactionExecutor {
 public:
  const char* name() const override { return "SCP"; }

  Status Run(const CompactionJobOptions& options,
             const std::vector<std::shared_ptr<Table>>& inputs,
             CompactionSink* sink, StepProfile* profile) override {
    Stopwatch wall;
    CompactionPlan job_plan;
    Status s = PlanSubTasks(options, inputs, &job_plan);
    if (!s.ok()) return s;
    std::vector<SubTaskPlan>& plans = job_plan.subtasks;

    CompactionJobOptions job = options;
    obs::TraceCollector* const trace = job.trace;
    if (trace != nullptr) {
      job.trace_pid = trace->BeginJob("SCP compaction (" +
                                      std::to_string(plans.size()) +
                                      " sub-tasks)");
      job.trace_write_lane = 0;
      trace->SetLaneName(job.trace_pid, 0, "S1-S7 sequential");
    }
    const uint32_t pid = job.trace_pid;

    obs::HistogramMetric* read_hist = nullptr;
    obs::HistogramMetric* compute_hist = nullptr;
    if (job.metrics != nullptr) {
      read_hist = job.metrics->RegisterHistogram(
          "compaction.subtask.read_micros", "S1 time per sub-task");
      compute_hist = job.metrics->RegisterHistogram(
          "compaction.subtask.compute_micros", "S2-S6 time per sub-task");
    }

    StepProfile run_profile;
    WindowedReader reader(job, inputs, plans);
    WriteStage write_stage(job, sink);
    for (SubTaskPlan& plan : plans) {
      const uint64_t seq = plan.seq;
      RawSubTask raw;
      {
        obs::TraceSpan span(trace, pid, 0, "S1 read", "read", seq);
        Stopwatch sw;
        s = reader.Read(std::move(plan), &raw, &run_profile);  // S1
        if (read_hist != nullptr) read_hist->Observe(sw.ElapsedNanos() / 1e3);
      }
      if (!s.ok()) break;

      ComputedSubTask computed;
      {
        obs::TraceSpan span(trace, pid, 0, "S2-S6 compute", "compute", seq);
        Stopwatch sw;
        s = ComputeSubTask(job, std::move(raw), &computed);  // S2..S6
        if (compute_hist != nullptr) {
          compute_hist->Observe(sw.ElapsedNanos() / 1e3);
        }
      }
      if (!s.ok()) break;
      run_profile.Merge(computed.profile);
      run_profile.output_bytes += computed.output_raw_bytes;

      s = write_stage.PushReordered(std::move(computed));  // S7
      if (!s.ok()) break;
    }
    if (s.ok()) {
      s = write_stage.Close();
    }

    const StepProfile& wp = write_stage.profile();
    run_profile.nanos[kStepWrite] += wp.nanos[kStepWrite];
    run_profile.bytes[kStepWrite] += wp.bytes[kStepWrite];
    run_profile.input_bytes += job_plan.input_bytes;
    run_profile.wall_nanos += wall.ElapsedNanos();
    profile->Merge(run_profile);
    // The registry's run and step counters cover successful runs only.
    if (s.ok()) obs::AddStepMetrics(job.metrics, run_profile);
    return s;
  }
};

}  // namespace

std::unique_ptr<CompactionExecutor> NewScpExecutor() {
  return std::make_unique<ScpExecutor>();
}

}  // namespace pipelsm
