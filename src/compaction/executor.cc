// The one compaction executor (executor.h). Every procedure runs the
// same step bodies over the same planned sub-tasks; only the schedule
// differs. SCP calls them back to back on the calling thread and one
// trace lane, so at any instant either the device or the CPU is idle
// (Eq. 1: B_scp = l / sum(t_S1..t_S7)). The pipelined procedures call them
// from R reader threads and C compute threads joined by bounded queues
// ("between the adjacent stages we create a queue for data
// communication"): PCP = (R=1, C=1), S-PPCP = (R=k, C=1) on a striped
// device, C-PPCP = (R=1, C=k). The write stage's reorder buffer absorbs
// out-of-order completion, so every procedure emits byte-identical
// SSTables.
//
// Observability (src/obs): a traced run is one trace process (a flush
// when it merges a memtable). A pipelined run has a lane per stage
// thread, plus "stall" spans wherever a lane blocked on an inter-stage
// queue — a live rendering of the paper's Fig. 4. Queue stall totals and
// per-step times are published under the names in docs/OBSERVABILITY.md.
#include "src/compaction/executor.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "src/compaction/planner.h"
#include "src/compaction/steps.h"
#include "src/compaction/write_stage.h"
#include "src/obs/pipeline_metrics.h"
#include "src/obs/trace.h"
#include "src/util/bounded_queue.h"

namespace pipelsm {

namespace {

// Queue waits shorter than this are scheduling noise, not pipeline
// stalls; emitting them would bury the trace in micro-spans.
constexpr uint64_t kMinStallSpanNanos = 10 * 1000;

// Wraps a blocking queue operation in a "stall" trace span (dropped again
// if the wait was shorter than kMinStallSpanNanos).
template <typename Op>
auto TracedWait(obs::TraceCollector* trace, uint32_t pid, uint32_t lane,
                const char* name, Op op) {
  if (trace == nullptr) return op();
  const uint64_t start = trace->NowNanos();
  auto result = op();
  const uint64_t end = trace->NowNanos();
  if (end - start >= kMinStallSpanNanos) {
    trace->AddSpan(pid, lane, name, "stall", start, end,
                   obs::TraceCollector::kNoSeq);
  }
  return result;
}

}  // namespace

Status CompactionExecutor::Run(
    const CompactionJobOptions& options,
    const std::vector<std::shared_ptr<Table>>& inputs, CompactionSink* sink,
    StepProfile* profile) const {
  CompactionPlan plan;
  Status s = PlanSubTasks(options, inputs, &plan);
  if (!s.ok()) return s;
  return Run(options, inputs, std::move(plan), sink, profile);
}

Status CompactionExecutor::Run(
    const CompactionJobOptions& options,
    const std::vector<std::shared_ptr<Table>>& inputs, CompactionPlan job_plan,
    CompactionSink* sink, StepProfile* profile) const {
  Stopwatch wall;
  std::vector<SubTaskPlan>& plans = job_plan.subtasks;

  const bool sequential = mode_ == CompactionMode::kSCP;
  const int num_readers = std::max(1, options.read_parallelism);
  const int num_computers = std::max(1, options.compute_parallelism);

  // The executor's private copy of the job options carries the trace pid
  // down into the write stage, which draws on lane 0 in both schedules.
  CompactionJobOptions job = options;
  obs::TraceCollector* const trace = job.trace;
  if (trace != nullptr) {
    job.trace_pid = trace->BeginJob(
        std::string(name()) + (job.memtable ? " flush (" : " compaction (") +
        std::to_string(plans.size()) + " sub-tasks)");
    if (sequential) {
      trace->SetLaneName(job.trace_pid, 0, "S1-S7 sequential");
    } else {
      trace->SetLaneName(job.trace_pid, 0, "S7 write");
      for (int r = 0; r < num_readers; r++) {
        trace->SetLaneName(job.trace_pid, 1 + r,
                           "S1 read " + std::to_string(r));
      }
      for (int c = 0; c < num_computers; c++) {
        trace->SetLaneName(job.trace_pid, 1 + num_readers + c,
                           "S2-S6 compute " + std::to_string(c));
      }
    }
  }

  obs::HistogramMetric* read_hist = nullptr;
  obs::HistogramMetric* compute_hist = nullptr;
  if (job.metrics != nullptr) {
    read_hist = job.metrics->RegisterHistogram(
        "compaction.subtask.read_micros", "S1 time per sub-task");
    compute_hist = job.metrics->RegisterHistogram(
        "compaction.subtask.compute_micros", "S2-S6 time per sub-task");
  }

  // The step bodies, written once: S1 and S2..S6 traced on the caller's
  // lane and timed into the per-sub-task histograms, S7 through the
  // ordered write stage. Step times land in the caller's *p.
  WindowedReader reader(job, inputs, plans);
  WriteStage write_stage(job, sink);
  StepProfile run_profile;
  auto read_step = [&](uint32_t lane, SubTaskPlan&& plan, RawSubTask* raw,
                       StepProfile* p) {
    obs::TraceSpan span(trace, job.trace_pid, lane, "S1 read", "read",
                        plan.seq);
    Stopwatch sw;
    Status rs = reader.Read(std::move(plan), raw, p);
    if (read_hist != nullptr) read_hist->Observe(sw.ElapsedNanos() / 1000.0);
    return rs;
  };
  auto compute_step = [&](uint32_t lane, RawSubTask&& raw,
                          ComputedSubTask* computed, StepProfile* p) {
    Status cs;
    {
      obs::TraceSpan span(trace, job.trace_pid, lane, "S2-S6 compute",
                          "compute", raw.plan.seq);
      Stopwatch sw;
      cs = ComputeSubTask(job, std::move(raw), computed);
      if (compute_hist != nullptr) {
        compute_hist->Observe(sw.ElapsedNanos() / 1000.0);
      }
    }
    if (cs.ok()) {
      p->Merge(computed->profile);
      computed->profile = StepProfile{};  // avoid double counting
    }
    return cs;
  };
  // Only ever called on this thread, so it may touch run_profile.
  auto write_step = [&](ComputedSubTask&& computed) {
    run_profile.output_bytes += computed.output_raw_bytes;
    return write_stage.PushReordered(std::move(computed));
  };

  Status s;
  if (sequential) {
    // SCP: each sub-task's seven steps back to back on lane 0.
    for (SubTaskPlan& plan : plans) {
      RawSubTask raw;
      ComputedSubTask computed;
      s = read_step(0, std::move(plan), &raw, &run_profile);
      if (s.ok()) s = compute_step(0, std::move(raw), &computed, &run_profile);
      if (s.ok()) s = write_step(std::move(computed));
      if (!s.ok()) break;
    }
  } else {
    // PCP, S-PPCP and C-PPCP: R reader threads and C compute threads feed
    // the write stage on this thread through two bounded queues. Lanes:
    // 0 = write stage, then readers, then compute workers.
    const uint32_t pid = job.trace_pid;
    const size_t depth = std::max<size_t>(1, job.queue_depth);
    BoundedQueue<RawSubTask> read_q(depth);
    BoundedQueue<ComputedSubTask> write_q(depth);

    std::mutex error_mu;
    Status first_error;
    auto record_error = [&](const Status& err) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = err;
      read_q.Close();
      write_q.Close();
    };
    auto failed = [&]() {
      std::lock_guard<std::mutex> lock(error_mu);
      return !first_error.ok();
    };

    // Per-thread profiles, merged at the end.
    std::vector<StepProfile> reader_profiles(num_readers);
    std::vector<StepProfile> computer_profiles(num_computers);

    // ---- stage read (S1): R reader threads pull plan indices. ----
    std::atomic<size_t> next_plan{0};
    std::atomic<int> readers_left{num_readers};
    std::vector<std::thread> threads;
    for (int r = 0; r < num_readers; r++) {
      threads.emplace_back([&, r] {
        const uint32_t lane = 1 + r;
        for (;;) {
          const size_t i = next_plan.fetch_add(1, std::memory_order_relaxed);
          if (i >= plans.size() || failed()) break;
          RawSubTask raw;
          // Index i belongs to this reader alone, so its plan can move.
          Status rs =
              read_step(lane, std::move(plans[i]), &raw, &reader_profiles[r]);
          if (!rs.ok()) {
            record_error(rs);
            break;
          }
          // A false Push hands `raw` back (the queue never drops work);
          // it only happens on the error/close path, where the sub-task
          // is intentionally abandoned.
          if (!TracedWait(trace, pid, lane, "wait:read_q.push", [&] {
                return read_q.Push(std::move(raw));
              })) {
            break;
          }
        }
        if (readers_left.fetch_sub(1) == 1) {
          read_q.Close();
        }
      });
    }

    // ---- stage compute (S2..S6): C worker threads. ----
    std::atomic<int> computers_left{num_computers};
    for (int c = 0; c < num_computers; c++) {
      threads.emplace_back([&, c] {
        const uint32_t lane = 1 + num_readers + c;
        for (;;) {
          auto item = TracedWait(trace, pid, lane, "wait:read_q.pop",
                                 [&] { return read_q.Pop(); });
          if (!item.has_value()) break;  // drained + closed
          ComputedSubTask computed;
          Status cs = compute_step(lane, std::move(*item), &computed,
                                   &computer_profiles[c]);
          if (!cs.ok()) {
            record_error(cs);
            break;
          }
          // Same contract as the reader's Push above.
          if (!TracedWait(trace, pid, lane, "wait:write_q.push", [&] {
                return write_q.Push(std::move(computed));
              })) {
            break;
          }
        }
        if (computers_left.fetch_sub(1) == 1) {
          write_q.Close();
        }
      });
    }

    // ---- stage write (S7): this thread, in sub-task order. ----
    for (;;) {
      auto item = TracedWait(trace, pid, 0, "wait:write_q.pop",
                             [&] { return write_q.Pop(); });
      if (!item.has_value()) break;
      Status ws = write_step(std::move(*item));
      if (!ws.ok()) {
        record_error(ws);
        break;
      }
    }

    for (auto& t : threads) {
      t.join();
    }

    // Pipeline telemetry is published even for failed runs — a stall
    // profile of the run that broke is exactly what the postmortem needs.
    if (job.metrics != nullptr) {
      obs::AddQueueMetrics(job.metrics, "read", read_q.stats());
      obs::AddQueueMetrics(job.metrics, "write", write_q.stats());
    }
    for (const StepProfile& p : reader_profiles) run_profile.Merge(p);
    for (const StepProfile& p : computer_profiles) run_profile.Merge(p);

    {
      std::lock_guard<std::mutex> lock(error_mu);
      s = first_error;
    }
    // On a clean shutdown every queue must be empty: readers closed
    // read_q only after the last plan, computers drained it before
    // closing write_q, and this thread drained write_q. Anything left
    // means a stage dropped out early without recording an error.
    if (s.ok() && (read_q.size() != 0 || write_q.size() != 0)) {
      s = Status::Corruption("pipeline queues not drained at shutdown");
    }
  }
  if (s.ok()) {
    s = write_stage.Close();
  }

  // Merged on failures too: the job's Completed event reports whatever
  // was measured before the run broke.
  const StepProfile& wp = write_stage.profile();
  run_profile.nanos[kStepWrite] += wp.nanos[kStepWrite];
  run_profile.bytes[kStepWrite] += wp.bytes[kStepWrite];
  run_profile.input_bytes += job_plan.input_bytes;
  run_profile.wall_nanos += job_plan.plan_nanos + wall.ElapsedNanos();
  profile->Merge(run_profile);
  // The registry's run and step counters cover successful runs only.
  if (s.ok()) obs::AddStepMetrics(job.metrics, run_profile);
  return s;
}

std::unique_ptr<CompactionExecutor> NewCompactionExecutor(
    CompactionMode mode) {
  return std::make_unique<CompactionExecutor>(mode);
}

}  // namespace pipelsm
