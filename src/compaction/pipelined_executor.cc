// The Pipelined Compaction Procedure and its parallel variants
// (paper §III-B/§III-C, Figures 4, 6 and 7).
//
// Three stages — read (S1), compute (S2..S6), write (S7) — joined by
// bounded queues ("between the adjacent stages we create a queue for data
// communication"). The generalized executor takes R reader threads and C
// compute threads:
//   PCP    = (R=1, C=1)
//   S-PPCP = (R=k, C=1)   + a striped device underneath
//   C-PPCP = (R=1, C=k)
// Out-of-order completion (any R>1 or C>1) is absorbed by the write
// stage's reorder buffer, so all variants emit byte-identical SSTables.
//
// Observability (src/obs): when the job carries a TraceCollector the run
// becomes one trace process with a lane per stage thread — S1/S2-S6/S7
// spans per sub-task plus "stall" spans wherever a lane blocked on an
// inter-stage queue, i.e. a live rendering of the paper's Fig. 4. When it
// carries a MetricsRegistry, queue stall totals and per-step times are
// published under the names in docs/OBSERVABILITY.md.
#include <atomic>
#include <mutex>
#include <thread>

#include "src/compaction/executor.h"
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

class PipelinedExecutor final : public CompactionExecutor {
 public:
  explicit PipelinedExecutor(const char* name) : name_(name) {}

  const char* name() const override { return name_; }

  Status Run(const CompactionJobOptions& options,
             const std::vector<std::shared_ptr<Table>>& inputs,
             CompactionSink* sink, StepProfile* profile) override {
    Stopwatch wall;
    CompactionPlan job_plan;
    Status s = PlanSubTasks(options, inputs, &job_plan);
    if (!s.ok()) return s;
    std::vector<SubTaskPlan>& plans = job_plan.subtasks;

    const int num_readers = std::max(1, options.read_parallelism);
    const int num_computers = std::max(1, options.compute_parallelism);
    const size_t depth = std::max<size_t>(1, options.queue_depth);

    // Trace lanes: 0 = write stage (this thread), then readers, then
    // compute workers. The executor's private copy of the job options
    // carries pid/lane down into the write stage.
    CompactionJobOptions job = options;
    obs::TraceCollector* const trace = job.trace;
    if (trace != nullptr) {
      job.trace_pid = trace->BeginJob(std::string(name_) + " compaction (" +
                                      std::to_string(plans.size()) +
                                      " sub-tasks)");
      job.trace_write_lane = 0;
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
    const uint32_t pid = job.trace_pid;

    obs::HistogramMetric* read_hist = nullptr;
    obs::HistogramMetric* compute_hist = nullptr;
    if (job.metrics != nullptr) {
      read_hist = job.metrics->RegisterHistogram(
          "compaction.subtask.read_micros", "S1 time per sub-task");
      compute_hist = job.metrics->RegisterHistogram(
          "compaction.subtask.compute_micros", "S2-S6 time per sub-task");
    }

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
    WindowedReader reader(job, inputs, plans);
    std::atomic<size_t> next_plan{0};
    std::atomic<int> readers_left{num_readers};
    std::vector<std::thread> threads;
    for (int r = 0; r < num_readers; r++) {
      threads.emplace_back([&, r] {
        const uint32_t lane = 1 + r;
        for (;;) {
          const size_t i = next_plan.fetch_add(1, std::memory_order_relaxed);
          if (i >= plans.size() || failed()) break;
          const uint64_t seq = plans[i].seq;
          RawSubTask raw;
          Status rs;
          {
            obs::TraceSpan span(trace, pid, lane, "S1 read", "read", seq);
            Stopwatch sw;
            // Index i belongs to this reader alone, so its plan can move.
            rs = reader.Read(std::move(plans[i]), &raw, &reader_profiles[r]);
            if (read_hist != nullptr) {
              read_hist->Observe(sw.ElapsedNanos() / 1000.0);
            }
          }
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
          const uint64_t seq = item->plan.seq;
          ComputedSubTask computed;
          Status cs;
          {
            obs::TraceSpan span(trace, pid, lane, "S2-S6 compute", "compute",
                                seq);
            Stopwatch sw;
            cs = ComputeSubTask(job, std::move(*item), &computed);
            if (compute_hist != nullptr) {
              compute_hist->Observe(sw.ElapsedNanos() / 1000.0);
            }
          }
          if (!cs.ok()) {
            record_error(cs);
            break;
          }
          computer_profiles[c].Merge(computed.profile);
          computed.profile = StepProfile{};  // avoid double counting
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
    WriteStage write_stage(job, sink);
    uint64_t output_bytes = 0;
    for (;;) {
      auto item = TracedWait(trace, pid, 0, "wait:write_q.pop",
                             [&] { return write_q.Pop(); });
      if (!item.has_value()) break;
      output_bytes += item->output_raw_bytes;
      Status ws = write_stage.PushReordered(std::move(*item));
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
    if (s.ok()) {
      s = write_stage.Close();
    }

    // Assemble this run's profile separately so the published metrics
    // cover exactly this compaction even if the caller's *profile is an
    // accumulator. Merged on failures too: the job's Completed event
    // reports whatever was measured before the run broke.
    StepProfile run_profile;
    for (const StepProfile& p : reader_profiles) run_profile.Merge(p);
    for (const StepProfile& p : computer_profiles) run_profile.Merge(p);
    const StepProfile& wp = write_stage.profile();
    run_profile.nanos[kStepWrite] += wp.nanos[kStepWrite];
    run_profile.bytes[kStepWrite] += wp.bytes[kStepWrite];
    run_profile.input_bytes += job_plan.input_bytes;
    run_profile.output_bytes += output_bytes;
    run_profile.wall_nanos += wall.ElapsedNanos();
    profile->Merge(run_profile);
    // The registry's run and step counters cover successful runs only.
    if (s.ok()) obs::AddStepMetrics(job.metrics, run_profile);
    return s;
  }

 private:
  const char* const name_;
};

}  // namespace

std::unique_ptr<CompactionExecutor> NewScpExecutor();  // scp_executor.cc

std::unique_ptr<CompactionExecutor> NewCompactionExecutor(
    CompactionMode mode) {
  if (mode == CompactionMode::kSCP) return NewScpExecutor();
  return std::make_unique<PipelinedExecutor>(CompactionModeName(mode));
}

}  // namespace pipelsm
