#include "src/db/compaction_job.h"

#include <algorithm>
#include <string>
#include <thread>

#include "src/compaction/executor.h"
#include "src/compaction/picker.h"
#include "src/compaction/planner.h"

namespace pipelsm {

Status TableSink::NewOutputFile(uint64_t* file_number,
                                std::unique_ptr<WritableFile>* file) {
  *file_number = 0;
  Status s = allocate_(file_number, file);
  if (*file_number != 0) allocated.push_back(*file_number);
  return s;
}

Status TableSink::OutputFinished(const OutputMeta& meta) {
  Status s = open_(meta);
  if (s.ok()) outputs.push_back(meta);
  return s;
}

CompactionJob::CompactionJob(uint64_t job_id, const char* style,
                             int max_subcompactions,
                             const CompactionJobOptions& base,
                             const CompactionGrant& grant,
                             const Compaction* c,
                             std::vector<std::shared_ptr<Table>> inputs,
                             const obs::EventListeners& listeners,
                             obs::Logger* info_log,
                             const TableSink& sink)
    : job_id_(job_id),
      style_(style),
      max_subcompactions_(max_subcompactions),
      base_(base),
      grant_(grant),
      c_(c),
      inputs_(std::move(inputs)),
      listeners_(listeners),
      info_log_(info_log),
      sink_(sink) {
  // Tombstones in a sub-range may be dropped iff no level below the
  // output holds any key of that range. Evaluated at plan time on the
  // pinned input version, so it is safe against concurrent installs.
  base_.range_is_base_level = [c](const SubTaskPlan& plan) {
    Slice lo(plan.lo_user_key), hi(plan.hi_user_key);
    return c->RangeIsBaseLevel(plan.unbounded_lo ? nullptr : &lo,
                               plan.unbounded_hi ? nullptr : &hi);
  };
}

Status CompactionJob::Run() {
  // ---- key-range fan-out (docs/COMPACTION.md) ----
  // The job is planned once. A split deals the plan's sub-tasks out in
  // contiguous groups, one per sub-job, so the seams are sub-task
  // boundaries. The fan-out is clamped by Options and by the parallelism
  // this job was granted, so a split never oversubscribes the
  // scheduler/governor budget.
  CompactionPlan plan;
  const Status planned = PlanSubTasks(base_, inputs_, &plan);
  std::vector<CompactionPlan> groups;
  if (planned.ok()) {
    groups = SplitPlan(std::move(plan), std::min(max_subcompactions_,
                                                 grant_.compute_parallelism));
  }
  subjobs_ = std::max<int>(1, groups.size());
  const int n = subjobs_;

  // Each sub-job runs its group on an equal share of the granted
  // parallelism (floor 1) and writes through a sink of its own.
  struct SubJob {
    explicit SubJob(const TableSink& s) : sink(s) {}
    CompactionJobOptions options;
    CompactionPlan plan;
    std::string lo, hi;  // the group's key range, for the EVENT line
    TableSink sink;
    StepProfile profile;
    Status status;
  };
  const CompactionExecutor executor(grant_.mode);
  std::vector<SubJob> subs;
  subs.reserve(groups.size());
  for (CompactionPlan& group : groups) {
    SubJob& sub = subs.emplace_back(sink_);
    sub.options = base_;
    sub.options.compute_parallelism =
        std::max(1, grant_.compute_parallelism / n);
    if (n > 1) {  // then every group holds sub-tasks
      const SubTaskPlan& first = group.subtasks.front();
      const SubTaskPlan& last = group.subtasks.back();
      sub.lo = first.unbounded_lo ? "-inf" : first.lo_user_key;
      sub.hi = last.unbounded_hi ? "+inf" : last.hi_user_key;
    }
    sub.plan = std::move(group);
  }

  obs::CompactionJobInfo info;
  info.job_id = job_id_;
  info.level = c_->level();
  info.output_level = c_->output_level();
  info.executor = executor.name();
  info.style = style_;
  info.predicted_write_amp = c_->predicted_write_amp();
  info.subcompactions = n;
  info.compute_parallelism = grant_.compute_parallelism;
  info.adaptive = grant_.adaptive;
  info.scheduler_rationale = grant_.rationale;
  info.input_files = c_->num_input_files(0) + c_->num_input_files(1);
  info.input_bytes = c_->TotalInputBytes();
  for (obs::EventListener* l : listeners_) l->OnCompactionBegin(info);
  info.status = planned;

  Stopwatch wall;
  auto run = [this, &executor](SubJob* sub) {
    sub->status = executor.Run(sub->options, inputs_, std::move(sub->plan),
                               &sub->sink, &sub->profile);
  };
  std::vector<std::thread> threads;
  for (size_t i = 1; i < subs.size(); i++) threads.emplace_back(run, &subs[i]);
  if (!subs.empty()) run(&subs[0]);
  for (std::thread& t : threads) t.join();

  // Sub-jobs are concatenated in key order, so outputs ascend in key
  // space and the whole fan-out installs as one VersionEdit.
  for (int i = 0; i < static_cast<int>(subs.size()); i++) {
    const SubJob& sub = subs[i];
    if (info.status.ok()) info.status = sub.status;
    info.profile.Merge(sub.profile);
    outputs_.insert(outputs_.end(), sub.sink.outputs.begin(),
                    sub.sink.outputs.end());
    allocated_.insert(allocated_.end(), sub.sink.allocated.begin(),
                      sub.sink.allocated.end());
    if (n > 1) {
      obs::Log(info_log_,
               "EVENT subcompaction job=%llu sub=%d/%d lo=%s hi=%s "
               "subtasks=%llu output_bytes=%llu status=%s",
               static_cast<unsigned long long>(job_id_), i + 1, n,
               sub.lo.c_str(), sub.hi.c_str(),
               static_cast<unsigned long long>(sub.profile.subtasks),
               static_cast<unsigned long long>(sub.profile.output_bytes),
               sub.status.ok() ? "ok" : sub.status.ToString().c_str());
    }
  }
  // The merged wall_nanos would sum overlapping sub-jobs; the job's own
  // elapsed time is what the advisor's measured bandwidth needs.
  info.profile.wall_nanos = wall.ElapsedNanos();
  for (obs::EventListener* l : listeners_) l->OnCompactionCompleted(info);
  return info.status;
}

}  // namespace pipelsm
