#include "src/db/compaction_job.h"

#include <algorithm>
#include <string>
#include <thread>

#include "src/compaction/executor.h"
#include "src/obs/metrics.h"
#include "src/version/version_set.h"

namespace pipelsm {

namespace {

// Choose up to want-1 strictly increasing user keys splitting a job's
// inputs into byte-balanced sub-ranges. Cuts happen only at input-table
// largest keys, so most tables fall wholly inside one sub-range and no
// boundary splits a key's version chain (all versions of a seam key land
// in the sub-range at or below it). May return fewer splits than asked —
// including none — when the inputs offer too few distinct boundaries.
std::vector<std::string> PickSubcompactionSplits(const Compaction* c,
                                                 const Comparator* ucmp,
                                                 int want) {
  struct Cand {
    std::string key;
    uint64_t bytes;
  };
  std::vector<Cand> cands;
  uint64_t total = 0;
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* f : c->inputs(which)) {
      cands.push_back({f->largest.user_key().ToString(), f->file_size});
      total += f->file_size;
    }
  }
  std::sort(cands.begin(), cands.end(),
            [&](const Cand& a, const Cand& b) {
              return ucmp->Compare(a.key, b.key) < 0;
            });
  // Merge duplicate boundary keys, accumulating their bytes.
  size_t n = 0;
  for (size_t i = 0; i < cands.size(); i++) {
    if (n > 0 && ucmp->Compare(cands[i].key, cands[n - 1].key) == 0) {
      cands[n - 1].bytes += cands[i].bytes;
    } else {
      cands[n++] = cands[i];
    }
  }
  cands.resize(n);
  std::vector<std::string> splits;
  if (cands.size() < 2 || total == 0 || want < 2) return splits;
  // Walk boundaries accumulating bytes; cut whenever the running total
  // crosses the next even share. The global max key is never a split
  // (the trailing sub-range would be empty).
  uint64_t cum = 0;
  uint64_t next_share = 1;
  for (size_t i = 0;
       i + 1 < cands.size() && splits.size() + 1 < static_cast<size_t>(want);
       i++) {
    cum += cands[i].bytes;
    if (cum >= total * next_share / static_cast<uint64_t>(want)) {
      splits.push_back(cands[i].key);
      next_share++;
    }
  }
  return splits;
}

}  // namespace

// One sub-job's output sink: file creation goes through the job's
// allocator, and finished tables are opened through the job's opener and
// collect here in key order.
class CompactionJob::Sink final : public CompactionSink {
 public:
  explicit Sink(CompactionJob* job) : job_(job) {}

  Status NewOutputFile(uint64_t* file_number,
                       std::unique_ptr<WritableFile>* file) override {
    uint64_t number = 0;
    Status s = job_->allocate_(&number, file);
    if (number != 0) {
      std::lock_guard<std::mutex> lock(job_->allocated_mu_);
      job_->allocated_.push_back(number);
    }
    if (s.ok()) *file_number = number;
    return s;
  }

  Status OutputFinished(const OutputMeta& meta) override {
    Status s = job_->open_output_(meta);
    if (s.ok()) outputs.push_back(meta);
    return s;
  }

  std::vector<OutputMeta> outputs;

 private:
  CompactionJob* const job_;
};

CompactionJob::CompactionJob(uint64_t job_id, const char* style,
                             int max_subcompactions,
                             const CompactionJobOptions& base,
                             const CompactionGrant& grant,
                             const Compaction* c,
                             std::vector<std::shared_ptr<Table>> inputs,
                             const obs::EventListeners& listeners,
                             obs::Logger* info_log,
                             OutputFileAllocator allocate,
                             OutputOpener open_output)
    : job_id_(job_id),
      style_(style),
      max_subcompactions_(max_subcompactions),
      base_(base),
      grant_(grant),
      c_(c),
      inputs_(std::move(inputs)),
      listeners_(listeners),
      info_log_(info_log),
      allocate_(std::move(allocate)),
      open_output_(std::move(open_output)) {
  base_.max_output_file_size = c->MaxOutputFileSize();
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
  // A large job splits at input-table boundary keys into disjoint (lo, hi]
  // sub-ranges over the same open inputs. The fan-out is clamped by
  // Options and by the parallelism this job was granted, so a split never
  // oversubscribes the scheduler/governor budget.
  const uint64_t input_bytes = c_->TotalInputBytes();
  std::vector<std::string> splits;
  uint64_t want = static_cast<uint64_t>(
      std::min(max_subcompactions_, grant_.compute_parallelism));
  // Size floor: a sub-range under ~2 sub-tasks of input is thread churn,
  // not parallelism.
  const uint64_t floor_bytes = 2 * static_cast<uint64_t>(base_.subtask_bytes);
  if (floor_bytes > 0) {
    want = std::min(want, std::max<uint64_t>(1, input_bytes / floor_bytes));
  }
  if (want > 1) {
    splits = PickSubcompactionSplits(c_, base_.icmp->user_comparator(),
                                     static_cast<int>(want));
  }
  const int n = static_cast<int>(splits.size()) + 1;

  // Each sub-job runs a fresh executor on an equal share of the granted
  // parallelism (floor 1) and writes through a sink of its own.
  struct SubJob {
    explicit SubJob(CompactionJob* job) : sink(job) {}
    CompactionJobOptions options;
    std::unique_ptr<CompactionExecutor> executor;
    Sink sink;
    StepProfile profile;
    Status status;
  };
  std::vector<SubJob> subs;
  subs.reserve(n);
  for (int i = 0; i < n; i++) {
    SubJob& sub = subs.emplace_back(this);
    sub.options = base_;
    sub.options.compute_parallelism =
        std::max(1, grant_.compute_parallelism / n);
    if (i > 0) {
      sub.options.range_unbounded_lo = false;
      sub.options.range_lo_user_key = splits[i - 1];
    }
    if (i < n - 1) {
      sub.options.range_unbounded_hi = false;
      sub.options.range_hi_user_key = splits[i];
    }
    sub.executor = NewCompactionExecutor(grant_.mode);
  }

  obs::CompactionJobInfo info;
  info.job_id = job_id_;
  info.level = c_->level();
  info.output_level = c_->output_level();
  info.executor = subs[0].executor->name();
  info.style = style_;
  info.predicted_write_amp = c_->predicted_write_amp();
  info.subcompactions = n;
  info.compute_parallelism = grant_.compute_parallelism;
  info.adaptive = grant_.adaptive;
  info.scheduler_rationale = grant_.rationale;
  info.input_files = c_->num_input_files(0) + c_->num_input_files(1);
  info.input_bytes = input_bytes;
  for (obs::EventListener* l : listeners_) l->OnCompactionBegin(info);

  Stopwatch wall;
  if (n > 1 && base_.metrics != nullptr) {
    base_.metrics
        ->RegisterCounter("compaction.subcompaction.jobs",
                          "compaction jobs split into key-range sub-jobs")
        ->Add(1);
    base_.metrics
        ->RegisterCounter("compaction.subcompaction.runs",
                          "key-range sub-jobs run across split compactions")
        ->Add(n);
  }
  auto run = [this](SubJob* sub) {
    sub->status = sub->executor->Run(sub->options, inputs_, &sub->sink,
                                     &sub->profile);
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < n; i++) threads.emplace_back(run, &subs[i]);
  run(&subs[0]);
  for (std::thread& t : threads) t.join();

  // Sub-jobs are concatenated in sub-range order, so outputs ascend in
  // key space and the whole fan-out installs as one VersionEdit.
  for (int i = 0; i < n; i++) {
    const SubJob& sub = subs[i];
    if (info.status.ok()) info.status = sub.status;
    info.profile.Merge(sub.profile);
    outputs_.insert(outputs_.end(), sub.sink.outputs.begin(),
                    sub.sink.outputs.end());
    if (n > 1) {
      obs::Log(info_log_,
               "EVENT subcompaction job=%llu sub=%d/%d lo=%s hi=%s "
               "subtasks=%llu output_bytes=%llu status=%s",
               static_cast<unsigned long long>(job_id_), i + 1, n,
               i > 0 ? splits[i - 1].c_str() : "-inf",
               i < n - 1 ? splits[i].c_str() : "+inf",
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
