// CompactionJob: the run half of one major compaction.
//
// DBImpl admits a job (CompactionScheduler::Admit: the controller's
// choice, then the fleet governor if one is set), releases the DB mutex,
// opens the input tables and hands them over with the grant. The job
// then runs without the DB mutex, on exactly one path:
//   1. plan the sub-tasks once (PlanSubTasks) and deal them out to
//      N >= 1 key-range sub-jobs in contiguous groups (SplitPlan; N = 1
//      unsplit), so sub-job seams are sub-task boundaries;
//   2. fire OnCompactionBegin once;
//   3. run every sub-job's group through one executor, each on a sink of
//      its own — sub-job 0 on the calling thread, the others on threads
//      of their own;
//   4. fire OnCompactionCompleted once, with the merged StepProfile whose
//      wall_nanos is the job's elapsed time between the two callbacks.
// DBImpl then installs outputs() in one VersionEdit and releases every
// number in allocated_files() from its pending outputs, whether or not
// the job succeeded (docs/ARCHITECTURE.md, "Life of a compaction").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/compaction/scheduler.h"
#include "src/compaction/types.h"
#include "src/obs/event_listener.h"
#include "src/obs/logger.h"

namespace pipelsm {

class Compaction;
class Table;

// The DB's output sink, one per flush and per compaction sub-job: the
// allocator creates each output file, and each finished (synced, closed)
// table is opened through the opener, failing the run if it does not
// open, and collects in `outputs` in key order.
class TableSink final : public CompactionSink {
 public:
  // Sets *number whenever it allocated one, even if creating the file
  // then failed. The sinks of one job call it concurrently.
  using Allocator = std::function<Status(uint64_t* number,
                                         std::unique_ptr<WritableFile>* file)>;
  using Opener = std::function<Status(const OutputMeta& meta)>;

  TableSink(Allocator allocate, Opener open)
      : allocate_(std::move(allocate)), open_(std::move(open)) {}

  Status NewOutputFile(uint64_t* file_number,
                       std::unique_ptr<WritableFile>* file) override;
  Status OutputFinished(const OutputMeta& meta) override;

  std::vector<OutputMeta> outputs;
  std::vector<uint64_t> allocated;  // with files a failed run abandoned

 private:
  const Allocator allocate_;
  const Opener open_;
};

class CompactionJob {
 public:
  // `base` carries everything but the per-job parallelism, the output
  // file size and the base-level test, which the job derives from
  // `grant` and `c`. Each sub-job writes through a copy of `sink`. `c`
  // and `listeners` must outlive the job.
  CompactionJob(uint64_t job_id, const char* style, int max_subcompactions,
                const CompactionJobOptions& base,
                const CompactionGrant& grant, const Compaction* c,
                std::vector<std::shared_ptr<Table>> inputs,
                const obs::EventListeners& listeners, obs::Logger* info_log,
                const TableSink& sink);

  CompactionJob(const CompactionJob&) = delete;
  CompactionJob& operator=(const CompactionJob&) = delete;

  Status Run();

  // Every sub-job's outputs, concatenated in key order. Complete only
  // after a successful Run().
  const std::vector<OutputMeta>& outputs() const { return outputs_; }

  // Every output file number the job allocated, including files a failed
  // run abandoned half-written.
  const std::vector<uint64_t>& allocated_files() const { return allocated_; }

  // How many key-range sub-jobs Run() split the job into (1 unsplit).
  int subjobs() const { return subjobs_; }

 private:
  const uint64_t job_id_;
  const char* const style_;
  const int max_subcompactions_;
  CompactionJobOptions base_;
  const CompactionGrant grant_;
  const Compaction* const c_;
  const std::vector<std::shared_ptr<Table>> inputs_;
  const obs::EventListeners& listeners_;
  obs::Logger* const info_log_;
  const TableSink sink_;

  std::vector<uint64_t> allocated_;
  std::vector<OutputMeta> outputs_;
  int subjobs_ = 1;
};

}  // namespace pipelsm
