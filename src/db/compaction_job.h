// CompactionJob: the run half of one major compaction.
//
// DBImpl admits a job (DBImpl::AdmitJob: its scheduler's choice, then
// the fleet governor if one is set), releases the DB mutex, opens the
// input tables and hands them over with the grant. The job then runs
// without the DB mutex, on exactly one path:
//   1. split the inputs into N >= 1 key-range sub-jobs (N = 1 unsplit);
//   2. fire OnCompactionBegin once;
//   3. run every sub-job on its own executor and sink — sub-job 0 on the
//      calling thread, the others on threads of their own;
//   4. fire OnCompactionCompleted once, with the merged StepProfile whose
//      wall_nanos is the job's elapsed time between the two callbacks.
// DBImpl then installs outputs() in one VersionEdit and releases every
// number in allocated_files() from its pending outputs, whether or not
// the job succeeded (docs/ARCHITECTURE.md, "Life of a compaction").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/compaction/scheduler.h"
#include "src/compaction/types.h"
#include "src/obs/event_listener.h"
#include "src/obs/logger.h"

namespace pipelsm {

class Compaction;
class Table;

class CompactionJob {
 public:
  // Creates the next output table file. Sets *number whenever it
  // allocated one, even when creating the file then failed, so the job
  // can report it in allocated_files(). Sub-jobs call it concurrently.
  using OutputFileAllocator = std::function<Status(
      uint64_t* number, std::unique_ptr<WritableFile>* file)>;

  // Opens a finished (synced, closed) output table, from S7 of the
  // sub-job that wrote it. A non-OK status fails the job.
  using OutputOpener = std::function<Status(const OutputMeta& meta)>;

  // `base` carries everything but the per-job parallelism, the output
  // file size and the base-level test, which the job derives from
  // `grant` and `c`. `c` and `listeners` must outlive the job.
  CompactionJob(uint64_t job_id, const char* style, int max_subcompactions,
                const CompactionJobOptions& base,
                const CompactionGrant& grant, const Compaction* c,
                std::vector<std::shared_ptr<Table>> inputs,
                const obs::EventListeners& listeners, obs::Logger* info_log,
                OutputFileAllocator allocate, OutputOpener open_output);

  CompactionJob(const CompactionJob&) = delete;
  CompactionJob& operator=(const CompactionJob&) = delete;

  Status Run();

  // Every sub-job's outputs, concatenated in key order. Complete only
  // after a successful Run().
  const std::vector<OutputMeta>& outputs() const { return outputs_; }

  // Every output file number the job allocated, including files a failed
  // run abandoned half-written.
  const std::vector<uint64_t>& allocated_files() const { return allocated_; }

 private:
  class Sink;

  const uint64_t job_id_;
  const char* const style_;
  const int max_subcompactions_;
  CompactionJobOptions base_;
  const CompactionGrant grant_;
  const Compaction* const c_;
  const std::vector<std::shared_ptr<Table>> inputs_;
  const obs::EventListeners& listeners_;
  obs::Logger* const info_log_;
  const OutputFileAllocator allocate_;
  const OutputOpener open_output_;

  std::mutex allocated_mu_;  // sub-jobs allocate output files concurrently
  std::vector<uint64_t> allocated_;
  std::vector<OutputMeta> outputs_;
};

}  // namespace pipelsm
