// WriteStage: S7. Consumes ComputedSubTasks strictly in sub-task order
// (callers with out-of-order completion use PushReordered, which buffers
// until the next sequence number arrives), appends their encoded blocks to
// the current output SSTable and rotates files at max_output_file_size.
#pragma once

#include <map>
#include <memory>

#include "src/compaction/types.h"
#include "src/table/table_writer.h"

namespace pipelsm {

class WriteStage {
 public:
  // S7 spans go to lane 0 of trace process `trace_pid` when
  // options.trace is set.
  WriteStage(const CompactionJobOptions& options, CompactionSink* sink,
             uint32_t trace_pid = 0);
  ~WriteStage();

  WriteStage(const WriteStage&) = delete;
  WriteStage& operator=(const WriteStage&) = delete;

  // Consume the sub-task with the next sequence number. Out-of-order
  // sub-tasks are buffered internally (the C-PPCP case).
  Status PushReordered(ComputedSubTask task);

  // Flush the current output file and report it. Must be called once
  // after the last sub-task (fails if reordering gaps remain).
  Status Close();

  const StepProfile& profile() const { return profile_; }

 private:
  Status WriteOrdered(ComputedSubTask& task);
  Status RotateIfNeeded();
  Status FinishCurrentFile();

  const CompactionJobOptions options_;
  CompactionSink* const sink_;
  const uint32_t trace_pid_;

  uint64_t next_seq_ = 0;
  std::map<uint64_t, ComputedSubTask> pending_;

  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<TableWriter> writer_;
  OutputMeta current_;
  bool have_current_ = false;
  StepProfile profile_;
  bool closed_ = false;
};

}  // namespace pipelsm
