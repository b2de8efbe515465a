// The paper's seven compaction steps as reusable primitives.
//
// WindowedReader performs S1 for the sub-tasks of one job; ComputeSubTask
// performs S2 (CHECKSUM), S3 (DECOMPRESS), S4 (SORT/merge), S5 (COMPRESS)
// and S6 (RE-CHECKSUM), timing each step individually so the breakdown
// benches (Figs 5/8/9) and the analytic model (Eqs 1-7) share one set of
// measurements. S7 lives in write_stage.h.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/compaction/types.h"

namespace pipelsm {

class Table;

// S1 for one compaction job: fetches each sub-task's raw blocks.
//
// A sub-task lists blocks from every overlapping input table, so reading
// it extent by extent would issue one small read per table per sub-task,
// and re-read boundary blocks listed by two sub-tasks. Instead the reader
// keeps one window per input table. On a miss it reads
// [first needed byte, max(end of the request, start + window)), clipped
// to the table's last planned data byte, where window =
// max(subtask_bytes, min_read_bytes). A read that would leave less than
// min_read_bytes of the table behind reads on to that last byte, so no
// short tail becomes a read of its own. With min_read_bytes unset the
// I/O size is the sub-task size (paper §IV-C); the DB sets it to one
// device stripe, so small sub-tasks still read every disk of a RAID0 at
// once. Each table is read once per job, and no
// read touches the filter, index or footer. A table's window is released
// after its last planned sub-task has been read, which bounds the job's
// read-ahead memory to inputs x (window + min_read_bytes). Each window
// has its own lock, so S-PPCP readers working on different tables never
// wait on each other. A hit only saves a read: correctness never depends
// on one.
//
// With options.coalesce_reads off, every block is its own device read and
// no window is kept (the per-block ablation).
class WindowedReader {
 public:
  // `plans` must be the job's sub-tasks: they give each table's last
  // planned byte and how many sub-tasks will read it.
  WindowedReader(const CompactionJobOptions& options,
                 const std::vector<std::shared_ptr<Table>>& inputs,
                 const std::vector<SubTaskPlan>& plans);

  WindowedReader(const WindowedReader&) = delete;
  WindowedReader& operator=(const WindowedReader&) = delete;

  // Reads `plan`'s raw blocks into *out. Thread-safe. Records time and
  // device bytes under kStepRead in *profile.
  Status Read(SubTaskPlan plan, RawSubTask* out, StepProfile* profile);

 private:
  struct Window {
    std::mutex mu;
    uint64_t offset = 0;  // file offset of data[0]
    std::string data;
    uint64_t limit = 0;   // end of the table's last planned block
    size_t reads_left = 0;  // planned sub-task runs not yet read
  };

  // Slices the blocks [begin, end) of out->plan, all from one table, into
  // out->blocks; adds the bytes read from the device to *bytes.
  Status ReadRun(size_t begin, size_t end, RawSubTask* out, uint64_t* bytes);

  const std::vector<std::shared_ptr<Table>>& inputs_;
  const uint64_t window_bytes_;
  const uint64_t min_read_bytes_;
  const bool windowed_;
  std::vector<Window> windows_;  // one per input table
};

// S2..S6: verify, decompress, merge (dropping shadowed entries and — when
// the plan allows — tombstones), rebuild blocks, compress, re-checksum.
// The merge takes options.memtable as one more run. Per-step times go
// into out->profile.
Status ComputeSubTask(const CompactionJobOptions& options, RawSubTask raw,
                      ComputedSubTask* out);

}  // namespace pipelsm
