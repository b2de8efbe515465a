// Shared data types of the compaction executors.
//
// One compaction merges the key range covered by a set of input tables.
// The planner partitions that range into sub-key ranges; each sub-task
// owns the user keys in (lo, hi] of its plan and flows through the
// paper's seven steps:
//
//   S1 READ        -> RawSubTask      (compressed payloads off the device)
//   S2..S6 compute -> ComputedSubTask (verified, decompressed, merged,
//                                      re-compressed, re-checksummed blocks)
//   S7 WRITE       -> output SSTables (via the ordered write stage)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/compress/codec.h"
#include "src/db/dbformat.h"
#include "src/env/env.h"
#include "src/env/sim_device.h"
#include "src/table/format.h"
#include "src/table/table.h"
#include "src/table/table_writer.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace pipelsm {

class MemTable;

namespace obs {
class MetricsRegistry;
class TraceCollector;
}  // namespace obs

// One data-block extent to read for a sub-task.
struct BlockRead {
  int table_index = 0;  // which input table
  BlockHandle handle;
};

// An independent unit of compaction work: the user keys in (lo, hi].
// Empty lo = unbounded below; empty hi (with unbounded_hi) = unbounded
// above. Boundary blocks may be listed in two adjacent sub-tasks; the
// merge filters entries by the range, so output never duplicates.
struct SubTaskPlan {
  uint64_t seq = 0;           // position in key order (write order)
  std::string lo_user_key;    // exclusive lower bound
  bool unbounded_lo = true;
  std::string hi_user_key;    // inclusive upper bound
  bool unbounded_hi = true;
  // Grouped by input table in ascending table order; each table's blocks
  // are consecutive in its file.
  std::vector<BlockRead> blocks;
  // True if no live table below the output level overlaps this range, so
  // deletion tombstones at or below the snapshot may be dropped.
  bool drop_deletions = false;
};

// A planned compaction job: its sub-tasks in key order, and the job's
// input size l — the stored bytes (payload + trailer) of the distinct
// data blocks the sub-tasks list, so a boundary block counts once.
// plan_nanos is the time planning took; the executor that runs the plan
// counts it in StepProfile::wall_nanos.
struct CompactionPlan {
  std::vector<SubTaskPlan> subtasks;
  uint64_t input_bytes = 0;
  uint64_t plan_nanos = 0;
};

// S1 output: the sub-task's raw (still compressed + trailered) blocks.
struct RawSubTask {
  SubTaskPlan plan;
  std::vector<RawBlock> blocks;  // parallel to plan.blocks
};

// S2..S6 output for one sub-task. Its blocks (table_writer.h) carry
// internal keys.
struct ComputedSubTask {
  uint64_t seq = 0;
  std::vector<EncodedBlock> blocks;
  std::string smallest_key;  // internal key of first entry (if any)
  std::string largest_key;   // internal key of last entry (if any)
  uint64_t entries = 0;
  uint64_t output_raw_bytes = 0;
  StepProfile profile;  // S2..S6 timings for this sub-task
};

// Metadata of one finished output SSTable, reported through the sink.
struct OutputMeta {
  uint64_t file_number = 0;
  uint64_t file_size = 0;
  uint64_t entries = 0;
  InternalKey smallest;
  InternalKey largest;
};

// The executor's interface to whoever owns file naming and installation
// (the DB's compaction driver, or a bench harness).
class CompactionSink {
 public:
  virtual ~CompactionSink() = default;

  // Create the next output file. Must be thread-compatible with a single
  // write stage (calls are serialized by the executor).
  virtual Status NewOutputFile(uint64_t* file_number,
                               std::unique_ptr<WritableFile>* file) = 0;

  // Called once per completed output table, in key order, after the
  // table is synced and closed. A non-OK status fails the job: the DB's
  // sink opens the table here, so a table that does not read back is
  // never installed.
  virtual Status OutputFinished(const OutputMeta& meta) = 0;
};

// Per-job knobs, derived from Options by the DB (or set directly by
// benches).
struct CompactionJobOptions {
  const InternalKeyComparator* icmp = nullptr;

  // Sub-task granularity in (compressed) input bytes. S1 reads each
  // input table in windows of max(subtask_bytes, min_read_bytes).
  size_t subtask_bytes = 512 * 1024;

  // Smallest S1 read per input table: windows are at least this long,
  // and no read leaves a shorter tail of the table for a read of its
  // own. So a job's read-ahead memory is at most inputs x (window +
  // min_read_bytes). The DB sets it to its Env's PreferredReadBytes()
  // (one full stripe on a RAID0), so small sub-tasks still read whole
  // stripes. 0 (the default, and what the figure benches use) keeps the
  // I/O size equal to the sub-task size (paper §IV-C).
  size_t min_read_bytes = 0;

  // Output table shape: block size, restart interval, S5 codec, bloom
  // filter policy and partition size (comparator and block_cache are not
  // read). Flushes run through the executor too (memtable below), so
  // every table has one layout. The filter policy, when set, must be the
  // same (wrapped) policy the table readers use; the compute stage builds
  // one filter per output block, so S7 stays write-only.
  TableOptions table;
  uint64_t max_output_file_size = 2 * 1024 * 1024;

  // Entries older than this sequence and shadowed by a newer entry are
  // dropped; tombstones need drop_deletions as well.
  SequenceNumber smallest_snapshot = kMaxSequenceNumber;

  // Evaluated once per planned sub-task (single-threaded, at plan time):
  // may tombstones whose user keys all fall in (lo, hi] be dropped?
  // Default: yes (standalone/bench usage where there is nothing below).
  std::function<bool(const SubTaskPlan&)> range_is_base_level;

  // Optional, one per input table in the order the executor gets them:
  // each table's smallest user key (FileMetaData::smallest). It bounds
  // the table's first data block from below, so the planner lists that
  // block only in the sub-tasks it overlaps. Empty: first blocks are
  // unbounded below and land in every sub-task before them as well.
  std::vector<std::string> input_smallest_user_keys;

  // Optional: a memtable S4 merges as one more sorted run (no blocks, so
  // S1-S3 pass it by). Must outlive the run, unchanged. A flush is a
  // one-sub-task run over a memtable and no tables (WriteLevel0Table).
  MemTable* memtable = nullptr;

  // Optional: invoked for every in-range entry the merge drops (hidden
  // by a newer entry or a droppable tombstone) with the entry's type and
  // raw value bytes. Out-of-range entries are excluded — they are merely
  // this sub-task's overlap margin and get output by a neighboring
  // sub-task. The DB uses this to credit dropped kTypeValuePointer
  // entries to value-log discard statistics (docs/VALUE_LOG.md). May be
  // called from concurrent compute workers (C-PPCP) — must be
  // thread-safe.
  std::function<void(ValueType, const Slice&)> on_drop_entry;

  // Parallelism (paper §III-C): readers = S-PPCP k, computers = C-PPCP k.
  int read_parallelism = 1;
  int compute_parallelism = 1;

  // Depth of each inter-stage queue.
  size_t queue_depth = 4;

  // Ablation toggle: when false, S1 issues one device read per data block
  // and keeps no read window. When true, S1 reads each input table in
  // windows of max(subtask_bytes, min_read_bytes), so a table is read once
  // per job whatever the number of overlapping inputs (WindowedReader in
  // steps.h; bench_ablation A2 measures the gap).
  bool coalesce_reads = true;

  // -------- observability (src/obs, docs/OBSERVABILITY.md) --------
  // Optional registry the executor publishes run metrics into: queue
  // stall times, depth high-watermarks, sub-task latency histograms, and
  // for successful runs only compaction.runs and the per-step
  // nanos/bytes. Registration is idempotent, so one registry can
  // accumulate across many compactions. Listener events are not the
  // executor's business: the DB's CompactionJob (src/db/compaction_job.h)
  // fires one Begin/Completed pair per job.
  obs::MetricsRegistry* metrics = nullptr;

  // Optional trace collector; when set, every sub-task's stage spans and
  // queue-wait stalls are recorded for chrome://tracing export.
  obs::TraceCollector* trace = nullptr;

  // Set by the executor on its own copy of the options (callers leave
  // it alone): which trace process the run belongs to. The write stage
  // draws its S7 spans on lane 0 of that process.
  uint32_t trace_pid = 0;

  // Slow-motion factor for hosts with fewer cores than the paper's
  // testbed (see DESIGN.md §"Substitutions"). When > 1, each sub-task's
  // compute stage additionally sleeps (dilation - 1) x its real CPU time
  // and reports dilated step times, stretching the experiment's time
  // domain uniformly (pair it with a device profile slowed by the same
  // factor). Because the added time is spent sleeping, k compute workers
  // overlap genuinely even on one physical core, which is what the
  // C-PPCP scaling sweep (Fig 12 d-f) requires. Ratios between stages —
  // and therefore every speedup and crossover — are preserved.
  double time_dilation = 1.0;
};

// Returns `profile` slowed down by `dilation` (bandwidths divided,
// positioning costs multiplied) for use alongside time-dilated jobs.
DeviceProfile DilatedProfile(DeviceProfile profile, double dilation);

}  // namespace pipelsm
