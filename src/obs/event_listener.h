// EventListener: push-based observability (RocksDB-style callbacks).
//
// Where PR 1's metrics registry and trace collector are *pull* surfaces —
// somebody has to ask for a snapshot — listeners are *pushed* to as the
// pipeline runs: the DB announces every memtable flush, the DB's
// compaction job announces every major compaction (with the measured
// per-step S1–S7 times the paper's Eqs. 1–7 consume), and the write path
// announces every backpressure transition. The DB itself installs one
// internal listener that turns the stream into info-log lines and feeds
// the compaction controller's step profile (src/compaction/scheduler.h);
// user listeners on Options::listeners ride the same dispatch.
//
// Threading contract: callbacks fire synchronously on whichever thread
// produced the event — the background compaction thread for flush and
// compaction events, a writer thread for stall events (with the DB mutex
// HELD). Listeners must therefore be fast, must tolerate concurrent
// invocation, and must never call back into the DB. Begin always precedes
// Completed for the same job_id, and job ids are allocated monotonically
// per DB instance (flushes and compactions draw from one sequence).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace pipelsm::obs {

// One memtable flush, a one-sub-task run of the compaction executor.
// Fired from DBImpl::WriteLevel0Table: Begin before the run (only job_id
// is meaningful: S7 allocates the file), Completed after it, on success
// (the table written and opened) and on failure alike.
struct FlushJobInfo {
  uint64_t job_id = 0;
  uint64_t file_number = 0;  // table file (Completed only; 0: none made)
  uint64_t output_bytes = 0; // final file size (Completed only)
  uint64_t entries = 0;      // internal keys written (Completed only)
  uint64_t micros = 0;       // wall time of the flush (Completed only)
  Status status;             // Completed only
};

// One major compaction. Fired by the DB's CompactionJob
// (src/db/compaction_job.h), once per job however many key-range
// sub-jobs it split into: Begin after the split and before planning, so
// it already names the executor, the fan-out and the scheduler's
// verdict; Completed after every sub-job finished, on success and on
// failure alike, with the merged StepProfile and the job's status. The
// profile is the one place a job's measured totals live:
// profile.subtasks, profile.output_bytes (raw bytes produced) and
// profile.wall_nanos (the job's own elapsed time between Begin and
// Completed, not a sum over sub-jobs).
struct CompactionJobInfo {
  uint64_t job_id = 0;
  int level = 0;             // input level
  int output_level = 0;      // install level (level for a self-merge)
  const char* executor = ""; // "SCP" / "PCP" / "C-PPCP"
  // Which compaction_style preset shaped this job (docs/COMPACTION.md)
  // and its predicted bytes-written amplification at pick time.
  const char* style = "leveled";
  double predicted_write_amp = 1.0;
  // Number of disjoint key-range sub-jobs the job runs (1 = not split).
  int subcompactions = 1;
  // The CompactionScheduler's per-job verdict (src/compaction/scheduler.h):
  // the compute workers the job was granted, whether the choice came from
  // the adaptive control loop (vs the static Options config), and the
  // scheduler's one-line rationale.
  int compute_parallelism = 1;
  bool adaptive = false;
  std::string scheduler_rationale;
  int input_files = 0;
  uint64_t input_bytes = 0;  // compressed bytes across input tables
  StepProfile profile;       // measured S1..S7 nanos/bytes (Completed only)
  Status status;             // Completed only
};

// Write-path backpressure state (MakeRoomForWrite). kDelayed is the 1 ms
// L0 slowdown; kStopped is a full pause on memtable/L0 limits.
enum class WriteStallCondition { kNormal = 0, kDelayed = 1, kStopped = 2 };

const char* WriteStallConditionName(WriteStallCondition condition);

struct WriteStallInfo {
  WriteStallCondition condition = WriteStallCondition::kNormal;
  WriteStallCondition previous = WriteStallCondition::kNormal;
};

// Background failure lifecycle (docs/FAULT_INJECTION.md). Fired with the
// DB mutex HELD, so handlers must not block or call back into the DB.
// A non-sticky event means the failure consumed one retry and the work
// will be re-attempted after backoff; a sticky event means retries are
// exhausted (or the error is not retryable) and the DB is read-only
// until Resume().
struct BackgroundErrorInfo {
  Status status;
  const char* source = "";  // "flush" | "compaction" | "wal" | "resume"
  int attempt = 0;          // retries consumed so far, including this one
  int max_attempts = 0;     // Options::max_background_retries
  bool sticky = false;      // true: DB entered the background-error state
};

// Fired by a successful DB::Resume() with the error it cleared.
struct ErrorRecoveryInfo {
  Status old_error;
};

// Base class with no-op defaults: override only the hooks you need.
class EventListener {
 public:
  virtual ~EventListener();

  virtual void OnFlushBegin(const FlushJobInfo& /*info*/) {}
  virtual void OnFlushCompleted(const FlushJobInfo& /*info*/) {}
  virtual void OnCompactionBegin(const CompactionJobInfo& /*info*/) {}
  virtual void OnCompactionCompleted(const CompactionJobInfo& /*info*/) {}
  // Fired on every transition; called with the DB mutex held, so this one
  // in particular must not block.
  virtual void OnWriteStallChange(const WriteStallInfo& /*info*/) {}
  // Both fired with the DB mutex held (see BackgroundErrorInfo above).
  virtual void OnBackgroundError(const BackgroundErrorInfo& /*info*/) {}
  virtual void OnErrorRecovered(const ErrorRecoveryInfo& /*info*/) {}
};

using EventListeners = std::vector<EventListener*>;

}  // namespace pipelsm::obs
