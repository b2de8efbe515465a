// DBImpl: the LSM engine. Writes land in the WAL + memtable; full
// memtables rotate to an immutable memtable that a background thread
// dumps to level 0; when a level exceeds its threshold the background
// thread runs a major compaction through the CompactionExecutor, under
// the procedure (SCP / PCP / C-PPCP) the scheduler grants it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/compaction/scheduler.h"
#include "src/compaction/types.h"
#include "src/db/db.h"
#include "src/db/dbformat.h"
#include "src/db/table_cache.h"
#include "src/db/write_batch.h"
#include "src/memtable/memtable.h"
#include "src/obs/event_listener.h"
#include "src/obs/logger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/read/cache.h"
#include "src/version/version_set.h"
#include "src/vlog/vlog.h"
#include "src/wal/log_writer.h"

namespace pipelsm {

class VlogGarbageCollector;

class SnapshotImpl : public Snapshot {
 public:
  explicit SnapshotImpl(SequenceNumber sequence_number)
      : sequence_number_(sequence_number) {}

  SequenceNumber sequence_number() const { return sequence_number_; }

 private:
  friend class DBImpl;
  const SequenceNumber sequence_number_;
  std::list<SnapshotImpl*>::iterator pos_;
};

class DBImpl final : public DB {
 public:
  DBImpl(const Options& raw_options, const std::string& dbname);
  ~DBImpl() override;

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  // DB interface.
  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  void WriteMany(const WriteOptions& options, WriteBatch* const* batches,
                 size_t n, Status* statuses) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void GetApproximateSizes(const Range* range, int n,
                           uint64_t* sizes) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  Status WaitForCompactions() override;
  Status CompactValueLog() override;
  Status Resume() override;
  CompactionMetrics GetCompactionMetrics() override;

  obs::MetricsRegistry* MetricsHandle() override { return &metrics_registry_; }
  obs::Logger* InfoLogHandle() override { return info_log_; }

  // A consistent read view: refs on mem_, on imm_ (null when no flush is
  // pending) and on the current version, plus the sequence to read at.
  // Every read of the LSM state goes through one: Get, iterators and the
  // value-log GC's liveness checks.
  struct ReadView {
    MemTable* mem = nullptr;
    MemTable* imm = nullptr;
    Version* current = nullptr;
    SequenceNumber sequence = 0;
    // Set when `sequence` is held in vlog_pins_, which keeps every
    // retired value-log segment the reader may still resolve alive.
    bool pinned = false;
    std::multiset<SequenceNumber>::iterator pin{};

    // Looks `key` up in mem, then imm, then the version.
    Status Get(const TableReadOptions& options, const LookupKey& key,
               std::string* value, bool* is_pointer) const;
  };

  // The calls below take mutex_ themselves; the value-log GC
  // (src/db/vlog_gc.h) reaches the DB only through them.

  // A view at `snapshot` (null: LastSequence). With `pin` (and a value
  // log) it also holds its sequence in vlog_pins_.
  ReadView AcquireReadView(const Snapshot* snapshot, bool pin);
  void ReleaseReadView(const ReadView& view);
  // Takes writer-queue leadership, lets `fill` build a batch against a
  // view at LastSequence (without mutex_), and commits that batch,
  // synced, through the leader commit step. *last_sequence is
  // LastSequence afterwards. A sticky background error fails the call
  // before `fill` runs.
  Status WriteAsLeader(
      const std::function<void(const ReadView&, WriteBatch*)>& fill,
      SequenceNumber* last_sequence);
  SequenceNumber LastSequence();
  Status BackgroundError();
  // Compute the min pin under mutex_ and sweep retired segments without
  // holding it (never call into vlog_ with mutex_ held).
  void SweepRetiredVlogSegments();

 private:
  friend class DB;
  class EventLogger;

  // Recover the descriptor from persistent storage. May do a significant
  // amount of work to recover recently logged updates.
  Status Recover(VersionEdit* edit, bool* save_manifest);
  // Sets *stopped when replay met a record whose value frames did not
  // survive; the caller replays no later log.
  Status RecoverLogFile(uint64_t log_number, bool* save_manifest,
                        VersionEdit* edit, SequenceNumber* max_sequence,
                        bool* stopped);

  // Flushes `mem` into a new table through the compaction executor,
  // fills *meta and adds the table to *edit; an empty memtable leaves no
  // file (meta->file_size == 0). With `pick_level`, a table that overlaps
  // nothing in the current version is placed below level 0 (leveled).
  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit, bool pick_level,
                          FileMetaData* meta) /* REQUIRES: holding mutex_ */;

  // The allocator and opener of every TableSink, called without mutex_.
  // NewOutputTable first flushes a pending immutable memtable (a no-op
  // inside a flush), then protects the number in pending_outputs_ until
  // the caller releases it. OpenOutputTable opens a finished table
  // through the table cache, which verifies its footer, index and filter
  // tail before any edit names it and keeps the reader for the next job.
  Status NewOutputTable(uint64_t* number, std::unique_ptr<WritableFile>* file);
  Status OpenOutputTable(const OutputMeta& out);

  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock, bool force);

  // Opens a fresh WAL and turns mem_ into imm_, scheduling its flush.
  // Changes nothing on failure. REQUIRES: holding mutex_, imm_ == null,
  // the caller heads writers_.
  Status SwitchMemTable();

  void RemoveObsoleteFiles() /* REQUIRES: holding mutex_ */;

  void MaybeScheduleCompaction() /* REQUIRES: holding mutex_ */;
  void BackgroundThreadMain();
  Status BackgroundCompaction(std::unique_lock<std::mutex>& lock);
  Status CompactMemTable(std::unique_lock<std::mutex>& lock);
  // Admits *c, opens its inputs and runs it as a CompactionJob with
  // mutex_ released, and installs its outputs.
  Status DoCompactionWork(std::unique_lock<std::mutex>& lock, Compaction* c);

  // Flush a pending immutable memtable from a running compaction's output
  // allocator (keeps the write path unblocked during long major
  // compactions).
  void MaybeFlushImmDuringCompaction();

  // Group commit: one queued writer becomes the leader, folds the batches
  // of followers behind it into one WAL record + memtable apply, and
  // wakes them with the shared status.
  struct Writer {
    Status status;
    WriteBatch* batch = nullptr;
    bool sync = false;
    bool done = false;
    std::condition_variable cv;
  };

  // Makes `w` the head of the writer queue as a null-batch writer, so the
  // caller owns log_/mem_ exclusively, like a write-group leader (Resume,
  // WriteAsLeader). `lock` holds mutex_ and is released while waiting.
  void AcquireWriteLeadership(Writer* w, std::unique_lock<std::mutex>& lock);
  // Pops the leader's group off the queue head, through `last`, hands
  // each writer in it `status`, and wakes the next writer.
  void ReleaseWriteLeadership(Writer* last, const Status& status)
      /* REQUIRES: holding mutex_ */;

  // REQUIRES: mutex held, writers_ non-empty, first writer not done.
  // Sets *group_size to the number of writes (Write calls, WriteMany
  // batches) folded into the group.
  WriteBatch* BuildBatchGroup(Writer** last_writer, size_t* group_size);

  // The leader's commit step, shared by Write and WriteAsLeader. `batch`
  // already carries its sequence. With mutex_ released, separates its
  // large values, appends it to the WAL, syncs the WAL when `sync` and
  // applies it to mem_; back under mutex_, a failed append or sync
  // becomes the sticky "wal" error and LastSequence advances past the
  // batch. REQUIRES: `lock` holds mutex_ and the caller heads writers_.
  Status CommitBatch(std::unique_lock<std::mutex>& lock, WriteBatch* batch,
                     bool sync);

  // Fires OnBackgroundError on every listener.
  void NotifyBackgroundError(const Status& s, const char* source,
                             bool sticky) /* REQUIRES: holding mutex_ */;

  // Sticky error: freezes background work and writes until Resume().
  void RecordBackgroundError(const Status& s, const char* source = "db");

  // Classifies a background failure: transient I/O errors consume one of
  // Options::max_background_retries (the background loop re-runs the work
  // after exponential backoff); exhausted retries and non-retryable
  // errors (corruption) become the sticky bg_error_.
  void HandleBackgroundFailure(const Status& s, const char* source)
      /* REQUIRES: holding mutex_ */;

  uint64_t BackoffMicros(int attempt) const;

  // Fires OnWriteStallChange on every listener iff the condition changed.
  void SetStallCondition(obs::WriteStallCondition condition)
      /* REQUIRES: holding mutex_ */;

  // The GetProperty("pipelsm.stats") payload: counters, level summary,
  // accumulated step profile, the metrics registry snapshot (which holds
  // the foreground latency histograms), the advisor verdict and the
  // scheduler state.
  std::string StatsReport() /* REQUIRES: holding mutex_ */;

  // Re-exports the chrome trace to Options::trace_path (no-op without a
  // collector); failures are logged, never surfaced. Called on close, on
  // every stats-dump tick and on the first background error, so a crashed
  // or wedged run still leaves a loadable trace.
  void FlushTraceBestEffort();

  void StatsThreadMain();

  // Compact the in-memory range [begin,end] at the given level (used by
  // CompactRange).
  void CompactRangeAtLevel(int level, const Slice* begin, const Slice* end);

  struct ManualCompaction {
    int level;
    bool done;
    const InternalKey* begin;  // null means beginning of key range
    const InternalKey* end;    // null means end of key range
    InternalKey tmp_storage;   // Used to keep track of compaction progress
  };

  // Constant after construction.
  Env* const env_;
  const InternalKeyComparator internal_comparator_;
  // Bloom policy when Options::bloom_bits_per_key > 0, else null.
  // Declared before internal_filter_policy_, which wraps it.
  std::unique_ptr<const FilterPolicy> filter_policy_;
  const InternalFilterPolicy internal_filter_policy_;
  const Options options_;
  const std::string dbname_;
  // Every job's CompactionJobOptions::min_read_bytes: the Env's preferred
  // read size, asked once at open.
  const uint64_t min_read_bytes_;

  std::unique_ptr<read::Cache> owned_block_cache_;
  TableOptions table_options_;        // derived, for readers/flushes
  std::unique_ptr<TableCache> table_cache_;

  std::mutex mutex_;
  std::condition_variable background_work_signal_;
  std::condition_variable background_done_signal_;
  std::atomic<bool> shutting_down_{false};

  MemTable* mem_ = nullptr;
  MemTable* imm_ = nullptr;              // Memtable being flushed
  std::atomic<bool> has_imm_{false};     // imm_ != nullptr, lock-free probe
  // True while one thread runs CompactMemTable. Concurrent compaction
  // sub-job threads may all observe has_imm_; CompactMemTable drops mutex_
  // inside LogAndApply, so the imm_ null check alone cannot arbitrate
  // (docs/COMPACTION.md). Guarded by mutex_.
  bool imm_flush_in_progress_ = false;
  std::unique_ptr<WritableFile> logfile_;
  uint64_t logfile_number_ = 0;
  std::unique_ptr<log::Writer> log_;

  std::list<SnapshotImpl*> snapshots_;

  // Queue of writers waiting to commit (front = leader).
  std::deque<Writer*> writers_;
  WriteBatch tmp_batch_;  // scratch for group commit
  WriteBatch vlog_batch_;  // leader's scratch for separated groups

  // Key-value separation (docs/VALUE_LOG.md). Created during Recover()
  // when Options::value_separation_threshold > 0 or the directory holds
  // .vlog segments from a previous run (so pointers stay resolvable even
  // if separation was since turned off); immutable afterwards. Its own
  // mutex orders BELOW mutex_: never call into vlog_ while holding
  // mutex_ (the file-number allocator re-locks mutex_).
  std::unique_ptr<vlog::VlogManager> vlog_;

  // Sequence numbers pinned by live internal iterators and in-flight
  // Gets. Retired value-log segments are physically deleted only once
  // the minimum pin passes their retire sequence, so a read that saw an
  // old pointer can still resolve it. Guarded by mutex_.
  std::multiset<SequenceNumber> vlog_pins_;

  // Value-log GC and its thread; exists iff vlog_ does.
  std::unique_ptr<VlogGarbageCollector> vlog_gc_;

  // Files being generated by in-flight compactions (protected from GC).
  std::set<uint64_t> pending_outputs_;

  std::thread background_thread_;
  bool background_work_pending_ = false;
  bool background_work_active_ = false;
  ManualCompaction* manual_compaction_ = nullptr;

  std::unique_ptr<VersionSet> versions_;

  Status bg_error_;
  int bg_retry_attempts_ = 0;     // transient failures since last success
  bool bg_retry_pending_ = false; // background loop owes a backoff+retry

  // Last installed job's write-amp estimate, behind
  // GetProperty("pipelsm.compaction") (docs/COMPACTION.md). Guarded by
  // mutex_.
  double last_predicted_write_amp_ = 1.0;

  // Observability (docs/OBSERVABILITY.md): instrument registry behind
  // GetProperty("pipelsm.metrics") and the one source of every engine
  // total (GetCompactionMetrics and the stats report read it back) — has
  // its own synchronization, and the executors update it outside mutex_.
  // trace_ exists only when Options::trace_path is set; the file is
  // written on DB close.
  obs::MetricsRegistry metrics_registry_;
  std::unique_ptr<obs::TraceCollector> trace_;
  obs::Counter* slowdown_micros_counter_ = nullptr;
  obs::Counter* pause_micros_counter_ = nullptr;
  obs::Counter* flush_runs_counter_ = nullptr;
  obs::Counter* flush_bytes_counter_ = nullptr;
  obs::Counter* write_ops_counter_ = nullptr;  // entries of committed groups
  obs::Counter* compaction_jobs_counter_ = nullptr;   // installed jobs
  obs::Counter* compaction_bytes_counter_ = nullptr;  // their output bytes
  obs::Counter* subcompaction_jobs_counter_ = nullptr;  // jobs that split
  obs::Counter* subcompaction_runs_counter_ = nullptr;  // sub-jobs run
  obs::HistogramMetric* get_micros_hist_ = nullptr;
  obs::HistogramMetric* write_micros_hist_ = nullptr;
  obs::HistogramMetric* write_group_size_hist_ = nullptr;  // per group
  obs::Gauge* write_queue_depth_gauge_ = nullptr;  // writers_.size()
  obs::Gauge* stall_state_gauge_ = nullptr;  // 0 normal / 1 delayed / 2 stopped

  // Info log: Options::info_log, or a LOG file the DB creates in its own
  // directory (previous run rotated to LOG.old). Every engine message
  // goes here. Null only if creation failed — obs::Log() tolerates that.
  std::unique_ptr<obs::Logger> owned_info_log_;
  obs::Logger* info_log_ = nullptr;

  // Event stream: one internal listener (EVENT log lines + profile feed)
  // followed by Options::listeners, dispatched in that order. Job ids for
  // flushes and compactions come from one monotone sequence.
  std::unique_ptr<EventLogger> event_logger_;
  obs::EventListeners listeners_;
  std::atomic<uint64_t> next_job_id_{1};

  // The compaction controller (src/compaction/scheduler.h): fed the
  // StepProfile of every successful compaction and GC pass, it chooses
  // and admits every job; behind GetProperty("pipelsm.advisor") and
  // ("pipelsm.scheduler"). Has its own lock.
  CompactionScheduler scheduler_;

  obs::WriteStallCondition stall_condition_ =
      obs::WriteStallCondition::kNormal;  // guarded by mutex_

  // Periodic stats dumper (Options::stats_dump_period_sec); shares
  // mutex_, woken early at shutdown via stats_cv_.
  std::thread stats_thread_;
  std::condition_variable stats_cv_;
};

}  // namespace pipelsm
