#include "src/db/db_impl.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "src/compaction/executor.h"
#include "src/compaction/picker.h"
#include "src/db/compaction_job.h"
#include "src/db/db_iter.h"
#include "src/db/filename.h"
#include "src/db/vlog_gc.h"
#include "src/obs/pipeline_metrics.h"
#include "src/table/filter_policy.h"
#include "src/table/merger.h"
#include "src/table/table.h"
#include "src/util/json_writer.h"
#include "src/util/string_util.h"
#include "src/wal/log_reader.h"

namespace pipelsm {

Snapshot::~Snapshot() = default;
DB::~DB() = default;

namespace {

// Open SSTable readers the table cache keeps (one charge unit each).
constexpr int kMaxOpenTables = 500;

Options SanitizeOptions(const Options& src) {
  Options result = src;
  if (result.env == nullptr) result.env = Env::Posix();
  if (result.comparator == nullptr) result.comparator = BytewiseComparator();
  auto clip = [](size_t v, size_t lo, size_t hi) {
    return std::min(hi, std::max(lo, v));
  };
  result.write_buffer_size =
      clip(result.write_buffer_size, 64 << 10, 1 << 30);
  result.max_file_size = clip(result.max_file_size, 64 << 10, 1 << 30);
  result.block_size = clip(result.block_size, 1 << 10, 4 << 20);
  // The scheduler's knobs (parallelism, bounds, hysteresis, warmup) are
  // clamped once, by the CompactionScheduler that reads them.

  // Compaction-policy knobs (docs/COMPACTION.md): T < 2 degenerates to
  // leveling with extra read amplification, and the sub-compaction
  // fan-out is bounded so a misconfigured value cannot spawn an
  // unbounded thread herd per job.
  result.tiered_run_count = std::clamp(result.tiered_run_count, 2, 32);
  result.max_subcompactions = std::clamp(result.max_subcompactions, 1, 16);
  if (result.max_background_retries < 0) result.max_background_retries = 0;
  // Value-log knobs (docs/VALUE_LOG.md): a frame must fit its segment.
  if (result.value_separation_threshold > 0) {
    result.vlog_segment_size =
        clip(result.vlog_segment_size, 64 << 10, 1 << 30);
    if (result.value_separation_threshold > result.vlog_segment_size / 2) {
      result.value_separation_threshold = result.vlog_segment_size / 2;
    }
  }
  result.background_retry_backoff_micros =
      std::max<uint64_t>(result.background_retry_backoff_micros, 1);
  result.background_retry_backoff_max_micros =
      std::max(result.background_retry_backoff_max_micros,
               result.background_retry_backoff_micros);
  return result;
}

}  // namespace

// Internal listener, always first on the dispatch list: renders every
// event as one grep-able `EVENT` line in the info log and feeds each
// successful compaction's StepProfile to the compaction controller.
class DBImpl::EventLogger final : public obs::EventListener {
 public:
  explicit EventLogger(DBImpl* db) : db_(db) {}

  void OnFlushBegin(const obs::FlushJobInfo& info) override {
    obs::Log(db_->info_log_, "EVENT flush_begin job=%llu",
             static_cast<unsigned long long>(info.job_id));
  }

  void OnFlushCompleted(const obs::FlushJobInfo& info) override {
    obs::Log(db_->info_log_,
             "EVENT flush_end job=%llu file=%llu bytes=%llu entries=%llu "
             "micros=%llu status=%s",
             static_cast<unsigned long long>(info.job_id),
             static_cast<unsigned long long>(info.file_number),
             static_cast<unsigned long long>(info.output_bytes),
             static_cast<unsigned long long>(info.entries),
             static_cast<unsigned long long>(info.micros),
             info.status.ok() ? "ok" : info.status.ToString().c_str());
  }

  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    obs::Log(db_->info_log_,
             "EVENT compaction_begin job=%llu level=%d output_level=%d "
             "style=%s executor=%s compute_k=%d adaptive=%d "
             "inputs=%d input_bytes=%llu subcompactions=%d "
             "predicted_write_amp=%.2f rationale=\"%s\"",
             static_cast<unsigned long long>(info.job_id), info.level,
             info.output_level, info.style, info.executor,
             info.compute_parallelism,
             info.adaptive ? 1 : 0, info.input_files,
             static_cast<unsigned long long>(info.input_bytes),
             info.subcompactions, info.predicted_write_amp,
             info.scheduler_rationale.c_str());
  }

  void OnCompactionCompleted(const obs::CompactionJobInfo& info) override {
    const StepProfile& p = info.profile;
    obs::Log(db_->info_log_,
             "EVENT compaction_end job=%llu level=%d output_level=%d "
             "style=%s executor=%s subcompactions=%d subtasks=%llu "
             "output_bytes=%llu read_ms=%.1f compute_ms=%.1f write_ms=%.1f "
             "wall_ms=%.1f status=%s",
             static_cast<unsigned long long>(info.job_id), info.level,
             info.output_level, info.style, info.executor,
             info.subcompactions,
             static_cast<unsigned long long>(p.subtasks),
             static_cast<unsigned long long>(p.output_bytes),
             p.nanos[kStepRead] / 1e6, p.ComputeNanos() / 1e6,
             p.nanos[kStepWrite] / 1e6, p.wall_nanos / 1e6,
             info.status.ok() ? "ok" : info.status.ToString().c_str());
    if (info.status.ok()) {
      db_->scheduler_.AddJob(info.profile);
    }
  }

  void OnWriteStallChange(const obs::WriteStallInfo& info) override {
    // Called with mutex_ held — one formatted append, nothing blocking.
    obs::Log(db_->info_log_, "EVENT write_stall %s->%s",
             obs::WriteStallConditionName(info.previous),
             obs::WriteStallConditionName(info.condition));
  }

  void OnBackgroundError(const obs::BackgroundErrorInfo& info) override {
    // Called with mutex_ held — one formatted append, nothing blocking.
    obs::Log(db_->info_log_,
             "EVENT background_error source=%s attempt=%d/%d sticky=%d "
             "status=%s",
             info.source, info.attempt, info.max_attempts,
             info.sticky ? 1 : 0, info.status.ToString().c_str());
  }

  void OnErrorRecovered(const obs::ErrorRecoveryInfo& info) override {
    obs::Log(db_->info_log_, "EVENT resume cleared=%s",
             info.old_error.ToString().c_str());
  }

 private:
  DBImpl* const db_;
};

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname)
    : env_(SanitizeOptions(raw_options).env),
      internal_comparator_(raw_options.comparator != nullptr
                               ? raw_options.comparator
                               : BytewiseComparator()),
      filter_policy_(raw_options.bloom_bits_per_key > 0
                         ? NewBloomFilterPolicy(raw_options.bloom_bits_per_key)
                         : nullptr),
      internal_filter_policy_(filter_policy_.get()),
      options_(SanitizeOptions(raw_options)),
      dbname_(dbname),
      min_read_bytes_(env_->PreferredReadBytes()),
      scheduler_(options_, &metrics_registry_) {
  // Info log first, so every component built below can report to it:
  // the caller-supplied sink, or a LOG file in the DB directory.
  if (options_.info_log != nullptr) {
    info_log_ = options_.info_log;
  } else if (OpenInfoLog(env_, dbname_, &owned_info_log_).ok()) {
    info_log_ = owned_info_log_.get();
  }
  // S1's read window, max(sub-task, the Env's preferred read size), is
  // logged so an operator can see what the Env reported.
  obs::Log(info_log_,
           "opening DB %s (mode=%s%s, subtask=%zu KB, s1_window=%llu KB)",
           dbname_.c_str(), CompactionModeName(options_.compaction_mode),
           scheduler_.adaptive() ? "+adaptive" : "",
           options_.subtask_bytes >> 10,
           static_cast<unsigned long long>(
               std::max<uint64_t>(options_.subtask_bytes, min_read_bytes_) >>
               10));

  if (options_.block_cache == nullptr) {
    owned_block_cache_ = read::NewShardedLRUCache(
        options_.block_cache_size, options_.block_cache_shards);
  }

  table_options_.comparator = &internal_comparator_;
  table_options_.filter_policy =
      filter_policy_ != nullptr ? &internal_filter_policy_ : nullptr;
  table_options_.block_cache = options_.block_cache != nullptr
                                   ? options_.block_cache
                                   : owned_block_cache_.get();
  table_options_.filter_partition_bytes = options_.filter_partition_bytes;
  table_options_.block_size = options_.block_size;
  table_options_.compression = options_.compression;

  table_cache_.reset(
      new TableCache(dbname_, table_options_, env_, kMaxOpenTables));

  // Export read-path cache stats (docs/READ_PATH.md). The block-cache
  // instruments are only bound when this DB owns the cache — a shared
  // fleet cache is bound once by its owner (ShardedDB) instead.
  if (owned_block_cache_ != nullptr) {
    read::BindBlockCacheMetrics(owned_block_cache_.get(), &metrics_registry_);
  }
  table_cache_->store()->BindStats(
      metrics_registry_.RegisterCounter("cache.table.hits",
                                        "table cache hits"),
      metrics_registry_.RegisterCounter("cache.table.misses",
                                        "table cache misses"),
      metrics_registry_.RegisterCounter("cache.table.evictions",
                                        "table cache evictions"),
      metrics_registry_.RegisterGauge("cache.table.usage",
                                      "open tables cached"));
  versions_.reset(new VersionSet(dbname_, &options_, table_cache_.get(),
                                 &internal_comparator_, info_log_));

  if (!options_.trace_path.empty()) {
    trace_ = std::make_unique<obs::TraceCollector>();
  }
  slowdown_micros_counter_ = metrics_registry_.RegisterCounter(
      "db.write_slowdown_micros",
      "writer time lost to 1ms L0 slowdown delays");
  pause_micros_counter_ = metrics_registry_.RegisterCounter(
      "db.write_pause_micros",
      "writer time fully paused on memtable/L0 backpressure");
  flush_runs_counter_ =
      metrics_registry_.RegisterCounter("flush.runs", "memtable flushes");
  flush_bytes_counter_ = metrics_registry_.RegisterCounter(
      "flush.bytes_written", "bytes of level-0 tables written by flushes");
  compaction_jobs_counter_ = metrics_registry_.RegisterCounter(
      "compaction.jobs", "major compaction jobs installed");
  compaction_bytes_counter_ = metrics_registry_.RegisterCounter(
      "compaction.bytes_written",
      "bytes of the output tables of installed compaction jobs");
  subcompaction_jobs_counter_ = metrics_registry_.RegisterCounter(
      "compaction.subcompaction.jobs",
      "compaction jobs split into key-range sub-jobs");
  subcompaction_runs_counter_ = metrics_registry_.RegisterCounter(
      "compaction.subcompaction.runs",
      "key-range sub-jobs run across split compactions");
  write_ops_counter_ = metrics_registry_.RegisterCounter(
      "db.write_ops", "entries (puts and deletes) of committed write groups");
  get_micros_hist_ = metrics_registry_.RegisterHistogram(
      "db.get_micros", "foreground Get latency");
  write_micros_hist_ = metrics_registry_.RegisterHistogram(
      "db.write_micros", "foreground Write latency incl. queueing/stalls");
  write_group_size_hist_ = metrics_registry_.RegisterHistogram(
      "db.write_group_size", "writes folded into one WAL record");
  write_queue_depth_gauge_ = metrics_registry_.RegisterGauge(
      "db.write_queue_depth", "writers queued, the leader included");
  stall_state_gauge_ = metrics_registry_.RegisterGauge(
      "db.write_stall_state", "0 normal, 1 delayed (L0 slowdown), 2 stopped");

  event_logger_ = std::make_unique<EventLogger>(this);
  listeners_.push_back(event_logger_.get());
  listeners_.insert(listeners_.end(), options_.listeners.begin(),
                    options_.listeners.end());

  background_thread_ = std::thread([this] { BackgroundThreadMain(); });
  if (options_.stats_dump_period_sec > 0) {
    stats_thread_ = std::thread([this] { StatsThreadMain(); });
  }
}

DBImpl::~DBImpl() {
  // Wait for background work to finish, then stop the threads.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_.store(true, std::memory_order_release);
    background_work_signal_.notify_all();
    stats_cv_.notify_all();
    while (background_work_active_) {
      background_done_signal_.wait(lock);
    }
  }
  background_work_signal_.notify_all();
  if (background_thread_.joinable()) {
    background_thread_.join();
  }
  if (stats_thread_.joinable()) {
    stats_thread_.join();
  }
  vlog_gc_.reset();  // stops the GC thread, which may hold a read view

  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    obs::Log(info_log_, "closing DB\n%s", StatsReport().c_str());
  }
  FlushTraceBestEffort();
}

void DBImpl::FlushTraceBestEffort() {
  if (trace_ == nullptr) return;
  Status ts = trace_->WriteFile(options_.trace_path);
  if (!ts.ok()) {
    obs::Log(info_log_, "trace export failed: %s", ts.ToString().c_str());
  } else {
    obs::Log(info_log_, "wrote %zu trace spans to %s", trace_->span_count(),
             options_.trace_path.c_str());
  }
}

void DBImpl::StatsThreadMain() {
  const auto period = std::chrono::seconds(options_.stats_dump_period_sec);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!shutting_down_.load(std::memory_order_acquire)) {
    stats_cv_.wait_for(lock, period);
    if (shutting_down_.load(std::memory_order_acquire)) break;
    std::string report = StatsReport();
    lock.unlock();
    obs::Log(info_log_, "---- periodic stats ----\n%s", report.c_str());
    // Keep the on-disk trace current so a crashed/killed run still
    // leaves a loadable file instead of nothing.
    FlushTraceBestEffort();
    lock.lock();
  }
}

Status DBImpl::Recover(VersionEdit* edit, bool* save_manifest) {
  env_->CreateDir(dbname_);

  if (!env_->FileExists(CurrentFileName(dbname_))) {
    if (options_.create_if_missing) {
      VersionEdit new_db;
      new_db.SetComparatorName(internal_comparator_.user_comparator()->Name());
      new_db.SetLogNumber(0);
      new_db.SetNextFile(2);
      new_db.SetLastSequence(0);
      Status s = CreateManifest(env_, dbname_, 1, new_db);
      if (!s.ok()) return s;
    } else {
      return Status::InvalidArgument(
          dbname_, "does not exist (create_if_missing is false)");
    }
  } else if (options_.error_if_exists) {
    return Status::InvalidArgument(dbname_,
                                   "exists (error_if_exists is true)");
  }

  Status s = versions_->Recover();
  if (!s.ok()) return s;

  // Recover from all newer log files than the ones named in the
  // descriptor. Note that PrevLogNumber() is no longer used, we only keep
  // one log.
  const uint64_t min_log = versions_->LogNumber();
  std::vector<std::string> filenames;
  s = env_->GetChildren(dbname_, &filenames);
  if (!s.ok()) return s;

  std::set<uint64_t> expected;
  versions_->AddLiveFiles(&expected);
  uint64_t number;
  FileType type;
  std::vector<uint64_t> logs;
  bool saw_vlog = false;
  uint64_t max_vlog = 0;
  for (const std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      if (type == kVlogFile) {
        // Value-log segments live outside the manifest; the VlogManager
        // recovers them below.
        saw_vlog = true;
        max_vlog = std::max(max_vlog, number);
        continue;
      }
      expected.erase(number);
      if (type == kLogFile && number >= min_log) {
        logs.push_back(number);
      }
    }
  }
  if (!expected.empty()) {
    char buf[50];
    std::snprintf(buf, sizeof(buf), "%d missing table files",
                  static_cast<int>(expected.size()));
    return Status::Corruption(buf);
  }

  // Key-value separation (docs/VALUE_LOG.md): bring up the value log
  // before WAL replay so the file-number counter is already past every
  // existing segment when replay flushes allocate table numbers. Also
  // created when separation is off but segments exist from a previous
  // run, so old pointers stay resolvable.
  if (options_.value_separation_threshold > 0 || saw_vlog) {
    versions_->MarkFileNumberUsed(max_vlog);
    vlog::VlogOptions vopts;
    vopts.segment_size = options_.vlog_segment_size;
    vopts.cache = table_options_.block_cache;
    vlog_ = std::make_unique<vlog::VlogManager>(
        env_, dbname_, vopts, &metrics_registry_, info_log_, [this] {
          std::lock_guard<std::mutex> l(mutex_);
          return versions_->NewFileNumber();
        });
    // The append path locks vlog-then-mutex_ (the segment-number
    // allocator re-locks mutex_), so recovery must not call into the
    // vlog while holding mutex_ — allocate the active segment's number
    // first, then drop the lock for the (vlog-locking) calls. Nothing
    // else can touch the half-open DB yet: background work needs a
    // memtable and the GC thread starts after Recover returns.
    const uint64_t active_number = versions_->NewFileNumber();
    uint64_t max_recovered = 0;
    mutex_.unlock();
    s = vlog_->Recover(&max_recovered);
    if (s.ok()) s = vlog_->OpenActive(active_number);
    mutex_.lock();
    if (!s.ok()) return s;
  }

  // Recover in the order in which the logs were generated.
  std::sort(logs.begin(), logs.end());
  SequenceNumber max_sequence = 0;
  bool replay_stopped = false;
  for (size_t i = 0; i < logs.size(); i++) {
    if (!replay_stopped) {
      s = RecoverLogFile(logs[i], save_manifest, edit, &max_sequence,
                         &replay_stopped);
      if (!s.ok()) return s;
    }

    // The previous incarnation may not have written any MANIFEST records
    // after allocating this log number, so manually update the file
    // number allocation counter in VersionSet.
    if (versions_->LastSequence() < max_sequence) {
      versions_->SetLastSequence(max_sequence);
    }
    versions_->MarkFileNumberUsed(logs[i]);
  }

  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, bool* save_manifest,
                              VersionEdit* edit, SequenceNumber* max_sequence,
                              bool* stopped) {
  // Replay is lenient: a corrupt record is logged and skipped, never an
  // error that fails DB::Open. That holds for a fragment that fails its
  // CRC and for a CRC-valid record that does not decode as a WriteBatch,
  // which is decoded whole before any of it reaches the memtable. A
  // record whose value frames did not survive (its WAL bytes reached the
  // disk, its frames did not) ends replay, this log's and every later
  // one's, so the recovered state stays a prefix of the acked writes.
  struct LogReporter : public log::Reader::Reporter {
    obs::Logger* info_log;
    const char* fname;
    void Corruption(size_t bytes, const Status& s) override {
      obs::Log(info_log, "%s: dropping %d bytes; %s", fname,
               static_cast<int>(bytes), s.ToString().c_str());
    }
  };

  // Open the log file.
  std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<SequentialFile> file;
  Status status = env_->NewSequentialFile(fname, &file);
  if (!status.ok()) {
    return status;
  }

  // Create the log reader.
  LogReporter reporter;
  reporter.info_log = info_log_;
  reporter.fname = fname.c_str();
  log::Reader reader(file.get(), &reporter);
  obs::Log(info_log_, "recovering log #%llu",
           static_cast<unsigned long long>(log_number));

  // Read all the records and add to a memtable.
  std::string scratch;
  Slice record;
  WriteBatch batch;
  MemTable* mem = nullptr;
  int entries = 0;
  // Dumps `mem` into a level-0 table and releases it.
  auto flush = [&] {
    *save_manifest = true;
    FileMetaData meta;
    status = WriteLevel0Table(mem, edit, /*pick_level=*/false, &meta);
    if (status.ok() && meta.file_size > 0) {
      obs::Log(info_log_, "log #%llu -> table #%llu (%d entries)",
               static_cast<unsigned long long>(log_number),
               static_cast<unsigned long long>(meta.number), entries);
    }
    mem->Unref();
    mem = nullptr;
    entries = 0;
  };
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) {
      reporter.Corruption(record.size(),
                          Status::Corruption("log record too small"));
      continue;
    }
    WriteBatchInternal::SetContents(&batch, record);
    Status decoded = WriteBatchInternal::Validate(&batch);
    if (!decoded.ok()) {
      reporter.Corruption(record.size(), decoded);
      continue;
    }
    bool recovered = true;
    if (vlog_ != nullptr) {
      mutex_.unlock();  // lock order: vlog, then mutex_
      recovered = vlog_->PointersRecovered(batch);
      mutex_.lock();
    }
    if (!recovered) {
      obs::Log(info_log_,
               "EVENT wal_replay_stopped log=%llu sequence=%llu "
               "reason=value frame not recovered",
               static_cast<unsigned long long>(log_number),
               static_cast<unsigned long long>(
                   WriteBatchInternal::Sequence(&batch)));
      *stopped = true;
      break;
    }

    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_);
      mem->Ref();
    }
    status = WriteBatchInternal::InsertInto(&batch, mem);
    if (!status.ok()) {
      break;
    }
    entries += WriteBatchInternal::Count(&batch);
    const SequenceNumber last_seq = WriteBatchInternal::Sequence(&batch) +
                                    WriteBatchInternal::Count(&batch) - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      flush();
      if (!status.ok()) {
        // Reflect errors immediately so that conditions like full
        // file-systems cause the DB::Open() to fail.
        break;
      }
    }
  }

  // (LevelDB can reuse the last log file; we always roll a fresh one.)
  if (status.ok() && mem != nullptr && mem->ApproximateMemoryUsage() > 0) {
    flush();
  }
  if (mem != nullptr) mem->Unref();
  return status;
}

Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                                bool pick_level, FileMetaData* meta) {
  meta->file_size = 0;
  obs::FlushJobInfo flush_info;
  flush_info.job_id = next_job_id_.fetch_add(1, std::memory_order_relaxed);

  // A flush is a one-sub-task SCP run of the compaction executor whose
  // only sorted run is the memtable. Sequences start at 1, so a snapshot
  // of 0 drops nothing; the plan drops no tombstone, the output never
  // rotates, and no compaction.* metric counts the run.
  CompactionJobOptions job;
  job.icmp = &internal_comparator_;
  job.table = table_options_;
  job.max_output_file_size = std::numeric_limits<uint64_t>::max();
  job.smallest_snapshot = 0;
  job.memtable = mem;
  job.trace = trace_.get();
  TableSink sink(std::bind_front(&DBImpl::NewOutputTable, this),
                 std::bind_front(&DBImpl::OpenOutputTable, this));

  Status s;
  mutex_.unlock();
  // The table makes the memtable's pointers durable, so their frames
  // must be durable first (docs/VALUE_LOG.md).
  if (vlog_ != nullptr) s = vlog_->Sync();
  if (s.ok()) {
    Stopwatch wall;
    for (obs::EventListener* l : listeners_) l->OnFlushBegin(flush_info);
    StepProfile profile;
    s = CompactionExecutor(CompactionMode::kSCP)
            .Run(job, {}, {.subtasks = {SubTaskPlan{}}}, &sink, &profile);
    if (s.ok() && !sink.outputs.empty()) {  // empty memtable: no table
      const OutputMeta& out = sink.outputs[0];
      *meta = {.number = out.file_number, .file_size = out.file_size,
               .smallest = out.smallest, .largest = out.largest};
      flush_info.entries = out.entries;
    }
    if (!sink.allocated.empty()) flush_info.file_number = sink.allocated[0];
    flush_info.output_bytes = meta->file_size;
    flush_info.micros = wall.ElapsedNanos() / 1000;
    flush_info.status = s;
    for (obs::EventListener* l : listeners_) {
      l->OnFlushCompleted(flush_info);
    }
  }
  mutex_.lock();
  // A failed flush's file is collected by RemoveObsoleteFiles.
  for (uint64_t number : sink.allocated) pending_outputs_.erase(number);

  if (s.ok() && meta->file_size > 0) {
    const int level = pick_level ? versions_->picker().FlushLevel(
                                       *versions_->current(),
                                       meta->smallest.user_key(),
                                       meta->largest.user_key())
                                 : 0;
    edit->AddFile(level, meta->number, meta->file_size, meta->smallest,
                  meta->largest);
  }

  // A failed attempt is not a flush: its retry counts once it succeeds.
  if (s.ok()) {
    flush_runs_counter_->Add(1);
    flush_bytes_counter_->Add(meta->file_size);
  }
  return s;
}

Status DBImpl::NewOutputTable(uint64_t* number,
                              std::unique_ptr<WritableFile>* file) {
  MaybeFlushImmDuringCompaction();
  {
    std::lock_guard<std::mutex> l(mutex_);
    *number = versions_->NewFileNumber();
    pending_outputs_.insert(*number);
  }
  return env_->NewWritableFile(TableFileName(dbname_, *number), file);
}

Status DBImpl::OpenOutputTable(const OutputMeta& out) {
  std::shared_ptr<Table> table;
  return table_cache_->GetTable(out.file_number, out.file_size, &table);
}

Status DBImpl::CompactMemTable(std::unique_lock<std::mutex>&) {
  assert(imm_ != nullptr && !imm_flush_in_progress_);
  imm_flush_in_progress_ = true;

  // Save the contents of the memtable as a new Table.
  VersionEdit edit;
  FileMetaData meta;
  Status s = WriteLevel0Table(imm_, &edit, /*pick_level=*/true, &meta);

  if (s.ok() && shutting_down_.load(std::memory_order_acquire)) {
    s = Status::IOError("deleting DB during memtable compaction");
  }

  // Replace immutable memtable with the generated Table.
  if (s.ok()) {
    edit.SetLogNumber(logfile_number_);  // Earlier logs no longer needed
    s = versions_->LogAndApply(&edit, &mutex_);
  }

  if (s.ok()) {
    // Commit to the new state.
    imm_->Unref();
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    RemoveObsoleteFiles();
  }
  imm_flush_in_progress_ = false;
  // On failure imm_ stays pending; the caller classifies the error
  // (retry vs sticky) and the background loop re-attempts the flush.
  return s;
}

void DBImpl::MaybeFlushImmDuringCompaction() {
  if (!has_imm_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(mutex_);
  // Several sub-jobs can race here; only the first may flush (the imm_
  // check re-passes for the others while CompactMemTable is parked in
  // LogAndApply with mutex_ released).
  if (imm_ != nullptr && !imm_flush_in_progress_ && bg_error_.ok()) {
    Status s = CompactMemTable(lock);
    if (!s.ok()) {
      // Runs on an executor thread: classify here, and the background
      // loop (which still sees imm_ != nullptr) owns the re-attempt.
      HandleBackgroundFailure(s, "flush");
    }
    background_done_signal_.notify_all();
  }
}

void DBImpl::RemoveObsoleteFiles() {
  if (!bg_error_.ok()) {
    // After a background error, we don't know whether a new version may
    // or may not have been committed, so we cannot safely garbage collect.
    return;
  }

  // Make a set of all of the live files.
  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames;
  env_->GetChildren(dbname_, &filenames);  // Ignoring errors on purpose
  uint64_t number;
  FileType type;
  std::vector<std::string> files_to_delete;
  for (std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      bool keep = true;
      switch (type) {
        case kLogFile:
          keep = (number >= versions_->LogNumber());
          break;
        case kDescriptorFile:
          keep = (number >= versions_->ManifestFileNumber());
          break;
        case kTableFile:
        case kTempFile:
          keep = (live.find(number) != live.end());
          break;
        case kVlogFile:
          // The value log manages its own segment lifecycle (GC +
          // retirement sweeps, docs/VALUE_LOG.md).
        case kCurrentFile:
        case kDBLockFile:
          keep = true;
          break;
      }

      if (!keep) {
        files_to_delete.push_back(std::move(filename));
        if (type == kTableFile) {
          table_cache_->Evict(number);
        }
      }
    }
  }

  // While deleting all files unblock other threads. All files being
  // deleted have unique names which will not collide with newly created
  // files and are therefore safe to delete while allowing other threads
  // to proceed.
  mutex_.unlock();
  for (const std::string& filename : files_to_delete) {
    env_->RemoveFile(dbname_ + "/" + filename);
  }
  mutex_.lock();
}

void DBImpl::NotifyBackgroundError(const Status& s, const char* source,
                                   bool sticky) {
  obs::BackgroundErrorInfo info;
  info.status = s;
  info.source = source;
  info.attempt = bg_retry_attempts_;
  info.max_attempts = options_.max_background_retries;
  info.sticky = sticky;
  for (obs::EventListener* l : listeners_) l->OnBackgroundError(info);
}

void DBImpl::RecordBackgroundError(const Status& s, const char* source) {
  if (bg_error_.ok()) {
    bg_error_ = s;
    background_done_signal_.notify_all();
    NotifyBackgroundError(s, source, /*sticky=*/true);
    // First (and only) transition into the error state: export the trace
    // now, while the spans leading up to the failure are still in memory
    // — the clean-close path may never run.
    FlushTraceBestEffort();
  }
}

uint64_t DBImpl::BackoffMicros(int attempt) const {
  // attempt r (1-based) waits base * 2^(r-1), capped.
  uint64_t backoff = options_.background_retry_backoff_micros;
  for (int i = 1; i < attempt; i++) {
    if (backoff >= options_.background_retry_backoff_max_micros) break;
    backoff *= 2;
  }
  return std::min(backoff, options_.background_retry_backoff_max_micros);
}

void DBImpl::HandleBackgroundFailure(const Status& s, const char* source) {
  if (s.ok() || shutting_down_.load(std::memory_order_acquire)) return;
  if (!bg_error_.ok()) return;  // already sticky
  // Only I/O errors are plausibly transient (full disk, injected fault,
  // flaky device). Corruption means on-disk state is already wrong —
  // retrying re-reads the same bytes — so it is sticky immediately.
  const bool transient = s.IsIOError();
  if (transient && bg_retry_attempts_ < options_.max_background_retries) {
    bg_retry_attempts_++;
    bg_retry_pending_ = true;
    NotifyBackgroundError(s, source, /*sticky=*/false);
  } else {
    RecordBackgroundError(s, source);
  }
}

void DBImpl::SetStallCondition(obs::WriteStallCondition condition) {
  if (condition == stall_condition_) return;
  obs::WriteStallInfo info;
  info.previous = stall_condition_;
  info.condition = condition;
  stall_condition_ = condition;
  stall_state_gauge_->Set(static_cast<int64_t>(condition));
  for (obs::EventListener* l : listeners_) l->OnWriteStallChange(info);
}

std::string DBImpl::StatsReport() {
  const CompactionMetrics m = GetCompactionMetrics();
  const uint64_t written =
      m.compaction_bytes_written + flush_bytes_counter_->value();
  std::string out;
  char buf[300];
  std::snprintf(buf, sizeof(buf),
                "compactions=%llu flushes=%llu read=%.1fMB written=%.1fMB "
                "stalls=%.1fs %s\n",
                static_cast<unsigned long long>(m.compactions),
                static_cast<unsigned long long>(m.memtable_flushes),
                m.profile.input_bytes / 1048576.0, written / 1048576.0,
                m.stall_micros / 1e6, versions_->LevelSummary().c_str());
  out.append(buf);
  out.append(m.profile.ToString());
  // The registries below carry their own locks; holding mutex_ across
  // the snapshots is safe (none ever takes mutex_).
  out.append("metrics ");
  out.append(metrics_registry_.ToJson());
  out.append("\nadvisor ");
  out.append(scheduler_.AdvisorJson());
  out.append("\nscheduler ");
  out.append(scheduler_.ToJson());
  out.push_back('\n');
  return out;
}

void DBImpl::MaybeScheduleCompaction() {
  if (background_work_pending_) {
    // Already scheduled.
  } else if (shutting_down_.load(std::memory_order_acquire)) {
    // DB is being deleted; no more background compactions.
  } else if (!bg_error_.ok()) {
    // Already got an error; no more changes.
  } else if (imm_ == nullptr && manual_compaction_ == nullptr &&
             !versions_->NeedsCompaction()) {
    // No work to be done.
  } else {
    background_work_pending_ = true;
    background_work_signal_.notify_one();
  }
}

void DBImpl::BackgroundThreadMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    while (!background_work_pending_ &&
           !shutting_down_.load(std::memory_order_acquire)) {
      background_work_signal_.wait(lock);
    }
    if (shutting_down_.load(std::memory_order_acquire)) {
      break;
    }
    background_work_active_ = true;
    Status status = BackgroundCompaction(lock);
    if (!status.ok()) {
      HandleBackgroundFailure(
          status, imm_ != nullptr ? "flush" : "compaction");
    }
    background_work_active_ = false;
    background_work_pending_ = false;

    if (status.ok() && !bg_retry_pending_) {
      bg_retry_attempts_ = 0;  // healthy again: reset the retry budget
    } else if (bg_retry_pending_) {
      // A transient failure consumed one retry. Back off (interruptibly —
      // shutdown must not wait out the full delay), then re-arm the same
      // work. MaybeScheduleCompaction below sees the still-pending
      // imm_/compaction trigger and the loop re-runs it.
      bg_retry_pending_ = false;
      const uint64_t backoff = BackoffMicros(bg_retry_attempts_);
      obs::Log(info_log_,
               "EVENT bg_retry attempt=%d/%d backoff_micros=%llu",
               bg_retry_attempts_, options_.max_background_retries,
               static_cast<unsigned long long>(backoff));
      background_work_signal_.wait_for(
          lock, std::chrono::microseconds(backoff), [this] {
            return shutting_down_.load(std::memory_order_acquire);
          });
      background_work_pending_ = true;
    }

    // Previous compaction may have produced too many files in a level, so
    // reschedule another compaction if needed.
    MaybeScheduleCompaction();
    background_done_signal_.notify_all();
  }
  background_work_active_ = false;
  background_done_signal_.notify_all();
}

Status DBImpl::BackgroundCompaction(std::unique_lock<std::mutex>& lock) {
  if (imm_ != nullptr && !imm_flush_in_progress_) {
    return CompactMemTable(lock);
  }

  Compaction* c;
  bool is_manual = (manual_compaction_ != nullptr);
  InternalKey manual_end;
  if (is_manual) {
    ManualCompaction* m = manual_compaction_;
    c = versions_->picker().PickRange(versions_.get(), m->level, m->begin,
                                      m->end);
    m->done = (c == nullptr);
    if (c != nullptr) {
      manual_end = c->input(0, c->num_input_files(0) - 1)->largest;
    }
  } else {
    c = versions_->picker().Pick(versions_.get());
  }

  Status status;
  bool ran_compaction = false;
  if (c == nullptr) {
    // Nothing to do.
  } else if (c->IsTrivialMove()) {
    // Move file to the output level.
    assert(c->num_input_files(0) == 1);
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->output_level(), f->number, f->file_size,
                       f->smallest, f->largest);
    status = versions_->LogAndApply(c->edit(), &mutex_);
  } else {
    status = DoCompactionWork(lock, c);
    ran_compaction = true;
  }
  // Release the compaction's input-version ref before collecting garbage:
  // while it is held, the consumed inputs still count as live and would
  // survive until some later (possibly never-run) GC pass.
  delete c;
  if (ran_compaction) RemoveObsoleteFiles();

  if (status.ok()) {
    // Done.
  } else if (shutting_down_.load(std::memory_order_acquire)) {
    // Ignore compaction errors found during shutting down.
  } else {
    // Logged here because EVENT background_error is skipped when another
    // path already made the error sticky.
    obs::Log(info_log_, "compaction error: %s", status.ToString().c_str());
  }

  if (is_manual) {
    ManualCompaction* m = manual_compaction_;
    if (!status.ok()) {
      m->done = true;
    }
    if (!m->done) {
      // We only compacted part of the requested range. Update *m to the
      // range that is left to be compacted.
      m->tmp_storage = manual_end;
      m->begin = &m->tmp_storage;
    }
    manual_compaction_ = nullptr;
  }
  return status;
}

Status DBImpl::DoCompactionWork(std::unique_lock<std::mutex>& lock,
                                Compaction* c) {
  // Admission (docs/TUNING.md, docs/SHARDING.md): the controller picks
  // the procedure and parallelism, and the job gets its own copy of the
  // grant. Without a governor the choice runs at once; a fleet arbiter
  // may shrink it or block, so the wait runs outside mutex_. A wait
  // aborts on shutdown, and for non-manual jobs when a flush becomes
  // pending (the sole background thread must not queue while writers
  // stall on imm_). A manual job never yields: BackgroundCompaction
  // advances the manual cursor either way, so yielding would skip a
  // range.
  const int level = c->level();
  const bool manual = manual_compaction_ != nullptr;
  lock.unlock();
  ScopedGrant grant = scheduler_.Admit(level, [this, manual] {
    return shutting_down_.load(std::memory_order_acquire) ||
           (!manual && has_imm_.load(std::memory_order_acquire));
  });
  lock.lock();
  if (!grant.granted()) {
    if (shutting_down_.load(std::memory_order_acquire)) {
      return Status::IOError("deleting DB during compaction");
    }
    // Yield the slot to the pending flush; the background loop
    // re-schedules this compaction right after (`delete c` in the
    // caller releases the pinned input version).
    return Status::OK();
  }

  CompactionJobOptions base;
  base.icmp = &internal_comparator_;
  base.max_output_file_size = options_.max_file_size;
  base.subtask_bytes = options_.subtask_bytes;
  base.min_read_bytes = min_read_bytes_;
  base.table = table_options_;
  base.time_dilation = options_.compaction_time_dilation;
  base.metrics = &metrics_registry_;
  base.trace = trace_.get();
  base.smallest_snapshot = snapshots_.empty()
                               ? versions_->LastSequence()
                               : snapshots_.front()->sequence_number();
  if (vlog_ != nullptr) {
    // Dropped pointer entries mean their value-log frames just became
    // dead bytes. CreditDiscard is thread-safe (C-PPCP fires it from
    // several compute workers at once) and never touches mutex_.
    base.on_drop_entry = [this](ValueType type, const Slice& value) {
      if (type == kTypeValuePointer) vlog_->CreditDiscard(value);
    };
  }

  // c pins its input version, so the input files stay live and their
  // metadata stays put while mutex_ is released. Each input is normally
  // a cache hit: the flush or compaction that wrote it left it open.
  lock.unlock();
  std::vector<std::shared_ptr<Table>> inputs;
  Status status;
  for (int which = 0; which < 2 && status.ok(); which++) {
    for (const FileMetaData* f : c->inputs(which)) {
      std::shared_ptr<Table> t;
      status = table_cache_->GetTable(f->number, f->file_size, &t);
      if (!status.ok()) break;
      inputs.push_back(std::move(t));
      base.input_smallest_user_keys.push_back(
          f->smallest.user_key().ToString());
    }
  }

  // Outputs are protected from GC from allocation until the install. The
  // allocator first flushes a pending immutable memtable, so writers do
  // not stall for the whole of a long compaction (as LevelDB does). S7
  // opens each finished output, so the next job over it starts open.
  CompactionJob job(
      next_job_id_.fetch_add(1, std::memory_order_relaxed),
      CompactionStyleName(options_.compaction_style),
      options_.max_subcompactions, base, grant.grant(), c, std::move(inputs),
      listeners_, info_log_,
      TableSink(std::bind_front(&DBImpl::NewOutputTable, this),
                std::bind_front(&DBImpl::OpenOutputTable, this)));
  if (status.ok()) status = job.Run();
  if (job.subjobs() > 1) {
    subcompaction_jobs_counter_->Add(1);
    subcompaction_runs_counter_->Add(job.subjobs());
  }
  lock.lock();

  // The job is over (ran or failed to open inputs): hand the fleet share
  // back before the install, so a waiting shard can start compacting
  // while this one applies its version edit.
  grant.Release();

  if (status.ok() && shutting_down_.load(std::memory_order_acquire)) {
    status = Status::IOError("deleting DB during compaction");
  }

  if (status.ok()) {
    // One VersionEdit for the whole fan-out: readers see either the old
    // inputs or every new output, never a half-installed split.
    c->AddInputDeletions(c->edit());
    uint64_t output_bytes = 0;
    for (const OutputMeta& out : job.outputs()) {
      c->edit()->AddFile(c->output_level(), out.file_number, out.file_size,
                         out.smallest, out.largest);
      output_bytes += out.file_size;
    }
    status = versions_->LogAndApply(c->edit(), &mutex_);
    if (status.ok()) {
      compaction_jobs_counter_->Add(1);
      compaction_bytes_counter_->Add(output_bytes);
    }
    last_predicted_write_amp_ = c->predicted_write_amp();
  }

  // Installed or not, stop protecting every output the job allocated,
  // half-written ones included: RemoveObsoleteFiles collects the
  // uninstalled ones (on a sticky error, the next reopen's sweep). An
  // uninstalled output's reader leaves the table cache now, since the
  // sweep that would evict it does not run under a sticky error.
  for (uint64_t number : job.allocated_files()) {
    pending_outputs_.erase(number);
    if (!status.ok()) table_cache_->Evict(number);
  }

  c->ReleaseInputs();

  // The drop credits above may have pushed a segment past the GC dead
  // ratio; wake the value-log GC thread to check (NeedsGc is lock-free).
  if (vlog_gc_ != nullptr && vlog_->NeedsGc()) vlog_gc_->Wake();
  return status;
}

DBImpl::ReadView DBImpl::AcquireReadView(const Snapshot* snapshot,
                                         bool pin) {
  std::lock_guard<std::mutex> lock(mutex_);
  ReadView view;
  view.mem = mem_;
  view.imm = imm_;
  view.current = versions_->current();
  view.sequence =
      snapshot != nullptr
          ? static_cast<const SnapshotImpl*>(snapshot)->sequence_number()
          : versions_->LastSequence();
  view.mem->Ref();
  if (view.imm != nullptr) view.imm->Ref();
  view.current->Ref();
  view.pinned = pin && vlog_ != nullptr;
  if (view.pinned) view.pin = vlog_pins_.insert(view.sequence);
  return view;
}

void DBImpl::ReleaseReadView(const ReadView& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  view.mem->Unref();
  if (view.imm != nullptr) view.imm->Unref();
  view.current->Unref();
  if (view.pinned) vlog_pins_.erase(view.pin);
}

Status DBImpl::ReadView::Get(const TableReadOptions& options,
                             const LookupKey& key, std::string* value,
                             bool* is_pointer) const {
  Status s;
  if (mem->Get(key, value, &s, is_pointer) ||
      (imm != nullptr && imm->Get(key, value, &s, is_pointer))) {
    return s;
  }
  return current->Get(options, key, value, is_pointer);
}

SequenceNumber DBImpl::LastSequence() {
  std::lock_guard<std::mutex> lock(mutex_);
  return versions_->LastSequence();
}

Status DBImpl::BackgroundError() {
  std::lock_guard<std::mutex> lock(mutex_);
  return bg_error_;
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  Stopwatch op_sw;
  // Pin the read sequence so value-log GC cannot delete a retired
  // segment between us reading a pointer and resolving it.
  const ReadView view = AcquireReadView(options.snapshot, /*pin=*/true);
  TableReadOptions tro;
  tro.fill_cache = options.fill_cache;
  bool is_pointer = false;
  Status s = view.Get(tro, LookupKey(key, view.sequence), value, &is_pointer);
  if (s.ok() && is_pointer) {
    s = vlog::ResolvePointer(vlog_.get(), *value, value, options.fill_cache);
  }
  ReleaseReadView(view);
  get_micros_hist_->Observe(op_sw.ElapsedNanos() / 1e3);
  return s;
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  // Pin the read sequence while the iterator lives so value-log GC
  // cannot delete a retired segment the iterator may still resolve
  // pointers from, even after the caller releases its snapshot.
  const ReadView view = AcquireReadView(options.snapshot, /*pin=*/true);
  TableReadOptions tro;
  tro.fill_cache = options.fill_cache;
  std::vector<Iterator*> list;
  list.push_back(view.mem->NewIterator());
  if (view.imm != nullptr) list.push_back(view.imm->NewIterator());
  view.current->AddIterators(tro, &list);
  Iterator* internal_iter =
      NewMergingIterator(&internal_comparator_, list.data(),
                         static_cast<int>(list.size()));
  internal_iter->RegisterCleanup([this, view] {
    ReleaseReadView(view);
    SweepRetiredVlogSegments();
  });
  return NewDBIterator(internal_comparator_.user_comparator(), internal_iter,
                       view.sequence, vlog_.get(), options.fill_cache);
}

const Snapshot* DBImpl::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  SnapshotImpl* snapshot = new SnapshotImpl(versions_->LastSequence());
  snapshots_.push_back(snapshot);
  snapshot->pos_ = std::prev(snapshots_.end());
  return snapshot;
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const SnapshotImpl* impl = static_cast<const SnapshotImpl*>(snapshot);
    snapshots_.erase(impl->pos_);
    delete impl;
  }
  // The released snapshot may have been the last pin holding a retired
  // value-log segment alive (lock order: never call vlog_ under mutex_).
  SweepRetiredVlogSegments();
}

Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& val) {
  WriteBatch batch;
  batch.Put(key, val);
  return Write(o, &batch);
}

Status DBImpl::Delete(const WriteOptions& o, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(o, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  Status s;
  WriteMany(options, &updates, 1, &s);
  return s;
}

void DBImpl::WriteMany(const WriteOptions& options, WriteBatch* const* batches,
                       size_t n, Status* statuses) {
  if (n == 0) return;
  Stopwatch op_sw;
  Writer one;
  std::unique_ptr<Writer[]> many;
  Writer* ws = &one;
  if (n > 1) {
    many = std::make_unique<Writer[]>(n);
    ws = many.get();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  for (size_t i = 0; i < n; i++) {
    ws[i].batch = batches[i];
    ws[i].sync = options.sync;
    writers_.push_back(&ws[i]);
  }
  write_queue_depth_gauge_->Set(static_cast<int64_t>(writers_.size()));
  // Each of our writers rides a group another leader commits or, once it
  // heads the queue, leads one (which folds our later writers too).
  for (size_t i = 0; i < n; i++) {
    Writer& w = ws[i];
    while (!w.done && &w != writers_.front()) {
      w.cv.wait(lock);
    }
    if (w.done) continue;

    // We are the leader now.
    Status status = MakeRoomForWrite(lock, w.batch == nullptr);
    Writer* last_writer = &w;
    size_t group_size = 0;
    if (status.ok() && w.batch != nullptr) {
      // Fold the followers queued behind us into one group.
      WriteBatch* write_batch = BuildBatchGroup(&last_writer, &group_size);
      WriteBatchInternal::SetSequence(write_batch,
                                      versions_->LastSequence() + 1);
      status = CommitBatch(lock, write_batch, options.sync);
      if (status.ok()) {
        write_ops_counter_->Add(WriteBatchInternal::Count(write_batch));
      }
      if (write_batch == &tmp_batch_) tmp_batch_.Clear();
    }
    ReleaseWriteLeadership(last_writer, status);
    if (group_size > 0) {
      write_group_size_hist_->Observe(static_cast<double>(group_size));
    }
  }
  lock.unlock();
  for (size_t i = 0; i < n; i++) statuses[i] = ws[i].status;
  write_micros_hist_->Observe(op_sw.ElapsedNanos() / 1e3);
}

void DBImpl::AcquireWriteLeadership(Writer* w,
                                    std::unique_lock<std::mutex>& lock) {
  // A concurrent leader can fold a null-batch follower into its group and
  // mark it done; in that case re-enqueue until we come up as the leader.
  w->batch = nullptr;
  for (;;) {
    w->done = false;
    writers_.push_back(w);
    write_queue_depth_gauge_->Set(static_cast<int64_t>(writers_.size()));
    while (!w->done && w != writers_.front()) {
      w->cv.wait(lock);
    }
    if (!w->done) return;
  }
}

void DBImpl::ReleaseWriteLeadership(Writer* last, const Status& status) {
  Writer* ready;
  do {
    ready = writers_.front();
    writers_.pop_front();
    ready->status = status;
    ready->done = true;
    ready->cv.notify_one();
  } while (ready != last);
  write_queue_depth_gauge_->Set(static_cast<int64_t>(writers_.size()));
  if (!writers_.empty()) writers_.front()->cv.notify_one();
}

// REQUIRES: mutex held; writers_ non-empty; first writer has a non-null
// batch.
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer,
                                    size_t* group_size) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the original
  // write is small, limit the growth so we do not slow down the small
  // write too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *last_writer = first;
  *group_size = 1;
  auto iter = writers_.begin();
  ++iter;  // Advance past "first"
  for (; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a non-sync
      // write.
      break;
    }

    if (w->batch != nullptr) {
      size += WriteBatchInternal::ByteSize(w->batch);
      if (size > max_size) {
        // Do not make batch too big.
        break;
      }

      // Append to *result.
      if (result == first->batch) {
        // Switch to temporary batch instead of disturbing caller's batch.
        result = &tmp_batch_;
        assert(WriteBatchInternal::Count(result) == 0);
        WriteBatchInternal::Append(result, first->batch);
      }
      WriteBatchInternal::Append(result, w->batch);
      ++*group_size;
    }
    *last_writer = w;
  }
  return result;
}

namespace {

// Rewrites a write group so every Put whose value crosses the separation
// threshold becomes a value-log append + a PutPointer record; everything
// else passes through unchanged. One output record per input record, so
// the sequence/count bookkeeping of the group is preserved.
class SeparatingHandler : public WriteBatch::Handler {
 public:
  SeparatingHandler(vlog::VlogManager* vlog, size_t threshold, bool sync,
                    WriteBatch* out, std::vector<uint64_t>* touched)
      : vlog_(vlog),
        threshold_(threshold),
        sync_(sync),
        out_(out),
        touched_(touched) {}

  void Put(const Slice& key, const Slice& value) override {
    if (!status_.ok()) return;
    if (value.size() >= threshold_) {
      vlog::ValueLocation loc;
      // A group that does not sync acks its pointers with the frames
      // unsynced.
      status_ = vlog_->Add(key, value, &loc, /*acked_unsynced=*/!sync_);
      if (!status_.ok()) return;
      touched_->push_back(loc.segment);
      // A Get of a hot key usually asks for the version just written.
      vlog_->CacheValue(loc, value);
      any_ = true;
      encoded_.clear();
      vlog::EncodeValueLocation(&encoded_, loc);
      out_->PutPointer(key, Slice(encoded_));
    } else {
      out_->Put(key, value);
    }
  }
  void PutPointer(const Slice& key, const Slice& location) override {
    // Already separated (a GC rewrite, or a batch replayed through the
    // shard router): the pointer is opaque here.
    if (status_.ok()) out_->PutPointer(key, location);
  }
  void Delete(const Slice& key) override {
    if (status_.ok()) out_->Delete(key);
  }

  Status status() const { return status_; }
  bool any() const { return any_; }

 private:
  vlog::VlogManager* const vlog_;
  const size_t threshold_;
  const bool sync_;
  WriteBatch* const out_;
  std::vector<uint64_t>* const touched_;
  std::string encoded_;
  Status status_;
  bool any_ = false;
};

}  // namespace

Status DBImpl::CommitBatch(std::unique_lock<std::mutex>& lock,
                           WriteBatch* batch, bool sync) {
  const SequenceNumber last_sequence = WriteBatchInternal::Sequence(batch) +
                                       WriteBatchInternal::Count(batch) - 1;
  // The mutex can be released here: the caller is the only writer
  // allowed to touch the log and the memtable while it heads the queue
  // (same protocol as LevelDB).
  lock.unlock();
  Status status;
  bool wal_error = false;
  WriteBatch* final_batch = batch;
  std::vector<uint64_t> vlog_touched;
  std::optional<uint64_t> vlog_failures;  // read before the group's Adds
  if (vlog_ != nullptr && options_.value_separation_threshold > 0) {
    vlog_failures = vlog_->sync_failures();
    SeparatingHandler handler(vlog_.get(), options_.value_separation_threshold,
                              sync, &vlog_batch_, &vlog_touched);
    status = batch->Iterate(&handler);
    if (status.ok()) status = handler.status();
    if (!handler.any()) vlog_failures.reset();
    if (status.ok() && handler.any()) {
      WriteBatchInternal::SetSequence(&vlog_batch_,
                                      WriteBatchInternal::Sequence(batch));
      final_batch = &vlog_batch_;
    }
  }
  if (status.ok() && sync && vlog_ != nullptr) {
    // Durability order (docs/VALUE_LOG.md): the WAL sync below makes every
    // pointer record in the log durable, this group's and the unsynced
    // groups' before it, so their frames must be on stable storage first.
    // Synced before the record is added, so a failed sync fails the group
    // with the WAL untouched; its frames become dead bytes GC reclaims.
    // So does a sync that failed since the group's first Add (GC's, say):
    // it may have dropped this group's frames even if this retry works.
    status = vlog_->Sync(vlog_failures);
  }
  if (status.ok()) {
    status = log_->AddRecord(WriteBatchInternal::Contents(final_batch));
    // A failed AddRecord may have written a partial record.
    wal_error = !status.ok();
    if (status.ok() && sync) {
      status = logfile_->Sync();
      wal_error = !status.ok();
    }
    if (status.ok()) {
      status = WriteBatchInternal::InsertInto(final_batch, mem_);
    }
  }
  if (!vlog_touched.empty()) vlog_->ReleaseAppends(vlog_touched);
  lock.lock();
  if (wal_error) {
    // The state of the log is indeterminate: the record we just tried to
    // add may or may not be there, and a torn tail can make the log
    // reader drop *later* records in the same block. Freeze writes until
    // Resume() rolls the WAL (or the DB is reopened).
    RecordBackgroundError(status, "wal");
  }
  vlog_batch_.Clear();
  versions_->SetLastSequence(last_sequence);
  return status;
}

Status DBImpl::WriteAsLeader(
    const std::function<void(const ReadView&, WriteBatch*)>& fill,
    SequenceNumber* last_sequence) {
  std::unique_lock<std::mutex> lock(mutex_);
  Writer w;
  AcquireWriteLeadership(&w, lock);
  Status status = bg_error_;
  if (status.ok()) {
    // As the leader we are the only one who can advance LastSequence, so
    // the view stays the head state while `fill` runs.
    lock.unlock();
    const ReadView view = AcquireReadView(nullptr, /*pin=*/false);
    WriteBatch batch;
    fill(view, &batch);
    ReleaseReadView(view);
    lock.lock();
    if (WriteBatchInternal::Count(&batch) > 0) {
      WriteBatchInternal::SetSequence(&batch, view.sequence + 1);
      // Always synced: the value-log GC deletes the old segment once
      // this returns, so losing these records in a crash would lose the
      // only surviving copies of the values. The batch is tiny (pointers
      // only), so skipping MakeRoomForWrite cannot meaningfully overfill
      // the memtable.
      status = CommitBatch(lock, &batch, /*sync=*/true);
    }
  }
  *last_sequence = versions_->LastSequence();
  ReleaseWriteLeadership(&w, Status::OK());
  return status;
}

void DBImpl::SweepRetiredVlogSegments() {
  if (vlog_ == nullptr) return;
  // The lowest sequence a snapshot, iterator or Get still reads at.
  SequenceNumber min_pinned = kMaxSequenceNumber;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!snapshots_.empty()) {
      min_pinned = snapshots_.front()->sequence_number();
    }
    if (!vlog_pins_.empty()) {
      min_pinned = std::min(min_pinned, *vlog_pins_.begin());
    }
  }
  vlog_->SweepRetired(min_pinned);
}

Status DBImpl::CompactValueLog() {
  return vlog_gc_ != nullptr ? vlog_gc_->CompactValueLog() : Status::OK();
}

Status DBImpl::SwitchMemTable() {
  const uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  Status s =
      env_->NewWritableFile(LogFileName(dbname_, new_log_number), &lfile);
  if (!s.ok()) {
    // Avoid chewing through file number space in a tight loop.
    versions_->ReuseFileNumber(new_log_number);
    return s;
  }
  if (logfile_ != nullptr) {
    // Nothing acked is lost to a failed close (MakeRoomForWrite synced
    // the old log; after a WAL error Resume abandons it), but surface it.
    Status cs = logfile_->Close();
    if (!cs.ok()) {
      obs::Log(info_log_, "closing old WAL #%llu failed: %s",
               static_cast<unsigned long long>(logfile_number_),
               cs.ToString().c_str());
    }
  }
  logfile_ = std::move(lfile);
  logfile_number_ = new_log_number;
  log_.reset(new log::Writer(logfile_.get()));
  imm_ = mem_;
  has_imm_.store(true, std::memory_order_release);
  mem_ = new MemTable(internal_comparator_);
  mem_->Ref();
  MaybeScheduleCompaction();
  return s;
}

// REQUIRES: mutex_ is held via `lock`.
Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& lock,
                                bool force) {
  bool allow_delay = !force;
  bool vlog_synced = false;
  Status s;
  while (true) {
    if (!bg_error_.ok()) {
      // Yield previous error.
      s = bg_error_;
      break;
    } else if (allow_delay && versions_->NumLevelFiles(0) >=
                                  config::kL0_SlowdownWritesTrigger) {
      // We are getting close to hitting a hard limit on the number of L0
      // files. Rather than delaying a single write by several seconds
      // when we hit the hard limit, start delaying each individual write
      // by 1ms to reduce latency variance. This delay hands over some CPU
      // to the compaction thread in case it is sharing the same core as
      // the writer.
      SetStallCondition(obs::WriteStallCondition::kDelayed);
      Stopwatch sw;
      lock.unlock();
      env_->SleepForMicroseconds(1000);
      lock.lock();
      slowdown_micros_counter_->Add(sw.ElapsedNanos() / 1000);
      allow_delay = false;  // Do not delay a single write more than once
    } else if (!force &&
               (mem_->ApproximateMemoryUsage() <=
                options_.write_buffer_size)) {
      // There is room in current memtable.
      break;
    } else if (imm_ != nullptr) {
      // We have filled up the current memtable, but the previous one is
      // still being compacted, so we wait (the paper's "write pause").
      SetStallCondition(obs::WriteStallCondition::kStopped);
      Stopwatch sw;
      MaybeScheduleCompaction();
      background_done_signal_.wait(lock);
      pause_micros_counter_->Add(sw.ElapsedNanos() / 1000);
    } else if (versions_->NumLevelFiles(0) >= config::kL0_StopWritesTrigger) {
      // There are too many level-0 files ("write pause").
      SetStallCondition(obs::WriteStallCondition::kStopped);
      Stopwatch sw;
      MaybeScheduleCompaction();
      background_done_signal_.wait(lock);
      pause_micros_counter_->Add(sw.ElapsedNanos() / 1000);
    } else if (vlog_ != nullptr && !vlog_synced) {
      // The outgoing log's sync below makes its pointer records durable,
      // so their frames must be durable first. Lock order is vlog then
      // mutex_, so sync with mutex_ released, then re-check the state.
      // As the write leader, no other writer can add a pointer meanwhile.
      lock.unlock();
      s = vlog_->Sync();
      lock.lock();
      if (!s.ok()) break;
      vlog_synced = true;
    } else {
      // Attempt to switch to a new memtable and trigger compaction of
      // the old one. The outgoing log must be synced first: records
      // acked before the rotation are durable only once the imm_ flush
      // lands, yet a later sync=true write acks against the NEW log —
      // without this fsync, a power loss between that ack and the flush
      // would drop records a successful sync promised were safe.
      if (logfile_ != nullptr) {
        s = logfile_->Sync();
        if (!s.ok()) {
          // Same hazard as a failed sync in Write(): the old tail is
          // now indeterminate, so freeze writes until Resume() rolls
          // the WAL (or the DB is reopened).
          RecordBackgroundError(s, "wal");
          break;
        }
      }
      s = SwitchMemTable();
      if (!s.ok()) break;
      force = false;  // Do not force another compaction if have room
    }
  }
  // Whatever path ended the loop, backpressure on this writer is over.
  SetStallCondition(obs::WriteStallCondition::kNormal);
  return s;
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  // "pipelsm.vlog" is answered before taking mutex_: VlogManager has its
  // own lock and its segment-number allocator takes mutex_ (lock order is
  // vlog mutex -> mutex_, never the reverse).
  if (property == Slice("pipelsm.vlog")) {
    if (vlog_ == nullptr) return false;
    *value = vlog_->ToJson();
    return true;
  }
  // "pipelsm.cache" is also answered before taking mutex_: the caches
  // have their own (sharded) locks.
  if (property == Slice("pipelsm.cache")) {
    JsonWriter w(value);
    w.BeginObject().Key("block");
    read::WriteCacheStats(*table_options_.block_cache, &w);
    w.Key("table");
    read::WriteCacheStats(*table_cache_->store(), &w);
    w.EndObject();
    return true;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Slice in = property;
  Slice prefix("pipelsm.");
  if (!in.starts_with(prefix)) return false;
  in.remove_prefix(prefix.size());

  if (in.starts_with("num-files-at-level")) {
    in.remove_prefix(std::strlen("num-files-at-level"));
    uint64_t level;
    bool ok = ConsumeDecimalNumber(&in, &level) && in.empty();
    if (!ok || level >= config::kNumLevels) {
      return false;
    }
    char buf[100];
    std::snprintf(buf, sizeof(buf), "%d",
                  versions_->NumLevelFiles(static_cast<int>(level)));
    *value = buf;
    return true;
  } else if (in == Slice("stats")) {
    *value = StatsReport();
    return true;
  } else if (in == Slice("advisor")) {
    // The controller has its own lock; JSON per docs/OBSERVABILITY.md.
    *value = scheduler_.AdvisorJson();
    return true;
  } else if (in == Slice("scheduler")) {
    // JSON per docs/TUNING.md.
    *value = scheduler_.ToJson();
    return true;
  } else if (in == Slice("sstables")) {
    *value = versions_->current()->DebugString();
    return true;
  } else if (in == Slice("metrics")) {
    // Registry has its own lock; counters are updated by executors
    // running outside mutex_, so the snapshot is taken lock-free here.
    *value = metrics_registry_.ToJson();
    return true;
  } else if (in == Slice("compaction")) {
    // Compaction-policy snapshot (docs/COMPACTION.md): the style preset,
    // per-level file/byte/run counts, and the registry's sub-compaction
    // totals. Runs are counted by interval-stacking depth on the current
    // version.
    Version* v = versions_->current();
    JsonWriter w(value);
    w.BeginObject();
    w.Key("style").String(CompactionStyleName(options_.compaction_style));
    w.Key("tiered_run_count").Int(options_.tiered_run_count);
    w.Key("max_subcompactions").Int(options_.max_subcompactions);
    w.Key("last_predicted_write_amp").Double(last_predicted_write_amp_, 3);
    w.Key("subcompacted_jobs").Uint(subcompaction_jobs_counter_->value());
    w.Key("subcompactions_run").Uint(subcompaction_runs_counter_->value());
    w.Key("levels").BeginArray();
    for (int level = 0; level < config::kNumLevels; level++) {
      const std::vector<FileMetaData*>& files = v->files(level);
      w.BeginObject().Key("level").Int(level).Key("files").Uint(files.size());
      w.Key("bytes").Int(versions_->NumLevelBytes(level));
      w.Key("runs").Int(CountRuns(internal_comparator_, files)).EndObject();
    }
    w.EndArray().EndObject();
    return true;
  } else if (in == Slice("background-error")) {
    *value = bg_error_.ToString();  // "OK" when healthy
    return true;
  } else if (in == Slice("approximate-memory-usage")) {
    uint64_t total = mem_ != nullptr ? mem_->ApproximateMemoryUsage() : 0;
    if (imm_ != nullptr) total += imm_->ApproximateMemoryUsage();
    char buf[50];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(total));
    *value = buf;
    return true;
  }
  return false;
}

void DBImpl::GetApproximateSizes(const Range* range, int n,
                                 uint64_t* sizes) {
  const ReadView view = AcquireReadView(nullptr, /*pin=*/false);
  for (int i = 0; i < n; i++) {
    // Convert user ranges into appropriate internal key ranges.
    InternalKey k1(range[i].start, kMaxSequenceNumber, kValueTypeForSeek);
    InternalKey k2(range[i].limit, kMaxSequenceNumber, kValueTypeForSeek);
    const uint64_t start = versions_->ApproximateOffsetOf(view.current, k1);
    const uint64_t limit = versions_->ApproximateOffsetOf(view.current, k2);
    sizes[i] = (limit >= start ? limit - start : 0);
  }
  ReleaseReadView(view);
}

void DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  int levels;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    levels = versions_->picker().ManualLevels(*versions_->current(), begin,
                                              end);
  }
  // Force a rotation + flush of the current memtable, then compact every
  // level that holds data in the range.
  Write(WriteOptions(), nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    MaybeScheduleCompaction();
    while (imm_ != nullptr && bg_error_.ok()) {
      background_done_signal_.wait(lock);
    }
  }
  for (int level = 0; level < levels; level++) {
    CompactRangeAtLevel(level, begin, end);
  }
}

void DBImpl::CompactRangeAtLevel(int level, const Slice* begin,
                                 const Slice* end) {
  assert(level >= 0);
  assert(level + 1 < config::kNumLevels);

  InternalKey begin_storage, end_storage;
  if (begin != nullptr) {
    begin_storage = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
  }
  if (end != nullptr) {
    end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
  }
  ManualCompaction manual;
  manual.level = level;
  manual.done = false;
  manual.begin = begin != nullptr ? &begin_storage : nullptr;
  manual.end = end != nullptr ? &end_storage : nullptr;

  std::unique_lock<std::mutex> lock(mutex_);
  while (!manual.done && !shutting_down_.load(std::memory_order_acquire) &&
         bg_error_.ok()) {
    if (manual_compaction_ == nullptr) {  // Idle
      manual_compaction_ = &manual;
      background_work_pending_ = true;
      background_work_signal_.notify_one();
    }
    background_done_signal_.wait(lock);
    if (manual_compaction_ == &manual && !background_work_pending_ &&
        !background_work_active_ && manual.done) {
      break;
    }
  }
  if (manual_compaction_ == &manual) {
    // Cancel my manual compaction since we aborted early for some reason.
    manual_compaction_ = nullptr;
  }
}

Status DBImpl::Resume() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (bg_error_.ok()) return Status::OK();  // healthy: nothing to do
  if (shutting_down_.load(std::memory_order_acquire)) return bg_error_;

  // Only the head of the writer queue may touch log_/mem_, so recovery
  // must take that position like any write.
  Writer w;
  AcquireWriteLeadership(&w, lock);

  const Status old_error = bg_error_;
  obs::Log(info_log_, "EVENT resume_begin error=%s",
           old_error.ToString().c_str());
  bg_error_ = Status::OK();
  bg_retry_attempts_ = 0;  // fresh retry budget for the recovery flushes
  bg_retry_pending_ = false;

  // 1. Drain a stuck immutable memtable, if any.
  MaybeScheduleCompaction();
  while (imm_ != nullptr && bg_error_.ok() &&
         !shutting_down_.load(std::memory_order_acquire)) {
    background_done_signal_.wait(lock);
  }

  // 2. Roll the WAL. The old log may carry a torn tail (a failed
  // AddRecord/Sync leaves it indeterminate, and a torn record can make
  // the log reader drop later records in the same block), so no new
  // write may land in it. 3. Flush the live memtable (even when empty:
  // the flush installs the new log number in the manifest, obsoleting
  // the suspect log) so every surviving write is in a table and the
  // durability chain restarts clean in the fresh WAL.
  if (bg_error_.ok()) {
    Status s = SwitchMemTable();
    if (!s.ok()) {
      RecordBackgroundError(s, "resume");
    } else {
      while (imm_ != nullptr && bg_error_.ok() &&
             !shutting_down_.load(std::memory_order_acquire)) {
        background_done_signal_.wait(lock);
      }
    }
  }

  ReleaseWriteLeadership(&w, Status::OK());

  Status result = bg_error_;
  if (result.ok()) {
    obs::ErrorRecoveryInfo info;
    info.old_error = old_error;
    for (obs::EventListener* l : listeners_) l->OnErrorRecovered(info);
  }
  return result;
}

Status DBImpl::WaitForCompactions() {
  std::unique_lock<std::mutex> lock(mutex_);
  MaybeScheduleCompaction();
  while ((background_work_pending_ || background_work_active_ ||
          imm_ != nullptr || versions_->NeedsCompaction()) &&
         bg_error_.ok() && !shutting_down_.load(std::memory_order_acquire)) {
    MaybeScheduleCompaction();
    background_done_signal_.wait(lock);
  }
  // Final sweep now that the system is quiesced. The per-compaction GC
  // can transiently miss an obsolete file when a concurrent read still
  // pins the pre-compaction version; once the pin is dropped nothing
  // re-triggers collection until the next compaction, which may never
  // come. (No-op while a background error is sticky.)
  RemoveObsoleteFiles();
  Status result = bg_error_;
  lock.unlock();
  // Mirror sweep for retired value-log segments (outside mutex_ per the
  // vlog lock-order rule).
  SweepRetiredVlogSegments();
  return result;
}

CompactionMetrics DBImpl::GetCompactionMetrics() {
  CompactionMetrics m;
  m.profile = obs::ReadStepMetrics(&metrics_registry_);
  m.compactions = compaction_jobs_counter_->value();
  m.memtable_flushes = flush_runs_counter_->value();
  m.compaction_bytes_written = compaction_bytes_counter_->value();
  m.stall_micros =
      slowdown_micros_counter_->value() + pause_micros_counter_->value();
  return m;
}

Status DB::Open(const Options& options, const std::string& dbname,
                DB** dbptr) {
  *dbptr = nullptr;
  if (options.compaction_mode == CompactionMode::kSPPCP) {
    // DESIGN.md decision 14: the paper's S-PPCP is PCP on a striped Env.
    return Status::InvalidArgument(
        "compaction_mode S-PPCP",
        "run PCP on a striped Env instead; S1 reads a full stripe per "
        "request");
  }

  DBImpl* impl = new DBImpl(options, dbname);
  std::unique_lock<std::mutex> lock(impl->mutex_);
  VersionEdit edit;
  // Recover handles create_if_missing, error_if_exists.
  bool save_manifest = false;
  Status s = impl->Recover(&edit, &save_manifest);
  if (s.ok() && impl->mem_ == nullptr) {
    // Create new log and a corresponding memtable.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    std::unique_ptr<WritableFile> lfile;
    s = impl->env_->NewWritableFile(LogFileName(dbname, new_log_number),
                                    &lfile);
    if (s.ok()) {
      edit.SetLogNumber(new_log_number);
      impl->logfile_ = std::move(lfile);
      impl->logfile_number_ = new_log_number;
      impl->log_.reset(new log::Writer(impl->logfile_.get()));
      impl->mem_ = new MemTable(impl->internal_comparator_);
      impl->mem_->Ref();
    }
  }
  if (s.ok() && save_manifest) {
    edit.SetLogNumber(impl->logfile_number_);
    s = impl->versions_->LogAndApply(&edit, &impl->mutex_);
  } else if (s.ok()) {
    // Even when nothing was recovered, persist the new log number so a
    // reopen does not try to read a missing log.
    edit.SetLogNumber(impl->logfile_number_);
    s = impl->versions_->LogAndApply(&edit, &impl->mutex_);
  }
  if (s.ok()) {
    impl->RemoveObsoleteFiles();
    if (impl->vlog_ != nullptr) {
      // The GC thread starts only after recovery has fully succeeded, so
      // it never races the bring-up sequence above.
      impl->vlog_gc_ = std::make_unique<VlogGarbageCollector>(
          impl, &impl->scheduler_, impl->vlog_.get(), impl->options_,
          &impl->shutting_down_);
    }
    impl->MaybeScheduleCompaction();
  }
  lock.unlock();
  if (s.ok()) {
    assert(impl->mem_ != nullptr);
    *dbptr = impl;
  } else {
    delete impl;
  }
  return s;
}

Status DestroyDB(const std::string& dbname, const Options& options) {
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  std::vector<std::string> filenames;
  Status result = env->GetChildren(dbname, &filenames);
  if (!result.ok()) {
    // Ignore error in case directory does not exist.
    return Status::OK();
  }

  uint64_t number;
  FileType type;
  for (const std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      Status del = env->RemoveFile(dbname + "/" + filename);
      if (result.ok() && !del.ok()) {
        result = del;
      }
    }
  }
  // Info logs don't parse as numbered DB files; remove them explicitly
  // (errors ignored — they may simply not exist).
  env->RemoveFile(InfoLogFileName(dbname));
  env->RemoveFile(OldInfoLogFileName(dbname));
  env->RemoveDir(dbname);  // Ignore error in case dir contains other files
  return result;
}

}  // namespace pipelsm
