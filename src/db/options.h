// Public DB options, including the paper's compaction-procedure knobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/compress/codec.h"
#include "src/util/status.h"

namespace pipelsm {

class CompactionGovernor;
class Comparator;
class Env;
class Snapshot;

namespace obs {
class EventListener;
class Logger;
}  // namespace obs

namespace read {
class Cache;
}  // namespace read

// Which compaction executor drives major compactions (paper §III):
//   kSCP   — Sequential Compaction Procedure (the LevelDB baseline),
//   kPCP   — 3-stage Pipelined Compaction Procedure,
//   kSPPCP — Storage-Parallel PCP: k executor reader threads. A DB runs
//            the paper's S-PPCP as kPCP on a striped Env (Eq. 4; DESIGN.md
//            decision 14), so DB::Open rejects this mode; the executor
//            keeps it for executor-level benches,
//   kCPPCP — Computation-Parallel PCP (k compute workers).
enum class CompactionMode { kSCP = 0, kPCP = 1, kSPPCP = 2, kCPPCP = 3 };

const char* CompactionModeName(CompactionMode mode);

// Parses a tool's --compaction value: scp, pcp or cppcp. "sppcp" is
// InvalidArgument, as DB::Open refuses kSPPCP: the paper's S-PPCP is pcp
// on a striped device.
Status ParseCompactionMode(const std::string& name, CompactionMode* mode);

// Which *policy* decides what gets compacted (docs/COMPACTION.md). The
// executor above decides HOW one job runs; the style decides WHICH files
// form a job and where the output lands — the axis Sarkar et al. show
// dominates write amplification. Each style is a preset of the one
// CompactionPicker's run caps (K per upper level, Z at the largest
// occupied level, T = tiered_run_count): leveled (1, 1), tiered (T, T),
// lazy leveling (T, 1).
//   kLeveled      — LevelDB size-ratio leveling: every level is one
//                   sorted run; level-L spills merge with the
//                   overlapping level-(L+1) files. Lowest space/read
//                   amplification, highest write amplification.
//   kTiered       — each level holds up to tiered_run_count overlapping
//                   sorted runs; a full level merges into ONE new run at
//                   the next level without rewriting resident data.
//                   Write amplification ~1 per level, read/space
//                   amplification grows with the run count.
//   kLazyLeveling — Dostoevsky's hybrid: tiered at the upper levels,
//                   leveled (single run) at the largest occupied level,
//                   so most merges stay cheap while scans and space
//                   stay bounded where most data lives.
enum class CompactionStyle { kLeveled = 0, kTiered = 1, kLazyLeveling = 2 };

const char* CompactionStyleName(CompactionStyle style);

// Parses a tool's --compaction_style value: leveled, tiered or lazy.
Status ParseCompactionStyle(const std::string& name, CompactionStyle* style);

struct Options {
  // -------- general --------
  // Comparator used to define the order of keys. Must be the same across
  // DB openings. nullptr = bytewise.
  const Comparator* comparator = nullptr;

  bool create_if_missing = false;
  bool error_if_exists = false;

  // nullptr = Env::Posix().
  Env* env = nullptr;

  // -------- shape of the tree (paper §IV-A defaults) --------
  // Amount of data to build up in the memtable before converting to a
  // sorted on-disk file. Paper default: 4 MB.
  size_t write_buffer_size = 4 * 1024 * 1024;

  // Target SSTable size. Paper default: 2 MB.
  size_t max_file_size = 2 * 1024 * 1024;

  // Uncompressed data-block size. Paper default: 4 KB.
  size_t block_size = 4 * 1024;

  // -------- read path (docs/READ_PATH.md) --------
  // Shared cache of stored data blocks (compressed payload plus trailer,
  // decoded on each hit), filter partitions and value-log values.
  // nullptr = the DB owns a lock-sharded SIEVE cache of block_cache_size
  // bytes; ShardedDB injects one fleet-wide cache here for all member
  // shards.
  read::Cache* block_cache = nullptr;

  // Capacity of the DB-owned block cache when block_cache is nullptr.
  size_t block_cache_size = 8 * 1024 * 1024;

  // Lock shards of the DB-owned block cache (rounded up to a power of
  // two; 0 = pick from hardware concurrency; 1 = single-mutex baseline).
  size_t block_cache_shards = 0;

  // When > 0, every flushed and compacted table carries a bloom filter
  // with this many bits per key (src/table/bloom.cc). 0 = no filters.
  int bloom_bits_per_key = 0;

  // Target payload bytes of one bloom-filter partition; point reads load
  // only the partition covering the probed block offset.
  size_t filter_partition_bytes = 4096;

  // S5 codec. Paper default: snappy; here the built-in LZ codec.
  CompressionType compression = CompressionType::kLzCompression;

  // -------- compaction procedure (the paper's contribution) --------
  CompactionMode compaction_mode = CompactionMode::kPCP;

  // -------- compaction policy (docs/COMPACTION.md) --------
  // Which picker preset decides the shape of every job (see the enum
  // above). Must be the same across DB openings of one directory: tiered
  // styles install overlapping runs in levels > 0 that a leveled reopen
  // would reject.
  CompactionStyle compaction_style = CompactionStyle::kLeveled;

  // Tiered / lazy-leveling: a level is merged into the next once it
  // accumulates this many sorted runs. Smaller = closer to leveled
  // (fewer runs to read through), larger = cheaper writes. Sarkar et
  // al.'s T; clamped to [2, 32].
  int tiered_run_count = 4;

  // Upper bound on key-range sub-compactions per job: the job's planned
  // sub-tasks are dealt out in up to this many contiguous groups, run in
  // parallel and installed atomically as one version edit. The effective
  // fan-out is additionally clamped by the admission grant's parallelism
  // budget (its granted compute k) and by the plan (each group must hold
  // at least two sub-tasks). 1 (default) = off; clamped to [1, 16].
  int max_subcompactions = 1;

  // Sub-task granularity in input bytes; each sub-task covers one or more
  // data blocks of the upper input. Paper sweeps 64 KB..4 MB; its best PCP
  // configuration on SSD is 512 KB. S1 reads each input table in windows
  // of max(subtask_bytes, env->PreferredReadBytes()), so small sub-tasks
  // still read a full device stripe, and a job holds at most (input
  // tables x (that window + one stripe)) of read-ahead.
  size_t subtask_bytes = 512 * 1024;

  // C-PPCP: number of compute worker threads (1 = plain PCP).
  int compute_parallelism = 1;

  // Slow-motion factor for compaction experiments on hosts with fewer
  // cores than the paper's testbed (see CompactionJobOptions::
  // time_dilation). 1.0 = real time.
  double compaction_time_dilation = 1.0;

  // -------- adaptive compaction scheduling (docs/TUNING.md) --------
  // When true, the procedure and parallelism degree of every major
  // compaction are chosen per job by the CompactionScheduler
  // (src/compaction/scheduler.h): it evaluates the paper's Eqs. 1-7 on
  // its own decayed step profile at each admission, so the executor
  // tracks whether the pipeline is currently I/O- or CPU-bound instead
  // of freezing compaction_mode at DB::Open. When false (default),
  // compaction_mode / compute_parallelism above apply verbatim to every
  // job.
  bool adaptive_compaction = false;

  // Cap on the compute workers the scheduler may choose for one job,
  // in every engine and every shard: the model's Eq. 6 saturation k is
  // clamped into [1, cap]. Set it to the cores you can spare for
  // compaction. An I/O-bound job runs PCP; its S1/S7 parallelism comes
  // from the Env's stripe (Eq. 4), not from extra threads.
  int max_compute_workers = 4;

  // Hysteresis window: the scheduler switches executor only after this
  // many consecutive admissions prescribe the same (procedure, k) that
  // differs from the current choice, so one noisy profile cannot flap
  // the pipeline shape back and forth.
  int scheduler_hysteresis_jobs = 3;

  // Completed jobs the scheduler must have digested before adaptive
  // decisions begin; until then the static compaction_mode applies (the
  // decayed profile of the first job or two is mostly noise).
  int scheduler_warmup_jobs = 2;

  // -------- fleet scheduling (docs/SHARDING.md) --------
  // When non-null, every compaction the DB's scheduler chooses, and every
  // value-log GC pass, is admitted through this governor: the background
  // thread blocks in CompactionGovernor::Admit() until the fleet grants
  // the choice, or fewer workers, within the shared compute-worker
  // budget, and releases the grant when the job finishes. ShardedDB
  // wires its CompactionArbiter here for all member shards. Must be
  // thread-safe and outlive the DB; nullptr (default) runs each choice
  // at once.
  CompactionGovernor* compaction_governor = nullptr;

  // Identity stamped on governor admission requests and EVENT lines when
  // this engine is one shard of a ShardedDB; -1 = not sharded.
  int shard_id = -1;

  // -------- key-value separation (docs/VALUE_LOG.md) --------
  // Values at least this many bytes are stored in the append-only value
  // log; the LSM keeps a fixed-size location pointer instead, so
  // compaction moves 20 bytes per large value instead of the value
  // itself. Get/iterators resolve pointers transparently. 0 (default) =
  // separation off; every value inlines into the LSM as before.
  size_t value_separation_threshold = 0;

  // Target size of one value-log segment file. The active segment rolls
  // (sync + seal + fresh file) when an append pushes it past this.
  size_t vlog_segment_size = 32 * 1024 * 1024;

  // -------- fault handling (docs/FAULT_INJECTION.md) --------
  // Transient background I/O errors (failed flush or compaction) are
  // retried with bounded exponential backoff before the DB gives up and
  // enters the sticky background-error state (writes fail, reads keep
  // working, DB::Resume() recovers without a reopen). 0 = no retries:
  // the first background failure is sticky. Corruption is never retried.
  int max_background_retries = 5;

  // Backoff before retry r is background_retry_backoff_micros * 2^(r-1),
  // capped at background_retry_backoff_max_micros.
  uint64_t background_retry_backoff_micros = 1000;
  uint64_t background_retry_backoff_max_micros = 256 * 1000;

  // -------- observability (docs/OBSERVABILITY.md) --------
  // When non-empty, the DB records per-sub-task pipeline stage spans for
  // every compaction and flush, and writes them as Chrome trace_event
  // JSON to this *host filesystem* path when the DB is closed (the trace
  // always lands on the real FS so chrome://tracing or Perfetto can load
  // it, even when the DB itself runs on a SimEnv). Pipeline metrics via
  // GetProperty("pipelsm.metrics") are collected unconditionally. The
  // trace is rewritten on every stats-dump tick (and on the first
  // background error) so a crashed run still leaves a usable file.
  std::string trace_path;

  // Event callbacks (src/obs/event_listener.h): flush and compaction
  // Begin/Completed plus write-stall transitions, fired synchronously
  // from the DB's background and writer threads. Listeners must be
  // thread-safe, outlive the DB, and never call back into it.
  std::vector<obs::EventListener*> listeners;

  // Info log sink. nullptr = the DB creates a LOG file in the DB
  // directory through its Env (rotating any previous one to LOG.old).
  // Every engine message lands here: structured one-line events, error,
  // recovery and repair messages, and periodic stats reports.
  obs::Logger* info_log = nullptr;

  // When > 0, a background thread appends the full stats report (the
  // GetProperty("pipelsm.stats") payload: counters, foreground latency
  // histograms, the advisor verdict) to the info log every
  // this-many seconds and re-exports trace_path. 0 = off.
  unsigned int stats_dump_period_sec = 0;
};

// Options that control read operations. Every block read verifies its
// checksum (S2); there is no opt-out.
struct ReadOptions {
  // Should the data read for this iteration be cached in memory?
  bool fill_cache = true;

  // If non-null, read as of the supplied snapshot (which must belong to
  // the DB that is being read and must not have been released).
  const Snapshot* snapshot = nullptr;
};

// Options that control write operations.
struct WriteOptions {
  // If true, the write will be flushed from the operating system buffer
  // cache before the write is considered complete.
  bool sync = false;
};

}  // namespace pipelsm
