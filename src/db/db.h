// DB: the public key-value store interface (the paper's LevelDB-class
// substrate with pluggable compaction procedures).
//
// Usage:
//   pipelsm::Options options;
//   options.create_if_missing = true;
//   options.compaction_mode = pipelsm::CompactionMode::kPCP;
//   pipelsm::DB* db = nullptr;
//   auto s = pipelsm::DB::Open(options, "/tmp/testdb", &db);
//   ...
//   db->Put(pipelsm::WriteOptions(), "key", "value");
//   delete db;
#pragma once

#include <cstdint>
#include <string>

#include "src/db/options.h"
#include "src/table/iterator.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace pipelsm {

class WriteBatch;

namespace obs {
class Logger;
class MetricsRegistry;
}  // namespace obs

// Abstract handle to particular state of a DB. A Snapshot is an immutable
// object and can therefore be safely accessed from multiple threads.
class Snapshot {
 protected:
  virtual ~Snapshot();
};

// A range of keys.
struct Range {
  Range() {}
  Range(const Slice& s, const Slice& l) : start(s), limit(l) {}

  Slice start;  // Included in the range
  Slice limit;  // Not included in the range
};

// Aggregate compaction metrics surfaced by DB::GetCompactionMetrics,
// read from the DB's metrics registry (docs/OBSERVABILITY.md names each
// source counter).
struct CompactionMetrics {
  StepProfile profile;           // summed over all major compaction runs
  uint64_t compactions = 0;      // major compactions installed
  uint64_t memtable_flushes = 0;
  // Output bytes of installed major compactions only (no memtable
  // flushes): divide by user bytes for the classic write-amplification
  // figure (bench_ablation's WA column; docs/COMPACTION.md).
  uint64_t compaction_bytes_written = 0;
  uint64_t stall_micros = 0;     // writer time lost to stalls/pauses
};

class DB {
 public:
  // Open the database with the specified "name". Stores a heap-allocated
  // database in *dbptr on success.
  static Status Open(const Options& options, const std::string& name,
                     DB** dbptr);

  DB() = default;
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;
  virtual ~DB();

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;
  // Applies batches[0..n) as n writes, in that order, and stores the
  // status of write i in statuses[i]. The writes join the writer queue
  // together, so they fold with each other and with concurrent writers
  // into as few WAL records (and, with options.sync, WAL syncs) as group
  // commit allows. Each batch is atomic; the n writes are not atomic as a
  // whole.
  virtual void WriteMany(const WriteOptions& options,
                         WriteBatch* const* batches, size_t n,
                         Status* statuses) = 0;

  // If the database contains an entry for "key" store the corresponding
  // value in *value and return OK. Returns NotFound if absent.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  // Heap-allocated iterator over the DB contents. Caller deletes it
  // before the DB.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // DB implementations can export properties about their state via this
  // method: "pipelsm.*" names, most of them JSON. The one reference for
  // every property and its payload is the "GetProperty strings" table in
  // docs/OBSERVABILITY.md. Returns false for an unknown property.
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // For each i in [0,n-1], store in "sizes[i]" the approximate file
  // system space used by keys in "[range[i].start .. range[i].limit)".
  // The results may not include recently-written (unflushed) data.
  virtual void GetApproximateSizes(const Range* range, int n,
                                   uint64_t* sizes) = 0;

  // Compact the underlying storage for the key range [*begin,*end]
  // (nullptr = unbounded). Blocks until done.
  virtual void CompactRange(const Slice* begin, const Slice* end) = 0;

  // Block until every queued background compaction has finished.
  virtual Status WaitForCompactions() = 0;

  // Key-value separation (docs/VALUE_LOG.md): force a full value-log GC
  // sweep — seal the active segment, then garbage-collect every sealed
  // segment regardless of its dead ratio (live values are rewritten,
  // dead segments deleted). Blocks until the sweep finishes. A no-op
  // when separation is off and the DB holds no value-log segments.
  virtual Status CompactValueLog() { return Status::OK(); }

  // Recover from the sticky background-error state without reopening the
  // DB (docs/FAULT_INJECTION.md). After transient-error retries are
  // exhausted — or after a WAL sync failure — the DB freezes writes and
  // serves reads only; once the underlying cause is fixed, Resume()
  // clears the error, drains any stuck immutable memtable, rolls the WAL
  // (the old log may carry a torn tail) and flushes the live memtable so
  // the durability chain is clean again. Returns OK when the DB is
  // writable; the error if recovery failed. A no-op when healthy.
  virtual Status Resume() = 0;

  // Aggregate compaction step timings + counters since Open, read from
  // the metrics registry.
  virtual CompactionMetrics GetCompactionMetrics() = 0;

  // The DB's metrics registry, so embedding layers (the network server)
  // can publish their instruments through the same
  // GetProperty("pipelsm.metrics") snapshot. nullptr if unsupported.
  virtual obs::MetricsRegistry* MetricsHandle() { return nullptr; }

  // The DB's info log, so embedding layers can interleave their EVENT
  // lines with the DB's. nullptr if the DB has no log.
  virtual obs::Logger* InfoLogHandle() { return nullptr; }
};

// Destroy the contents of the specified database. Be very careful.
Status DestroyDB(const std::string& name, const Options& options);

}  // namespace pipelsm
