// Value log for key-value separation (WiscKey-style, docs/VALUE_LOG.md).
//
// Values >= Options::value_separation_threshold live in append-only,
// CRC-framed segment files (<number>.vlog); the LSM stores a fixed-size
// ValueLocation pointer (kTypeValuePointer entries) instead, so
// compaction moves 20 bytes per large value instead of the value bytes.
//
// Frame format at `offset` inside a segment:
//   crc32c  fixed32   masked CRC of everything after this field
//   klen    varint32
//   vlen    varint32
//   key     klen bytes   (kept so GC can consult the LSM for liveness)
//   value   vlen bytes
//
// Durability contract: the caller Sync()s the value log before anything
// that makes pointer records durable: every WAL sync, and every memtable
// flush. So a WAL-durable pointer always references a vlog-durable
// frame. A write group that does not sync the WAL leaves its frames
// unsynced too. If the OS writes that WAL record back before the frames,
// WAL replay stops at it (PointersRecovered). A crash can only orphan
// frames (dead bytes GC reclaims), never dangle a pointer.
//
// Value cache: resolved values live in the DB's block cache (when one is
// given), so a Get of a recently written or read value skips the device
// read. Reads fill it, and so does the write path once the value log has
// served its first read (a bulk load before any read would only churn
// it); GC re-appends do not (they copy cold values), and retiring a
// segment erases its entries. A value larger than one cache shard's
// capacity slice is never cached. A location is never reused within one
// manager, and each manager draws its own cache id, so an entry can only
// ever answer the pointer that named it.
//
// Locking: VlogManager has one internal mutex. Its file-number allocator
// callback may take the DB mutex, so code holding the DB mutex must
// never call into VlogManager (lock order: vlog mutex -> DB mutex).
// NeedsGc() is lock-free for that reason.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/db/dbformat.h"
#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

class WriteBatch;

namespace read {
class Cache;
}  // namespace read

namespace obs {
class Counter;
class Gauge;
class Logger;
class MetricsRegistry;
}  // namespace obs

namespace vlog {

// Fixed-size pointer stored as the LSM "value" of a kTypeValuePointer
// entry: which segment, where in it, and how long the frame is.
struct ValueLocation {
  uint64_t segment = 0;  // vlog file number
  uint64_t offset = 0;   // frame start within the segment
  uint32_t length = 0;   // full frame length in bytes

  bool operator==(const ValueLocation& o) const {
    return segment == o.segment && offset == o.offset && length == o.length;
  }
};

static const size_t kValueLocationSize = 20;  // fixed64 + fixed64 + fixed32

void EncodeValueLocation(std::string* dst, const ValueLocation& loc);
bool DecodeValueLocation(const Slice& src, ValueLocation* loc);

struct VlogOptions {
  // Roll the active segment once an append pushes it past this size.
  size_t segment_size = 32 * 1024 * 1024;
  // Resolved values are cached here, keyed by fixed64 cache id + fixed64
  // segment + fixed64 offset; the DB passes its block cache. Null: every
  // resolve reads the device.
  read::Cache* cache = nullptr;
};

class VlogManager {
 public:
  // `file_number_allocator` hands out fresh file numbers from the DB's
  // shared counter (it may lock the DB mutex — see the lock-order note
  // above). `metrics` and `info_log` may be null.
  VlogManager(Env* env, const std::string& dbname, const VlogOptions& options,
              obs::MetricsRegistry* metrics, obs::Logger* info_log,
              std::function<uint64_t()> file_number_allocator);
  ~VlogManager();

  VlogManager(const VlogManager&) = delete;
  VlogManager& operator=(const VlogManager&) = delete;

  // Scan the DB directory for *.vlog files: remove empty/garbage ones,
  // truncate torn tails back to the last whole frame (copy + atomic
  // rename — the Env has no truncate), sync the newest survivor (it was
  // the active segment, whose frames may never have been synced), and
  // seal the survivors. Sets *max_recovered to the largest segment
  // number kept (0 if none). Call OpenActive() next with a number above
  // *max_recovered.
  Status Recover(uint64_t* max_recovered);

  // WAL replay (DB open): false if `batch` holds a pointer
  // to a frame Recover() did not find. That is a pointer past the
  // recovered size of its segment, or into an unknown segment numbered
  // above every recovered one: its frames were never synced. An unknown
  // segment numbered below is one GC retired, and later pointers
  // supersede it. Replay stops at the first record that fails this.
  bool PointersRecovered(const WriteBatch& batch) const;

  // Create the initial active segment. Called once, after Recover().
  Status OpenActive(uint64_t number);

  // Append one value frame to the active segment (rolling it first when
  // full) and return its location. The frame is NOT durable until
  // Sync(). Also marks the frame's segment append-pending — the caller
  // must hand every returned location's segment back via
  // ReleaseAppends() once the pointer commit finished (or failed), or
  // GC will skip the segment forever. `acked_unsynced`: the caller acks
  // a pointer to the frame without syncing first (a write group that
  // does not sync the WAL), so a failed sync that covers the frame must
  // stay failed (see Sync()).
  Status Add(const Slice& key, const Slice& value, ValueLocation* loc,
             bool acked_unsynced = false);

  // Make every appended frame durable (fsync of the active segment;
  // sealed segments were synced when they were sealed). A failed sync
  // that covered a frame whose pointer was acked unsynced, or a failed
  // seal of a segment with unsynced frames, makes every later call fail:
  // a retried fsync can report success for pages the failed one dropped,
  // and no pointer to a lost frame may become durable.
  Status Sync();

  // Drop the append-pending marks taken by Add() for these segments
  // (one entry per Add, in any order).
  void ReleaseAppends(const std::vector<uint64_t>& segments);

  // Cache a value the write path just appended at `loc`, once any pointer
  // has been resolved. It enters the cache as referenced, so it outlives
  // one pass of the eviction hand. Call outside any lock; a no-op
  // without a cache.
  void CacheValue(const ValueLocation& loc, const Slice& value);

  // Resolve a pointer: bound-check it against its segment, then serve
  // the value from the cache or read + CRC-verify the frame (inserting
  // the value into the cache when `fill_cache`).
  Status Read(const ValueLocation& loc, std::string* value,
              bool fill_cache = true);

  // Credit discard statistics from a compaction-dropped pointer entry
  // (raw encoded ValueLocation bytes). Unknown segments are ignored.
  void CreditDiscard(const Slice& encoded_location);

  // Lock-free: does some sealed segment cross the GC dead ratio?
  bool NeedsGc() const {
    return needs_gc_.load(std::memory_order_acquire);
  }

  // Highest-dead-ratio sealed segment eligible for GC (not append-
  // pending, not already being collected). False if none qualifies.
  bool PickGcSegment(uint64_t* segment);

  // Every sealed (non-retired) segment, for forced full sweeps.
  std::vector<uint64_t> SealedSegments() const;

  // Seal the current active segment (if it holds any data) and open a
  // fresh one, so its bytes become collectable.
  Status RollActive();

  // Claim `segment` for one GC pass. False if it is not sealed, still
  // append-pending, or already claimed.
  bool BeginGc(uint64_t segment);

  // Sequentially decode every frame of a sealed segment. The callback's
  // non-OK status aborts the scan and is returned.
  Status ScanSegment(
      uint64_t segment,
      const std::function<Status(const Slice& key, const Slice& value,
                                 const ValueLocation& loc)>& cb);

  // End a GC pass. retire=true moves the segment to the pending-retire
  // list; its file is physically deleted by SweepRetired() once no
  // reader pinned at or below `retire_seq` remains, and the pass's
  // `rewritten_bytes` (live value bytes it re-appended and committed)
  // count toward vlog.gc_bytes_rewritten. retire=false just releases the
  // claim.
  void FinishGc(uint64_t segment, bool retire, SequenceNumber retire_seq,
                uint64_t rewritten_bytes = 0);

  // Delete retired segments whose retire sequence is <= min_pinned
  // (pass kMaxSequenceNumber when nothing is pinned).
  void SweepRetired(SequenceNumber min_pinned);

  // The pipelsm.vlog property payload.
  std::string ToJson() const;

  // Introspection for tests / stats.
  uint64_t active_segment() const;
  size_t segment_count() const;       // sealed + active (not yet retired)
  size_t pending_retire_count() const;
  uint64_t dead_bytes() const;
  uint64_t gc_runs() const { return gc_runs_.load(std::memory_order_relaxed); }
  uint64_t segments_retired() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

 private:
  enum class SegmentState { kActive, kSealed, kGcInProgress, kRetiring };

  struct SegmentInfo {
    uint64_t size = 0;       // valid frame bytes
    uint64_t dead = 0;       // bytes credited dead by discard stats
    int append_pending = 0;  // Add()s whose pointer commit is in flight
    SegmentState state = SegmentState::kSealed;
    SequenceNumber retire_seq = 0;
  };

  Status RollActiveLocked() /* REQUIRES: mu_ */;
  Status CheckLocationLocked(const ValueLocation& loc) const
      /* REQUIRES: mu_ */;
  Status EnsureReadableLocked(uint64_t segment,
                              std::shared_ptr<RandomAccessFile>* file)
      /* REQUIRES: mu_ */;
  void RecomputeGcFlagLocked() /* REQUIRES: mu_ */;
  void UpdateGaugesLocked() /* REQUIRES: mu_ */;

  Env* const env_;
  const std::string dbname_;
  const VlogOptions opts_;
  obs::Logger* const info_log_;
  const std::function<uint64_t()> next_file_number_;
  const uint64_t cache_id_;  // this manager's key prefix in opts_.cache

  mutable std::mutex mu_;
  std::map<uint64_t, SegmentInfo> segments_;  // every known segment
  uint64_t active_number_ = 0;
  std::unique_ptr<WritableFile> active_file_;
  uint64_t active_size_ = 0;
  bool active_poisoned_ = false;  // a failed append/sync: roll before reuse
  bool unsynced_ = false;
  bool acked_unsynced_ = false;  // an unsynced frame's pointer was acked
  Status sync_error_;  // a failed sync that lost acked or sealed frames;
                       // Sync() returns it from then on
  uint64_t max_recovered_ = 0;  // set by Recover()
  std::map<uint64_t, std::shared_ptr<RandomAccessFile>> readers_;
  std::string frame_scratch_;  // append encoding buffer (guarded by mu_)

  std::atomic<bool> needs_gc_{false};
  std::atomic<bool> any_resolve_{false};  // set by the first Read, never
                                          // cleared; gates CacheValue()
  std::atomic<uint64_t> gc_runs_{0};
  std::atomic<uint64_t> retired_count_{0};

  // Metrics (null when no registry was given).
  obs::Counter* appends_counter_ = nullptr;
  obs::Counter* append_bytes_counter_ = nullptr;
  obs::Counter* resolves_counter_ = nullptr;
  obs::Counter* resolve_error_counter_ = nullptr;
  obs::Counter* resolve_cache_hit_counter_ = nullptr;
  obs::Counter* rolls_counter_ = nullptr;
  obs::Counter* gc_runs_counter_ = nullptr;
  obs::Counter* gc_rewritten_counter_ = nullptr;
  obs::Counter* gc_reclaimed_counter_ = nullptr;
  obs::Counter* retired_counter_ = nullptr;
  obs::Gauge* segments_gauge_ = nullptr;
  obs::Gauge* dead_bytes_gauge_ = nullptr;
  obs::Gauge* live_bytes_gauge_ = nullptr;
  obs::Gauge* pending_retire_gauge_ = nullptr;
};

// Resolves the encoded location of a kTypeValuePointer entry into the
// value it points at (`encoded` may alias *value). A null `vlog` means
// the DB has no value log, so the pointer is Corruption, as is a
// malformed location. Shared by DB::Get and DB iterators; `fill_cache`
// is ReadOptions::fill_cache.
Status ResolvePointer(VlogManager* vlog, const Slice& encoded,
                      std::string* value, bool fill_cache);

}  // namespace vlog
}  // namespace pipelsm
