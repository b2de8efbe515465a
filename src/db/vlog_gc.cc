#include "src/db/vlog_gc.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "src/compaction/scheduler.h"
#include "src/db/db_impl.h"
#include "src/obs/logger.h"
#include "src/util/stopwatch.h"

namespace pipelsm {

namespace {

// One live value a pass decided to rewrite: its key and its frame's old
// and new locations. The commit re-checks that old_loc is still the
// key's current pointer before installing new_loc.
struct GcRewrite {
  std::string key;
  vlog::ValueLocation old_loc;
  vlog::ValueLocation new_loc;
};

// Whether `key`'s newest entry in `view` is a pointer to `loc`.
bool PointsAt(const DBImpl::ReadView& view, const Slice& key,
              const vlog::ValueLocation& loc) {
  std::string raw;
  bool is_pointer = false;
  vlog::ValueLocation cur;
  return view.Get(TableReadOptions(), LookupKey(key, view.sequence), &raw,
                  &is_pointer)
             .ok() &&
         is_pointer && vlog::DecodeValueLocation(Slice(raw), &cur) &&
         cur == loc;
}

}  // namespace

VlogGarbageCollector::VlogGarbageCollector(
    DBImpl* db, CompactionScheduler* controller, vlog::VlogManager* vlog,
    const Options& options, const std::atomic<bool>* shutting_down)
    : db_(db),
      controller_(controller),
      vlog_(vlog),
      options_(options),
      shutting_down_(shutting_down) {
  thread_ = std::thread([this] { ThreadMain(); });
}

VlogGarbageCollector::~VlogGarbageCollector() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void VlogGarbageCollector::Wake() {
  std::lock_guard<std::mutex> lock(mu_);
  woken_ = true;
  wake_.notify_one();
}

void VlogGarbageCollector::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Woken by compactions that credited discards; the timeout catches
    // credits from CreditDiscard paths with nobody to signal.
    wake_.wait_for(lock, std::chrono::milliseconds(250),
                   [this] { return stop_ || woken_; });
    if (stop_) break;
    woken_ = false;
    lock.unlock();
    if (db_->BackgroundError().ok() && vlog_->NeedsGc()) {
      uint64_t segment;
      // A failed pass already logged its status on its vlog_gc_end line.
      while (!shutting_down() && vlog_->PickGcSegment(&segment)) {
        if (!CollectSegment(segment).ok()) break;
      }
      db_->SweepRetiredVlogSegments();
    }
    lock.lock();
  }
}

Status VlogGarbageCollector::CompactValueLog() {
  Status s = vlog_->RollActive();
  if (!s.ok()) return s;
  for (uint64_t segment : vlog_->SealedSegments()) {
    if (shutting_down()) break;
    Status pass = CollectSegment(segment);
    if (s.ok()) s = pass;
  }
  db_->SweepRetiredVlogSegments();
  return s;
}

Status VlogGarbageCollector::CollectSegment(uint64_t segment) {
  if (!vlog_->BeginGc(segment)) return Status::OK();

  obs::Log(db_->InfoLogHandle(), "EVENT vlog_gc_begin segment=%llu",
           static_cast<unsigned long long>(segment));

  // GC competes for the same fleet worker budget as compactions, at the
  // lowest admission tier (request.is_gc — see src/shard/arbiter.cc).
  ScopedGrant grant =
      controller_->AdmitGc([this] { return shutting_down(); });
  if (!grant.granted()) {
    vlog_->FinishGc(segment, false, 0);
    return Status::OK();
  }

  // A view of the current state for the liveness prefilter. The
  // prefilter only rejects frames that are already dead at its sequence
  // (dead entries never come back to life); survivors are re-checked
  // authoritatively at commit time under writer-queue leadership.
  const DBImpl::ReadView view = db_->AcquireReadView(nullptr, /*pin=*/false);

  // GC is a data-movement job like any compaction, so it reports a
  // StepProfile to the compaction controller: the segment scan is S1
  // READ, the per-frame liveness checks are its (small) compute, the
  // copies + sync + pointer commit are S7 WRITE. On a separated workload
  // GC moves the value bytes compaction no longer touches, and folding
  // its profile in is what lets the controller's regime verdict track
  // where the machine's work actually went.
  std::vector<GcRewrite> rewrites;
  std::vector<uint64_t> touched;
  uint64_t live_bytes = 0;
  uint64_t scanned_bytes = 0;
  uint64_t liveness_nanos = 0;
  uint64_t append_nanos = 0;
  Stopwatch pass_timer;
  Status s = vlog_->ScanSegment(
      segment, [&](const Slice& key, const Slice& value,
                   const vlog::ValueLocation& loc) -> Status {
        if (shutting_down()) {
          return Status::IOError("deleting DB during vlog GC");
        }
        scanned_bytes += key.size() + value.size() + 10;  // ≈ frame header
        Stopwatch step;
        const bool live = PointsAt(view, key, loc);
        liveness_nanos += step.ElapsedNanos();
        if (!live) return Status::OK();  // dead: deleted or overwritten
        GcRewrite rw;
        rw.key.assign(key.data(), key.size());
        rw.old_loc = loc;
        step.Restart();
        Status add = vlog_->Add(key, value, &rw.new_loc);
        append_nanos += step.ElapsedNanos();
        if (!add.ok()) return add;
        touched.push_back(rw.new_loc.segment);
        live_bytes += value.size();
        rewrites.push_back(std::move(rw));
        return Status::OK();
      });
  const uint64_t scan_nanos = pass_timer.ElapsedNanos();

  // The copies must be durable before their pointers can commit (same
  // order as the foreground write path).
  Stopwatch write_timer;
  if (s.ok() && !rewrites.empty()) s = vlog_->Sync();

  // Install the new pointers. The commit re-checks each rewrite's old
  // pointer is still current, so a foreground overwrite that raced the
  // scan always wins. A copy that lost the race is dead on arrival in
  // its new segment; crediting it keeps that segment's stats true.
  SequenceNumber commit_seq = 0;
  if (s.ok()) {
    if (rewrites.empty()) {
      // Whole segment dead: safe to retire once readers pinned at or
      // below the current last sequence are gone.
      commit_seq = db_->LastSequence();
    } else {
      std::string encoded;
      s = db_->WriteAsLeader(
          [&](const DBImpl::ReadView& head, WriteBatch* batch) {
            for (const GcRewrite& rw : rewrites) {
              encoded.clear();
              vlog::EncodeValueLocation(&encoded, rw.new_loc);
              if (PointsAt(head, rw.key, rw.old_loc)) {
                batch->PutPointer(rw.key, Slice(encoded));
              } else {
                vlog_->CreditDiscard(Slice(encoded));
              }
            }
          },
          &commit_seq);
    }
  }
  const uint64_t commit_nanos = write_timer.ElapsedNanos();

  if (s.ok() && scanned_bytes > 0) {
    StepProfile profile;
    profile.wall_nanos = pass_timer.ElapsedNanos();
    profile.input_bytes = scanned_bytes;
    profile.output_bytes = live_bytes;
    profile.subtasks =
        std::max<uint64_t>(1, scanned_bytes / options_.subtask_bytes);
    // The scan interleaves frame reads with liveness checks and live-copy
    // appends; subtract those to leave S1's share, and classify the
    // per-frame liveness lookups as the merge-analog compute step.
    const uint64_t overlap = liveness_nanos + append_nanos;
    profile.AddStep(kStepRead, scan_nanos > overlap ? scan_nanos - overlap : 0,
                    scanned_bytes);
    profile.AddStep(kStepSort, liveness_nanos, scanned_bytes);
    profile.AddStep(kStepWrite, append_nanos + commit_nanos, live_bytes);
    controller_->AddJob(profile);
  }

  if (!touched.empty()) vlog_->ReleaseAppends(touched);
  db_->ReleaseReadView(view);

  vlog_->FinishGc(segment, s.ok(), commit_seq, live_bytes);
  obs::Log(db_->InfoLogHandle(),
           "EVENT vlog_gc_end segment=%llu live_values=%zu "
           "live_bytes=%llu status=%s",
           static_cast<unsigned long long>(segment), rewrites.size(),
           static_cast<unsigned long long>(live_bytes),
           s.ToString().c_str());
  return s;
}

}  // namespace pipelsm
