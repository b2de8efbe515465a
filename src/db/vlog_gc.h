// VlogGarbageCollector: value-log GC (docs/VALUE_LOG.md "Garbage
// collection"). A pass over a sealed segment is one data-movement job in
// the paper's S1-S7 terms: it scans the segment (S1 read), checks each
// frame's liveness against a DB read view (the compute step), re-appends
// the live values and commits their new pointers (S7 write), then
// retires the segment. It is admitted at the GC tier by the DB's
// compaction controller (src/compaction/scheduler.h), and reports that
// StepProfile to it.
//
// It reaches the DB only through DBImpl's read view, leader commit and
// sweep calls, each of which takes the DB mutex itself, so the GC never
// calls into the value log with that mutex held.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/db/options.h"
#include "src/vlog/vlog.h"

namespace pipelsm {

class CompactionScheduler;
class DBImpl;

class VlogGarbageCollector {
 public:
  // Starts the GC thread: it collects segments past the dead ratio when
  // woken and every 250 ms. It is separate from the DB's background
  // thread so that a GC commit waiting in the writer queue can never
  // deadlock against a stalled leader that needs the background thread
  // to make progress. `controller` is the DB's compaction controller.
  // Every argument must outlive the collector; passes in flight abort
  // once *shutting_down is set.
  VlogGarbageCollector(DBImpl* db, CompactionScheduler* controller,
                       vlog::VlogManager* vlog, const Options& options,
                       const std::atomic<bool>* shutting_down);
  // Stops and joins the GC thread.
  ~VlogGarbageCollector();

  VlogGarbageCollector(const VlogGarbageCollector&) = delete;
  VlogGarbageCollector& operator=(const VlogGarbageCollector&) = delete;

  // Wakes the GC thread (a compaction just credited discards).
  void Wake();

  // DB::CompactValueLog: seals the active segment and runs one pass over
  // every sealed segment on the calling thread.
  Status CompactValueLog();

 private:
  void ThreadMain();

  // One pass over a sealed segment: scan every frame, re-append the
  // live values, commit their new pointers, then retire the segment.
  Status CollectSegment(uint64_t segment);

  bool shutting_down() const {
    return shutting_down_->load(std::memory_order_acquire);
  }

  DBImpl* const db_;
  CompactionScheduler* const controller_;
  vlog::VlogManager* const vlog_;
  const Options& options_;
  const std::atomic<bool>* const shutting_down_;

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;   // guarded by mu_
  bool woken_ = false;  // guarded by mu_
  std::thread thread_;
};

}  // namespace pipelsm
