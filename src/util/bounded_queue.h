// BoundedQueue<T>: blocking MPMC queue used between pipeline stages.
//
// The paper's PCP creates "a queue for data communication between the
// adjacent stages"; bounding the depth provides backpressure so the slowest
// stage governs the pipeline's steady-state bandwidth (Eq. 2 behaviour) and
// memory stays proportional to depth × sub-task size.
//
// Close() wakes all waiters: producers then fail Push, consumers drain the
// remaining items and then fail Pop. T must be movable.
//
// Stall accounting: the queue records how long producers sat blocked in
// Push (backpressure from the downstream stage) and consumers in Pop
// (starvation by the upstream stage), plus the depth high-watermark.
// Nonzero push-stall time on a queue means the stage *after* it is the
// bottleneck; nonzero pop-stall time indicts the stage *before* it — the
// measured form of the paper's Eq. 2 max{} argument. Snapshot via stats().
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "src/util/stopwatch.h"

namespace pipelsm {

template <typename T>
class BoundedQueue {
 public:
  // All counters are cumulative since construction.
  struct Stats {
    uint64_t pushes = 0;            // items accepted
    uint64_t pops = 0;              // items handed out
    uint64_t push_stalls = 0;       // Push calls that had to block
    uint64_t pop_stalls = 0;        // Pop calls that had to block
    uint64_t push_stall_nanos = 0;  // total time producers sat blocked
    uint64_t pop_stall_nanos = 0;   // total time consumers sat blocked
    size_t depth_highwater = 0;     // max items ever queued at once
  };

  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks until there is room or the queue is closed. Returns true when
  // the item was enqueued. If the queue is (or becomes) closed, returns
  // false and `item` is NOT consumed — it still holds its value, so the
  // caller decides whether to reclaim or discard it; nothing is ever
  // silently dropped inside the queue.
  bool Push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    WaitCounted(lock, not_full_, &stats_.push_stalls,
                &stats_.push_stall_nanos,
                [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    stats_.pushes++;
    stats_.depth_highwater = std::max(stats_.depth_highwater, items_.size());
    not_empty_.notify_one();
    return true;
  }

  bool Push(const T& item) {
    T copy(item);
    return Push(std::move(copy));
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    WaitCounted(lock, not_empty_, &stats_.pop_stalls, &stats_.pop_stall_nanos,
                [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    stats_.pops++;
    not_full_.notify_one();
    return item;
  }

  // After Close(), Push fails and Pop drains then fails.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  // cv.wait(pred) that charges blocked time to *stall_nanos. The clock
  // only starts when the predicate actually fails, so the fast path costs
  // one predicate check, same as before.
  template <typename Pred>
  void WaitCounted(std::unique_lock<std::mutex>& lock,
                   std::condition_variable& cv, uint64_t* stalls,
                   uint64_t* stall_nanos, Pred pred) {
    if (pred()) return;
    ++*stalls;
    Stopwatch sw;
    cv.wait(lock, pred);
    *stall_nanos += sw.ElapsedNanos();
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  Stats stats_;
  bool closed_ = false;
};

}  // namespace pipelsm
