// ThreadPool: fixed-size worker pool. Its users are the server's worker
// pumps (src/server/server.cc) and ShardedDB's per-shard write fan-out
// (src/shard/sharded_db.cc).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pipelsm {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  // Blocks until every queued and running task has finished.
  void Wait();

  // Stops accepting tasks, drains the queue, joins workers.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace pipelsm
