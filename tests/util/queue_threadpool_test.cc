#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/util/bounded_queue.h"
#include "src/util/thread_pool.h"

namespace pipelsm {
namespace {

TEST(BoundedQueue, FifoSingleThread) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; i++) {
    EXPECT_TRUE(q.Push(i));
  }
  EXPECT_EQ(5u, q.size());
  for (int i = 0; i < 5; i++) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(i, *v);
  }
}

TEST(BoundedQueue, CloseDrainsThenFails) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // rejected after close
  EXPECT_EQ(1, *q.Pop());   // drains remaining items
  EXPECT_EQ(2, *q.Pop());
  EXPECT_FALSE(q.Pop().has_value());  // then signals end
}

TEST(BoundedQueue, BackpressureBlocksProducer) {
  BoundedQueue<int> q(2);
  q.Push(1);
  q.Push(2);

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.Push(3);  // must block until a Pop frees space
    third_pushed.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(1, *q.Pop());
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BoundedQueue, MpmcStress) {
  BoundedQueue<int> q(8);
  const int kProducers = 4;
  const int kItemsEach = 2000;

  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; p++) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; i++) {
        ASSERT_TRUE(q.Push(p * kItemsEach + i));
      }
    });
  }
  for (int c = 0; c < 3; c++) {
    threads.emplace_back([&] {
      while (true) {
        auto v = q.Pop();
        if (!v.has_value()) break;
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; p++) {
    threads[p].join();
  }
  q.Close();
  for (size_t i = kProducers; i < threads.size(); i++) {
    threads[i].join();
  }
  const int total = kProducers * kItemsEach;
  EXPECT_EQ(total, popped.load());
  long long expected = 0;
  for (int i = 0; i < total; i++) expected += i;
  EXPECT_EQ(expected, sum.load());
}

TEST(BoundedQueue, MoveOnlyPayload) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  q.Push(std::make_unique<int>(9));
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(9, **v);
}

TEST(BoundedQueue, PushAfterCloseRetainsItem) {
  // The Push contract: a rejected item is NOT consumed, so the producer
  // can reclaim it (nothing is silently dropped inside the queue).
  BoundedQueue<std::unique_ptr<int>> q(2);
  q.Close();
  auto item = std::make_unique<int>(31);
  EXPECT_FALSE(q.Push(std::move(item)));
  ASSERT_NE(nullptr, item);  // still ours
  EXPECT_EQ(31, *item);
  EXPECT_EQ(0u, q.stats().pushes);
}

TEST(BoundedQueue, StatsCountTraffic) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(1, *q.Pop());
  EXPECT_EQ(2, *q.Pop());
  const auto stats = q.stats();
  EXPECT_EQ(3u, stats.pushes);
  EXPECT_EQ(2u, stats.pops);
  EXPECT_EQ(3u, stats.depth_highwater);
  // Nothing ever blocked: the stall clock must not have started.
  EXPECT_EQ(0u, stats.push_stalls);
  EXPECT_EQ(0u, stats.pop_stalls);
  EXPECT_EQ(0u, stats.push_stall_nanos);
  EXPECT_EQ(0u, stats.pop_stall_nanos);
}

TEST(BoundedQueue, PushStallAccountedUnderBackpressure) {
  BoundedQueue<int> q(1);
  q.Push(1);  // queue now full

  std::thread producer([&] { ASSERT_TRUE(q.Push(2)); });
  // Hold the producer blocked long enough to accumulate measurable time.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(1, *q.Pop());
  producer.join();

  const auto stats = q.stats();
  EXPECT_EQ(1u, stats.push_stalls);
  EXPECT_GE(stats.push_stall_nanos, 10u * 1000 * 1000);  // >= 10ms blocked
  EXPECT_EQ(0u, stats.pop_stalls);  // consumer never waited
}

TEST(BoundedQueue, PopStallAccountedUnderStarvation) {
  BoundedQueue<int> q(4);

  std::thread consumer([&] { EXPECT_EQ(5, *q.Pop()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Push(5);
  consumer.join();

  const auto stats = q.stats();
  EXPECT_EQ(1u, stats.pop_stalls);
  EXPECT_GE(stats.pop_stall_nanos, 10u * 1000 * 1000);
  EXPECT_EQ(0u, stats.push_stalls);
}

TEST(BoundedQueue, DepthHighwaterTracksPeakNotCurrent) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; i++) q.Push(i);
  for (int i = 0; i < 5; i++) q.Pop();
  EXPECT_EQ(0u, q.size());
  EXPECT_EQ(5u, q.stats().depth_highwater);
  q.Push(99);
  EXPECT_EQ(5u, q.stats().depth_highwater);  // 1 < 5: peak unchanged
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(pool.Submit([&] { count.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(100, count.load());
}

TEST(ThreadPool, WaitBlocksUntilIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; i++) {
    pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(8, done.load());
}

TEST(ThreadPool, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPool, ShutdownDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; i++) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
    pool.Shutdown();  // must run every queued task before joining
  }
  EXPECT_EQ(20, count.load());
}

}  // namespace
}  // namespace pipelsm
