// Group commit: many threads writing concurrently must all commit
// atomically, with unique sequence numbers and full recoverability, and
// writers that queue behind a leader fold into one group and one WAL
// sync.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/db/db.h"
#include "src/db/write_batch.h"
#include "src/env/sim_env.h"
#include "src/obs/metrics.h"
#include "tests/db/wal_sync_latch_env.h"

namespace pipelsm {
namespace {

class GroupCommitTest : public ::testing::Test {
 protected:
  GroupCommitTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.write_buffer_size = 128 << 10;
    options_.max_file_size = 128 << 10;
  }

  void Open() {
    db_.reset();
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(GroupCommitTest, ConcurrentWritersAllCommit) {
  Open();
  const int kThreads = 8;
  const int kPerThread = 1000;

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        const std::string key =
            "w" + std::to_string(t) + "-" + std::to_string(i);
        if (!db_->Put(WriteOptions(), key, key + "-value").ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(0, failures.load());

  // Every write visible with its exact value.
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i += 37) {
      const std::string key =
          "w" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      ASSERT_EQ(key + "-value", value);
    }
  }

  // Total count is exact (sequence allocation never lost an entry).
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
  EXPECT_EQ(kThreads * kPerThread, count);
}

TEST_F(GroupCommitTest, ConcurrentWritersSurviveReopen) {
  Open();
  const int kThreads = 4;
  const int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      WriteBatch batch;
      for (int i = 0; i < kPerThread; i++) {
        batch.Put("t" + std::to_string(t) + "-" + std::to_string(i), "v");
        if (i % 10 == 9) {
          ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
          batch.Clear();
        }
      }
      ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    });
  }
  for (auto& th : threads) th.join();

  Open();  // reopen: WAL replay must reconstruct all groups
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i += 19) {
      ASSERT_TRUE(db_->Get(ReadOptions(),
                           "t" + std::to_string(t) + "-" + std::to_string(i),
                           &value)
                      .ok());
    }
  }
}

TEST_F(GroupCommitTest, MixedSyncAndAsyncWriters) {
  Open();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      WriteOptions wo;
      wo.sync = (t % 2 == 0);
      for (int i = 0; i < 300; i++) {
        ASSERT_TRUE(
            db_->Put(wo, "m" + std::to_string(t) + "-" + std::to_string(i),
                     "v")
                .ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "m0-299", &value).ok());
  ASSERT_TRUE(db_->Get(ReadOptions(), "m3-299", &value).ok());
}

// WriteMany queues its batches together: with no other writer they fold
// into one group, applied in order, and each batch gets its own status.
TEST_F(GroupCommitTest, WriteManyFoldsItsBatchesInOrder) {
  Open();
  obs::HistogramMetric* groups =
      db_->MetricsHandle()->RegisterHistogram("db.write_group_size", "");
  const uint64_t groups_before = groups->Snapshot().Num();
  WriteBatch first, second, third;
  first.Put("k", "a");
  first.Put("gone", "x");
  second.Put("k", "b");
  third.Delete("gone");
  WriteBatch* batches[] = {&first, &second, &third};
  Status statuses[3];
  db_->WriteMany(WriteOptions(), batches, 3, statuses);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();

  const Histogram sizes = groups->Snapshot();
  EXPECT_EQ(groups_before + 1, sizes.Num());
  EXPECT_EQ(3, sizes.Max());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("b", value);
  EXPECT_TRUE(db_->Get(ReadOptions(), "gone", &value).IsNotFound());
}

// The writer queue is the batcher. A sync leader parked in its WAL sync
// holds the queue head; the writers that arrive meanwhile fold into
// exactly one follow-up group, and that group pays exactly one WAL sync.
// Every wait is on state (a parked sync, the queue depth); nothing is
// timed.
TEST(GroupCommitBatchingTest, WritersQueuedBehindAParkedLeaderShareOneSync) {
  SimEnv sim;
  WalSyncLatchEnv env(&sim);
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);
  obs::MetricsRegistry* registry = db->MetricsHandle();
  obs::HistogramMetric* groups =
      registry->RegisterHistogram("db.write_group_size", "");
  const obs::Gauge* queued =
      registry->RegisterGauge("db.write_queue_depth", "");
  ASSERT_EQ(0, groups->Snapshot().Num());

  WriteOptions sync;
  sync.sync = true;
  env.Block();
  const uint64_t syncs_before = env.wal_syncs();
  std::thread leader(
      [&] { EXPECT_TRUE(db->Put(sync, "leader", "v").ok()); });
  env.WaitForParkedSync();

  constexpr int kFollowers = 8;
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; i++) {
    followers.emplace_back([&, i] {
      EXPECT_TRUE(db->Put(sync, "follower" + std::to_string(i), "v").ok());
    });
  }
  // The deadline only turns a broken queue into a failure, not a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (queued->value() < kFollowers + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(kFollowers + 1, queued->value());
  env.Unblock();
  leader.join();
  for (std::thread& t : followers) t.join();

  const Histogram sizes = groups->Snapshot();
  EXPECT_EQ(2, sizes.Num()) << "the leader's group, then one follow-up";
  EXPECT_EQ(kFollowers, sizes.Max());
  EXPECT_EQ(kFollowers + 1, sizes.Sum());
  EXPECT_EQ(2u, env.wal_syncs() - syncs_before);
  EXPECT_EQ(0, queued->value());
  std::string value;
  for (int i = 0; i < kFollowers; i++) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "follower" + std::to_string(i), &value).ok());
  }
}

}  // namespace
}  // namespace pipelsm
