// End-to-end key-value separation through the DB: writes above the
// threshold land in the value log as pointers, reads and iterators
// resolve them transparently (also through ShardedDB), GC rewrites live
// values and retires dead segments, and snapshots pin retired segments
// until released.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/db/write_batch.h"
#include "src/env/sim_env.h"
#include "src/shard/sharded_db.h"
#include "src/table/iterator.h"

namespace pipelsm {
namespace {

std::string LargeValue(int i, size_t size = 4096) {
  std::string v;
  v.reserve(size);
  while (v.size() < size) {
    v += "value-" + std::to_string(i) + "-";
  }
  v.resize(size);
  return v;
}

class VlogDbTest : public ::testing::Test {
 protected:
  VlogDbTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    options_.value_separation_threshold = 1024;
    options_.vlog_segment_size = 64 << 10;
  }

  ~VlogDbTest() override { db_.reset(); }

  void Open() {
    db_.reset();
    DB* db = nullptr;
    Status s = DB::Open(options_, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  std::string Get(const std::string& k, const Snapshot* snap = nullptr) {
    ReadOptions ro;
    ro.snapshot = snap;
    std::string value;
    Status s = db_->Get(ro, k, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return value;
  }

  std::set<std::string> VlogFilesOnDisk(const std::string& dir = "/db") {
    std::vector<std::string> children;
    env_.GetChildren(dir, &children);
    std::set<std::string> out;
    for (const std::string& c : children) {
      if (c.size() > 5 && c.compare(c.size() - 5, 5, ".vlog") == 0) {
        out.insert(c);
      }
    }
    return out;
  }

  // No leaked segments: every .vlog on disk is one the manager reports.
  void ExpectEveryVlogFileListed() {
    std::string json;
    ASSERT_TRUE(db_->GetProperty("pipelsm.vlog", &json));
    for (const std::string& f : VlogFilesOnDisk()) {
      const uint64_t number = std::stoull(f.substr(0, f.size() - 5));
      EXPECT_NE(std::string::npos,
                json.find("\"number\":" + std::to_string(number)))
          << f << " on disk but not in " << json;
    }
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(VlogDbTest, SeparatedAndInlineValuesRoundTrip) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "small", "inline-value").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "big", LargeValue(1)).ok());

  EXPECT_EQ("inline-value", Get("small"));
  EXPECT_EQ(LargeValue(1), Get("big"));

  // The big value's frame really lives in a .vlog segment.
  EXPECT_FALSE(VlogFilesOnDisk().empty());
  std::string json;
  ASSERT_TRUE(db_->GetProperty("pipelsm.vlog", &json));
  EXPECT_NE(std::string::npos, json.find("\"active_segment\""));
}

TEST_F(VlogDbTest, MixedBatchKeepsOrderAndResolves) {
  Open();
  WriteBatch batch;
  batch.Put("a", "tiny");
  batch.Put("b", LargeValue(2));
  batch.Delete("a");
  batch.Put("c", LargeValue(3));
  batch.Put("d", "small");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());

  EXPECT_EQ("NOT_FOUND", Get("a"));  // delete ordered after the put
  EXPECT_EQ(LargeValue(2), Get("b"));
  EXPECT_EQ(LargeValue(3), Get("c"));
  EXPECT_EQ("small", Get("d"));
}

TEST_F(VlogDbTest, PointersSurviveFlushAndCompaction) {
  Open();
  const int n = 100;  // ~400KB of values: several flushes + compactions
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "key" + std::to_string(i), LargeValue(i))
            .ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  for (int i = 0; i < n; i++) {
    EXPECT_EQ(LargeValue(i), Get("key" + std::to_string(i))) << i;
  }
}

TEST_F(VlogDbTest, IteratorsResolvePointersBothDirections) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", LargeValue(1)).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "small-b").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", LargeValue(3)).ok());

  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("a", it->key().ToString());
  EXPECT_EQ(LargeValue(1), it->value().ToString());
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("small-b", it->value().ToString());
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(LargeValue(3), it->value().ToString());
  it->Next();
  EXPECT_FALSE(it->Valid());

  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("c", it->key().ToString());
  EXPECT_EQ(LargeValue(3), it->value().ToString());
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("small-b", it->value().ToString());
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(LargeValue(1), it->value().ToString());
  it->Prev();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
}

TEST_F(VlogDbTest, ReopenResolvesRecoveredPointers) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "durable", LargeValue(7)).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "plain", "x").ok());
  Open();  // close + reopen
  EXPECT_EQ(LargeValue(7), Get("durable"));
  EXPECT_EQ("x", Get("plain"));

  // And values written after reopen go to a fresh segment.
  ASSERT_TRUE(db_->Put(WriteOptions(), "later", LargeValue(8)).ok());
  EXPECT_EQ(LargeValue(8), Get("later"));
}

TEST_F(VlogDbTest, CompactValueLogRewritesLiveAndDropsDead) {
  Open();
  const int n = 30;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "key" + std::to_string(i), LargeValue(i))
            .ok());
  }
  // Kill two thirds of them.
  for (int i = 0; i < n; i++) {
    if (i % 3 != 0) {
      ASSERT_TRUE(
          db_->Delete(WriteOptions(), "key" + std::to_string(i)).ok());
    }
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  ASSERT_TRUE(db_->CompactValueLog().ok()) << "full sweep";
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // Survivors resolve from their rewritten frames; victims stay dead.
  for (int i = 0; i < n; i++) {
    if (i % 3 == 0) {
      EXPECT_EQ(LargeValue(i), Get("key" + std::to_string(i))) << i;
    } else {
      EXPECT_EQ("NOT_FOUND", Get("key" + std::to_string(i))) << i;
    }
  }

  ExpectEveryVlogFileListed();
}

// Foreground overwrites race full GC sweeps. The commit re-check must
// let every overwrite win: a GC copy may only replace the pointer it
// read, never a newer one.
TEST_F(VlogDbTest, OverwritesRacingGcWin) {
  Open();
  const int kKeys = 16;
  std::atomic<bool> done{false};
  std::atomic<int> sweeps{0};
  std::thread gc([&] {
    while (!done.load(std::memory_order_acquire)) {
      Status s = db_->CompactValueLog();
      EXPECT_TRUE(s.ok()) << s.ToString();
      sweeps.fetch_add(1, std::memory_order_release);
    }
  });
  // Keep overwriting until several sweeps ran concurrently.
  int round = 0;
  for (; round < 12 || (sweeps.load() < 30 && round < 400); round++) {
    for (int k = 0; k < kKeys; k++) {
      Status s = db_->Put(WriteOptions(), "key" + std::to_string(k),
                          LargeValue(round * kKeys + k));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  done.store(true, std::memory_order_release);
  gc.join();

  EXPECT_GE(sweeps.load(), 1);
  for (int k = 0; k < kKeys; k++) {
    EXPECT_EQ(LargeValue((round - 1) * kKeys + k),
              Get("key" + std::to_string(k)))
        << k;
  }
  ExpectEveryVlogFileListed();
}

TEST_F(VlogDbTest, SnapshotPinsRetiredSegmentUntilReleased) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", LargeValue(1)).ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", LargeValue(2)).ok());

  // Full sweep: the first value's frame is dead at head, its segment is
  // rewritten/retired — but the snapshot still needs it.
  ASSERT_TRUE(db_->CompactValueLog().ok());
  EXPECT_EQ(LargeValue(1), Get("k", snap));
  EXPECT_EQ(LargeValue(2), Get("k"));

  db_->ReleaseSnapshot(snap);
  EXPECT_EQ(LargeValue(2), Get("k"));
}

// An iterator pins its read sequence: GC may retire the segments that
// hold the values it sees, but must not delete them while it lives —
// also when it reads at a snapshot the caller has since released.
TEST_F(VlogDbTest, IteratorKeepsResolvingAcrossGc) {
  Open();
  const int n = 20;
  auto key = [](int i) { return "key" + std::to_string(100 + i); };
  for (int round = 0; round < 2; round++) {
    const bool at_snapshot = round == 1;
    SCOPED_TRACE(at_snapshot ? "released snapshot" : "latest sequence");
    const int old_base = round * 2 * n;
    const int new_base = old_base + n;
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), key(i), LargeValue(old_base + i)).ok());
    }
    // Latest: the iterator opens before the overwrites. Snapshot: it
    // opens after them, reading at a snapshot taken before.
    ReadOptions ro;
    std::unique_ptr<Iterator> it;
    if (at_snapshot) {
      ro.snapshot = db_->GetSnapshot();
    } else {
      it.reset(db_->NewIterator(ro));
    }
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), key(i), LargeValue(new_base + i)).ok());
    }
    if (at_snapshot) {
      it.reset(db_->NewIterator(ro));
      db_->ReleaseSnapshot(ro.snapshot);
    }
    ASSERT_TRUE(db_->CompactValueLog().ok());

    int i = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next(), i++) {
      ASSERT_LT(i, n);
      EXPECT_EQ(key(i), it->key().ToString());
      EXPECT_EQ(LargeValue(old_base + i), it->value().ToString()) << i;
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(n, i);
    it.reset();

    for (int j = 0; j < n; j++) {
      EXPECT_EQ(LargeValue(new_base + j), Get(key(j)));
    }
    ExpectEveryVlogFileListed();
  }
}

TEST_F(VlogDbTest, SeparationOffIsUnchanged) {
  options_.value_separation_threshold = 0;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "big", LargeValue(1)).ok());
  EXPECT_EQ(LargeValue(1), Get("big"));
  EXPECT_TRUE(VlogFilesOnDisk().empty());
  std::string json;
  EXPECT_FALSE(db_->GetProperty("pipelsm.vlog", &json));
}

TEST(VlogShardedTest, SeparationWorksThroughShardedDB) {
  SimEnv env;
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.write_buffer_size = 64 << 10;
  options.value_separation_threshold = 1024;
  options.vlog_segment_size = 64 << 10;

  shard::ShardedOptions sharded;
  sharded.num_shards = 2;
  sharded.boundary_keys = {"m"};

  shard::ShardedDB* raw = nullptr;
  ASSERT_TRUE(shard::ShardedDB::Open(options, sharded, "/sdb", &raw).ok());
  std::unique_ptr<shard::ShardedDB> db(raw);

  ASSERT_TRUE(db->Put(WriteOptions(), "apple", LargeValue(1)).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "zebra", LargeValue(2)).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "small", "s").ok());

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "apple", &value).ok());
  EXPECT_EQ(LargeValue(1), value);
  ASSERT_TRUE(db->Get(ReadOptions(), "zebra", &value).ok());
  EXPECT_EQ(LargeValue(2), value);

  // Cross-shard iteration resolves pointers at every seam, both ways.
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("apple", it->key().ToString());
  EXPECT_EQ(LargeValue(1), it->value().ToString());
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("zebra", it->key().ToString());
  EXPECT_EQ(LargeValue(2), it->value().ToString());
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("small", it->key().ToString());

  // Property fans out as a JSON array, one element per shard.
  std::string json;
  ASSERT_TRUE(db->GetProperty("pipelsm.vlog", &json));
  EXPECT_EQ('[', json.front());
  EXPECT_EQ(']', json.back());

  // Full-fleet value-log sweep is exposed too.
  EXPECT_TRUE(db->CompactValueLog().ok());
  ASSERT_TRUE(db->Get(ReadOptions(), "apple", &value).ok());
  EXPECT_EQ(LargeValue(1), value);
}

}  // namespace
}  // namespace pipelsm
