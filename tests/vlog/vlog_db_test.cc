// End-to-end key-value separation through the DB: writes above the
// threshold land in the value log as pointers, reads and iterators
// resolve them transparently (also through ShardedDB), resolved values
// are served from the block cache, GC rewrites live values and retires
// dead segments, and snapshots pin retired segments until released.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/db/write_batch.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/obs/metrics.h"
#include "src/read/cache.h"
#include "src/shard/sharded_db.h"
#include "src/table/iterator.h"
#include "tests/obs/json_check.h"

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

// A block cache that records the value-log traffic through it: every
// 24-byte key (cache id, segment, offset) inserted, and every hit on one.
class FrameRecordingCache final : public read::Cache {
 public:
  static constexpr size_t kFrameKeySize = 24;

  std::shared_ptr<void> Lookup(const Slice& key) override {
    std::shared_ptr<void> value = base_->Lookup(key);
    if (value != nullptr && key.size() == kFrameKeySize) frame_hits_++;
    return value;
  }
  void Insert(const Slice& key, std::shared_ptr<void> value, size_t charge,
              bool referenced) override {
    if (key.size() == kFrameKeySize) {
      std::lock_guard<std::mutex> lock(mu_);
      frame_keys_.push_back(key.ToString());
    }
    base_->Insert(key, std::move(value), charge, referenced);
  }
  void Erase(const Slice& key) override { base_->Erase(key); }
  size_t ErasePrefix(const Slice& prefix) override {
    return base_->ErasePrefix(prefix);
  }
  uint64_t NewId() override { return base_->NewId(); }
  size_t usage() const override { return base_->usage(); }
  size_t capacity() const override { return base_->capacity(); }
  size_t num_shards() const override { return base_->num_shards(); }
  uint64_t hits() const override { return base_->hits(); }
  uint64_t misses() const override { return base_->misses(); }
  uint64_t evictions() const override { return base_->evictions(); }
  void BindStats(obs::Counter* hits, obs::Counter* misses,
                 obs::Counter* evictions, obs::Gauge* usage) override {
    base_->BindStats(hits, misses, evictions, usage);
  }

  std::vector<std::string> frame_keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frame_keys_;
  }
  uint64_t frame_hits() const { return frame_hits_.load(); }

  // The (segment, offset) half of a frame key, and its cache id half.
  static std::string Location(const std::string& key) {
    return key.substr(8);
  }
  static std::string Id(const std::string& key) { return key.substr(0, 8); }

 private:
  std::unique_ptr<read::Cache> base_ = read::NewShardedLRUCache(8 << 20);
  mutable std::mutex mu_;
  std::vector<std::string> frame_keys_;
  std::atomic<uint64_t> frame_hits_{0};
};

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

  uint64_t Counter(const std::string& name) {
    return db_->MetricsHandle()->RegisterCounter(name, "")->value();
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

  // vlog.gc_bytes_rewritten counts the live value bytes of every
  // successful pass: the sum of live_bytes over the vlog_gc_end lines.
  uint64_t counted = 0;
  for (const obs::MetricSample& m : db_->MetricsHandle()->Snapshot()) {
    if (m.name == "vlog.gc_bytes_rewritten") counted = m.counter;
  }
  db_.reset();  // close: LOG complete
  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, InfoLogFileName("/db"), &log).ok());
  uint64_t logged = 0;
  std::istringstream lines(log);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("EVENT vlog_gc_end ") == std::string::npos ||
        line.find(" status=OK") == std::string::npos) {
      continue;
    }
    logged += std::stoull(line.substr(line.find("live_bytes=") + 11));
  }
  EXPECT_GE(counted, (n / 3) * 4096u) << "every survivor was rewritten";
  EXPECT_EQ(logged, counted) << log;
}

// A GC pass is a data-movement job: its StepProfile feeds the compaction
// controller, so pipelsm.advisor digests it, but it is no compaction.
// A pass that scans no frames reports no profile, so the controller
// digests at most one job per completed pass.
TEST_F(VlogDbTest, GcPassFeedsTheCompactionController) {
  Open();
  // Every value is written twice: the first round's frames are garbage
  // once the second round lands. Nothing flushes or compacts, so no
  // discard is credited and the background GC thread stays idle.
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                           LargeValue(i + round))
                      .ok());
    }
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  const auto advisor_jobs = [this] {
    std::string json;
    EXPECT_TRUE(db_->GetProperty("pipelsm.advisor", &json));
    testjson::JsonValue v;
    EXPECT_TRUE(testjson::ParseJson(json, &v)) << json;
    const testjson::JsonValue* jobs = v.Find("jobs");
    EXPECT_NE(nullptr, jobs) << json;
    return jobs != nullptr ? static_cast<uint64_t>(jobs->number_value) : 0;
  };
  const uint64_t gc_runs = Counter("vlog.gc_runs");
  const uint64_t jobs = advisor_jobs();
  const uint64_t compactions = Counter("compaction.jobs");

  ASSERT_TRUE(db_->CompactValueLog().ok());

  const uint64_t digested = advisor_jobs() - jobs;
  EXPECT_GE(digested, 1u);
  EXPECT_LE(digested, Counter("vlog.gc_runs") - gc_runs);
  EXPECT_EQ(compactions, Counter("compaction.jobs"));
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(LargeValue(i + 1), Get("key" + std::to_string(i))) << i;
  }
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

// The write path caches each separated value once the value log is being
// read, so a Get after an overwrite hits the new version, never the old.
TEST_F(VlogDbTest, OverwriteReturnsNewValueFromCache) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", LargeValue(1)).ok());
  EXPECT_EQ(LargeValue(1), Get("k"));  // device read, fills
  EXPECT_EQ(LargeValue(1), Get("k"));
  EXPECT_EQ(1u, Counter("vlog.resolve_cache_hits"));
  for (int i = 2; i <= 4; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k", LargeValue(i)).ok());
    EXPECT_EQ(LargeValue(i), Get("k"));
  }
  EXPECT_EQ(4u, Counter("vlog.resolve_cache_hits"));
  db_->CompactRange(nullptr, nullptr);
  EXPECT_EQ(LargeValue(4), Get("k"));
}

TEST_F(VlogDbTest, CacheHitReturnsDeviceReadBytes) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", LargeValue(9)).ok());
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  std::string device, first, cached;
  ASSERT_TRUE(db_->Get(no_fill, "k", &device).ok());
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &first).ok());
  EXPECT_EQ(0u, Counter("vlog.resolve_cache_hits"));
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &cached).ok());
  EXPECT_EQ(1u, Counter("vlog.resolve_cache_hits"));
  EXPECT_EQ(3u, Counter("vlog.resolves"));
  EXPECT_EQ(device, first);
  EXPECT_EQ(device, cached);
  EXPECT_EQ(LargeValue(9), cached);
}

TEST_F(VlogDbTest, GcRetirementErasesCachedValues) {
  FrameRecordingCache cache;
  options_.block_cache = &cache;
  Open();
  const int n = 20;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         LargeValue(i))
                    .ok());
  }
  for (int i = 0; i < n; i++) {
    EXPECT_EQ(LargeValue(i), Get("k" + std::to_string(i)));
  }
  const std::vector<std::string> cached = cache.frame_keys();
  ASSERT_EQ(static_cast<size_t>(n), cached.size());
  for (const std::string& key : cached) {
    EXPECT_NE(nullptr, cache.Lookup(key));
  }

  // A full sweep rewrites every live value and retires every segment that
  // held one, so none of the cached locations survives.
  ASSERT_TRUE(db_->CompactValueLog().ok());
  for (const std::string& key : cached) {
    EXPECT_EQ(nullptr, cache.Lookup(key));
  }
  for (int i = 0; i < n; i++) {
    EXPECT_EQ(LargeValue(i), Get("k" + std::to_string(i)));
  }
  db_.reset();
}

// The write path caches the value before the group commits; a failed
// value-log sync fails the (synced) write, and its cached value stays
// unreachable because no committed pointer names its location.
TEST_F(VlogDbTest, FailedVlogSyncKeepsOldValue) {
  FrameRecordingCache cache;
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  options_.block_cache = &cache;
  Open();
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db_->Put(sync_wo, "k", LargeValue(1)).ok());
  EXPECT_EQ(LargeValue(1), Get("k"));
  const size_t inserts = cache.frame_keys().size();

  fault_env.SetPathFilter(FaultOp::kSync, ".vlog");
  fault_env.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(db_->Put(sync_wo, "k", LargeValue(2)).ok());
  fault_env.ClearFaults();
  EXPECT_EQ(inserts + 1, cache.frame_keys().size()) << "the write filled";
  EXPECT_EQ(LargeValue(1), Get("k"));

  ASSERT_TRUE(db_->Put(sync_wo, "k", LargeValue(3)).ok());
  EXPECT_EQ(LargeValue(3), Get("k"));
  db_.reset();
}

// A sync = false Put acks its pointer with the frame unsynced. If the
// next vlog sync fails, the frame may be gone and a retried fsync can
// still report success, so every later synced write fails: none may make
// the acked pointer durable without its frame.
TEST_F(VlogDbTest, FailedVlogSyncAfterAnUnsyncedPutFailsLaterSyncs) {
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", LargeValue(1)).ok());
  WriteOptions sync_wo;
  sync_wo.sync = true;
  fault_env.SetPathFilter(FaultOp::kSync, ".vlog");
  fault_env.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(db_->Put(sync_wo, "b", LargeValue(2)).ok());
  fault_env.ClearFaults();

  EXPECT_FALSE(db_->Put(sync_wo, "c", LargeValue(3)).ok());
  EXPECT_FALSE(db_->Delete(sync_wo, "a").ok());
  EXPECT_EQ("NOT_FOUND", Get("b"));
  EXPECT_EQ("NOT_FOUND", Get("c"));
  db_.reset();
}

// Only what makes pointers durable syncs the value log: a sync=false Put
// leaves its frame unsynced, and a later synced Delete (which separates
// nothing itself) syncs it before the WAL, so the Put's pointer cannot
// become durable without its frame.
TEST_F(VlogDbTest, OnlySyncedGroupsSyncTheValueLog) {
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  Open();
  fault_env.SetPathFilter(FaultOp::kSync, ".vlog");
  fault_env.ClearCounters();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", LargeValue(1)).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", LargeValue(2)).ok());
  EXPECT_EQ(0u, fault_env.counter(FaultOp::kSync));

  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db_->Delete(sync_wo, "b").ok());
  EXPECT_EQ(1u, fault_env.counter(FaultOp::kSync));

  // Nothing left to sync: a second synced write issues no vlog sync.
  ASSERT_TRUE(db_->Delete(sync_wo, "a").ok());
  EXPECT_EQ(1u, fault_env.counter(FaultOp::kSync));
  db_.reset();
}

TEST_F(VlogDbTest, FillCacheFalseInsertsNothing) {
  FrameRecordingCache cache;
  options_.block_cache = &cache;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", LargeValue(1)).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", LargeValue(2)).ok());
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  std::string value;
  ASSERT_TRUE(db_->Get(no_fill, "a", &value).ok());
  EXPECT_EQ(LargeValue(1), value);
  {
    std::unique_ptr<Iterator> it(db_->NewIterator(no_fill));
    int seen = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) seen++;
    EXPECT_EQ(2, seen);
    EXPECT_TRUE(it->status().ok());
  }
  EXPECT_TRUE(cache.frame_keys().empty());

  // The default does fill, from Get and from iterators alike.
  EXPECT_EQ(LargeValue(1), Get("a"));
  EXPECT_EQ(1u, cache.frame_keys().size());
  {
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    it->Seek("b");
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(LargeValue(2), it->value().ToString());
  }
  EXPECT_EQ(2u, cache.frame_keys().size());
  db_.reset();
}

// Segment numbers restart when a DB is destroyed and re-created, so the
// same (segment, offset) names a different value; the per-instance cache
// id keeps a cache that outlives the first DB from serving its value.
TEST_F(VlogDbTest, ExternalCacheAcrossDestroyDbNeverServesOldValues) {
  FrameRecordingCache cache;
  options_.block_cache = &cache;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", LargeValue(1)).ok());
  EXPECT_EQ(LargeValue(1), Get("k"));
  db_.reset();
  ASSERT_TRUE(DestroyDB("/db", options_).ok());

  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", LargeValue(2)).ok());
  EXPECT_EQ(LargeValue(2), Get("k"));
  EXPECT_EQ(LargeValue(2), Get("k"));
  const std::vector<std::string> keys = cache.frame_keys();
  ASSERT_EQ(2u, keys.size());
  EXPECT_EQ(FrameRecordingCache::Location(keys[0]),
            FrameRecordingCache::Location(keys[1]));
  EXPECT_NE(FrameRecordingCache::Id(keys[0]),
            FrameRecordingCache::Id(keys[1]));
  db_.reset();
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

// Shards number their segments independently, so two shards sharing the
// fleet cache write values at the same (segment, offset); their cache ids
// keep each shard's values apart.
TEST(VlogShardedTest, ShardsSharingTheFleetCacheNeverCollide) {
  SimEnv env;
  FrameRecordingCache cache;
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.value_separation_threshold = 1024;
  options.block_cache = &cache;
  shard::ShardedOptions sharded;
  sharded.num_shards = 2;
  sharded.boundary_keys = {"m"};
  shard::ShardedDB* raw = nullptr;
  ASSERT_TRUE(shard::ShardedDB::Open(options, sharded, "/sdb", &raw).ok());
  std::unique_ptr<shard::ShardedDB> db(raw);

  // The first round of reads misses and fills; the writes of the second
  // round fill; every read of both rounds sees its own shard's value.
  for (int round = 0; round < 2; round++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "apple", LargeValue(round)).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "zebra", LargeValue(10 + round)).ok());
    for (int read = 0; read < 2; read++) {
      std::string value;
      ASSERT_TRUE(db->Get(ReadOptions(), "apple", &value).ok());
      EXPECT_EQ(LargeValue(round), value);
      ASSERT_TRUE(db->Get(ReadOptions(), "zebra", &value).ok());
      EXPECT_EQ(LargeValue(10 + round), value);
    }
  }
  EXPECT_EQ(6u, cache.frame_hits());
  const std::vector<std::string> keys = cache.frame_keys();
  ASSERT_EQ(4u, keys.size());
  EXPECT_EQ(FrameRecordingCache::Location(keys[0]),
            FrameRecordingCache::Location(keys[1]));
  EXPECT_NE(FrameRecordingCache::Id(keys[0]),
            FrameRecordingCache::Id(keys[1]));
}

}  // namespace
}  // namespace pipelsm
