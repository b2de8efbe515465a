// End-to-end DB tests: write/read/delete/scan across memtable rotations
// and background compactions, for every compaction executor.
#include "src/db/db.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/db/dbformat.h"
#include "src/db/write_batch.h"
#include "src/env/sim_env.h"
#include "src/workload/generator.h"
#include "tests/db/executor_matrix.h"

namespace pipelsm {
namespace {

class DBTest : public ::testing::TestWithParam<CompactionMode> {
 protected:
  DBTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.compaction_mode = test::DbExecutor(GetParam());
    options_.compute_parallelism =
        GetParam() == CompactionMode::kCPPCP ? 3 : 1;
    // Small shapes so compactions actually trigger in-test.
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    options_.subtask_bytes = 16 << 10;
  }

  ~DBTest() override { Close(); }

  void Open() {
    Close();
    DB* db = nullptr;
    Status s = DB::Open(options_, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void Close() { db_.reset(); }

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }

  std::string Get(const std::string& k) {
    std::string value;
    Status s = db_->Get(ReadOptions(), k, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return value;
  }

  SimEnv env_{test::DbDevice(GetParam())};
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBTest, PutGet) {
  Open();
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  EXPECT_EQ("NOT_FOUND", Get("bar"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
}

TEST_P(DBTest, DeleteHidesValue) {
  Open();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  EXPECT_EQ("NOT_FOUND", Get("k"));
  ASSERT_TRUE(Put("k", "v2").ok());
  EXPECT_EQ("v2", Get("k"));
}

TEST_P(DBTest, EmptyValueAndEmptyishKeys) {
  Open();
  ASSERT_TRUE(Put("empty-value", "").ok());
  EXPECT_EQ("", Get("empty-value"));
  std::string binary_key("\x00\x01\xff", 3);
  ASSERT_TRUE(Put(binary_key, "bin").ok());
  EXPECT_EQ("bin", Get(binary_key));
}

TEST_P(DBTest, WriteBatchIsAtomicallyVisible) {
  Open();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
}

TEST_P(DBTest, ManyWritesSurviveCompactions) {
  Open();
  WorkloadGenerator gen(4000, 16, 100, KeyOrder::kRandom);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(Put(gen.Key(i), gen.Value(i)).ok()) << i;
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // Compactions must have actually run given the tiny write buffer.
  CompactionMetrics m = db_->GetCompactionMetrics();
  EXPECT_GT(m.memtable_flushes, 0u);

  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_EQ(gen.Value(i), Get(gen.Key(i))) << "key index " << i;
  }
}

TEST_P(DBTest, OverwritesKeepNewestAcrossCompactions) {
  Open();
  WorkloadGenerator gen(800, 16, 64, KeyOrder::kSequential);
  for (int round = 0; round < 4; round++) {
    for (uint64_t i = 0; i < gen.num_entries(); i++) {
      ASSERT_TRUE(
          Put(gen.Key(i), "round" + std::to_string(round) + "-" +
                              std::to_string(i))
              .ok());
    }
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    EXPECT_EQ("round3-" + std::to_string(i), Get(gen.Key(i)));
  }
}

TEST_P(DBTest, IteratorSeesSortedLiveView) {
  Open();
  std::map<std::string, std::string> expected;
  WorkloadGenerator gen(1500, 16, 50, KeyOrder::kRandom);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(Put(gen.Key(i), gen.Value(i)).ok());
    expected[gen.Key(i)] = gen.Value(i);
  }
  // Delete a subset.
  int d = 0;
  for (auto it = expected.begin(); it != expected.end() && d < 200;) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), it->first).ok());
    it = expected.erase(it);
    ++d;
    if (it != expected.end()) ++it;  // skip one, delete next
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto model = expected.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++model) {
    ASSERT_NE(expected.end(), model);
    EXPECT_EQ(model->first, iter->key().ToString());
    EXPECT_EQ(model->second, iter->value().ToString());
  }
  EXPECT_EQ(expected.end(), model);
  EXPECT_TRUE(iter->status().ok());
}

TEST_P(DBTest, IteratorSeekAndReverse) {
  Open();
  for (char c = 'a'; c <= 'z'; c++) {
    ASSERT_TRUE(Put(std::string(1, c), std::string(1, c)).ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->Seek("m");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("m", iter->key().ToString());
  iter->Prev();
  EXPECT_EQ("l", iter->key().ToString());
  iter->SeekToLast();
  EXPECT_EQ("z", iter->key().ToString());
  std::string reverse;
  for (; iter->Valid(); iter->Prev()) reverse += iter->key().ToString();
  EXPECT_EQ("zyxwvutsrqponmlkjihgfedcba", reverse);
}

TEST_P(DBTest, SnapshotIsolation) {
  Open();
  ASSERT_TRUE(Put("k", "before").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "after").ok());
  ASSERT_TRUE(Put("new-key", "x").ok());

  ReadOptions ro;
  ro.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(ro, "k", &value).ok());
  EXPECT_EQ("before", value);
  EXPECT_TRUE(db_->Get(ro, "new-key", &value).IsNotFound());

  // Snapshot survives compactions.
  WorkloadGenerator gen(2000, 16, 100, KeyOrder::kRandom);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(Put(gen.Key(i), gen.Value(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  ASSERT_TRUE(db_->Get(ro, "k", &value).ok());
  EXPECT_EQ("before", value);

  db_->ReleaseSnapshot(snap);
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("after", value);
}

TEST_P(DBTest, CompactRangePushesDataDown) {
  Open();
  WorkloadGenerator gen(3000, 16, 100, KeyOrder::kRandom);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(Put(gen.Key(i), gen.Value(i)).ok());
  }
  db_->CompactRange(nullptr, nullptr);

  std::string l0;
  ASSERT_TRUE(db_->GetProperty("pipelsm.num-files-at-level0", &l0));
  EXPECT_EQ("0", l0);

  for (uint64_t i = 0; i < gen.num_entries(); i += 97) {
    ASSERT_EQ(gen.Value(i), Get(gen.Key(i)));
  }
}

TEST_P(DBTest, GetProperty) {
  Open();
  std::string value;
  EXPECT_TRUE(db_->GetProperty("pipelsm.num-files-at-level0", &value));
  EXPECT_TRUE(db_->GetProperty("pipelsm.stats", &value));
  EXPECT_TRUE(db_->GetProperty("pipelsm.sstables", &value));
  EXPECT_TRUE(db_->GetProperty("pipelsm.approximate-memory-usage", &value));
  EXPECT_FALSE(db_->GetProperty("pipelsm.no-such-property", &value));
  EXPECT_FALSE(db_->GetProperty("unprefixed", &value));
}

TEST_P(DBTest, OpenMissingDbFailsWithoutCreateFlag) {
  Options opt = options_;
  opt.create_if_missing = false;
  DB* db = nullptr;
  Status s = DB::Open(opt, "/nonexistent", &db);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(nullptr, db);
}

TEST_P(DBTest, ErrorIfExists) {
  Open();
  Close();
  Options opt = options_;
  opt.error_if_exists = true;
  DB* db = nullptr;
  Status s = DB::Open(opt, "/db", &db);
  EXPECT_FALSE(s.ok());
}

TEST_P(DBTest, DestroyDbRemovesFiles) {
  Open();
  ASSERT_TRUE(Put("a", "b").ok());
  Close();
  ASSERT_TRUE(DestroyDB("/db", options_).ok());
  std::vector<std::string> children;
  env_.GetChildren("/db", &children);
  EXPECT_TRUE(children.empty());
}

// The paper's S-PPCP is PCP on a striped Env (DESIGN.md decision 14): the
// DB refuses the reader-thread executor, names the replacement, and
// leaves nothing behind; the same options with PCP open.
TEST(DBOpenTest, SppcpModeIsRejected) {
  SimEnv env(test::DbDevice(CompactionMode::kSPPCP));
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.compaction_mode = CompactionMode::kSPPCP;
  DB* db = nullptr;
  Status s = DB::Open(options, "/db", &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(nullptr, db);
  EXPECT_NE(std::string::npos, s.ToString().find("PCP on a striped Env"))
      << s.ToString();
  EXPECT_FALSE(env.FileExists("/db/CURRENT"));

  options.compaction_mode = CompactionMode::kPCP;
  s = DB::Open(options, "/db", &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  delete db;
}

// Where a flush lands. Each Flush() writes two keys and forces the
// memtable out through a CompactRange over a key no table holds, which
// flushes and then finds nothing to compact. The tables are tiny, so no
// compaction moves them afterwards.
class FlushPlacementTest : public ::testing::Test {
 protected:
  FlushPlacementTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
  }

  void Open() {
    db_.reset();
    DB* db = nullptr;
    Status s = DB::Open(options_, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void Flush(const std::string& lo, const std::string& hi) {
    ASSERT_TRUE(db_->Put(WriteOptions(), lo, "v").ok());
    ASSERT_TRUE(db_->Put(WriteOptions(), hi, "v").ok());
    const Slice past_every_key("~");
    db_->CompactRange(&past_every_key, &past_every_key);
  }

  // "0,0,0,0,0,1,0": tables per level.
  std::string FilesPerLevel() {
    std::string result;
    for (int level = 0; level < config::kNumLevels; level++) {
      std::string files;
      EXPECT_TRUE(db_->GetProperty(
          "pipelsm.num-files-at-level" + std::to_string(level), &files));
      result += (level > 0 ? "," : "") + files;
    }
    return result;
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(FlushPlacementTest, LeveledFlushSinksToTheFirstOverlap) {
  Open();
  Flush("a", "b");  // empty tree: level kNumLevels - 2
  EXPECT_EQ("0,0,0,0,0,1,0", FilesPerLevel());
  Flush("c", "d");  // overlaps nothing
  EXPECT_EQ("0,0,0,0,0,2,0", FilesPerLevel());
  Flush("a", "b");
  Flush("a", "b");
  Flush("a", "b");
  EXPECT_EQ("0,0,1,1,1,2,0", FilesPerLevel());
  Flush("a", "b");  // overlaps L2: stops at L1
  EXPECT_EQ("0,1,1,1,1,2,0", FilesPerLevel());
  Flush("a", "b");  // overlaps L1: stays at L0
  EXPECT_EQ("1,1,1,1,1,2,0", FilesPerLevel());
}

TEST_F(FlushPlacementTest, OverlappingRunStylesFlushToL0) {
  for (CompactionStyle style :
       {CompactionStyle::kTiered, CompactionStyle::kLazyLeveling}) {
    SCOPED_TRACE(CompactionStyleName(style));
    db_.reset();
    ASSERT_TRUE(DestroyDB("/db", options_).ok());
    options_.compaction_style = style;
    Open();
    Flush("a", "b");
    Flush("c", "d");
    EXPECT_EQ("2,0,0,0,0,0,0", FilesPerLevel());
  }
}

TEST_F(FlushPlacementTest, WalReplayFlushStaysAtL0) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "v").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "v").ok());
  Open();  // the memtable was never flushed: replay writes it
  EXPECT_EQ("1,0,0,0,0,0,0", FilesPerLevel());
}

INSTANTIATE_TEST_SUITE_P(AllModes, DBTest,
                         ::testing::Values(CompactionMode::kSCP,
                                           CompactionMode::kPCP,
                                           CompactionMode::kSPPCP,
                                           CompactionMode::kCPPCP),
                         [](const ::testing::TestParamInfo<CompactionMode>& i) {
                           switch (i.param) {
                             case CompactionMode::kSCP: return "SCP";
                             case CompactionMode::kPCP: return "PCP";
                             case CompactionMode::kSPPCP: return "SPPCP";
                             case CompactionMode::kCPPCP: return "CPPCP";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace pipelsm
