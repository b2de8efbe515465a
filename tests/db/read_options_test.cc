// ReadOptions semantics: fill_cache controls block-cache population, and
// every read, with default options, verifies block checksums.
#include <gtest/gtest.h>

#include <memory>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/env/sim_env.h"
#include "src/read/cache.h"
#include "src/workload/generator.h"

namespace pipelsm {
namespace {

class ReadOptionsTest : public ::testing::Test {
 protected:
  ReadOptionsTest() : cache_(read::NewShardedLRUCache(8 << 20, 4)) {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.block_cache = cache_.get();
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
  }

  void OpenAndFill() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
    WorkloadGenerator gen(2000, 16, 100, KeyOrder::kSequential);
    for (uint64_t i = 0; i < gen.num_entries(); i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
    }
    db_->CompactRange(nullptr, nullptr);
  }

  SimEnv env_;
  std::unique_ptr<read::Cache> cache_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(ReadOptionsTest, FillCacheFalseLeavesCacheCold) {
  OpenAndFill();
  WorkloadGenerator gen(2000, 16, 100, KeyOrder::kSequential);

  const size_t usage_before = cache_->usage();
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  std::string value;
  for (uint64_t i = 0; i < 2000; i += 50) {
    ASSERT_TRUE(db_->Get(no_fill, gen.Key(i), &value).ok());
  }
  EXPECT_EQ(usage_before, cache_->usage());

  // Default (fill_cache=true) populates it.
  for (uint64_t i = 0; i < 2000; i += 50) {
    ASSERT_TRUE(db_->Get(ReadOptions(), gen.Key(i), &value).ok());
  }
  EXPECT_GT(cache_->usage(), usage_before);
}

TEST_F(ReadOptionsTest, CachedBlocksSkipDeviceReads) {
  OpenAndFill();
  WorkloadGenerator gen(2000, 16, 100, KeyOrder::kSequential);
  std::string value;
  // Warm the cache.
  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), gen.Key(i), &value).ok());
  }
  // Re-read everything: zero device reads.
  env_.device()->ResetStats();
  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), gen.Key(i), &value).ok());
  }
  EXPECT_EQ(0u, env_.device()->stats().read_ops.load());
}

TEST_F(ReadOptionsTest, VerifyChecksumsCatchesCorruptBlock) {
  OpenAndFill();
  WorkloadGenerator gen(2000, 16, 100, KeyOrder::kSequential);

  // Corrupt the middle of every live table file.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  int corrupted = 0;
  uint64_t number;
  FileType type;
  for (const auto& c : children) {
    if (ParseFileName(c, &number, &type) && type == kTableFile) {
      uint64_t size;
      ASSERT_TRUE(env_.GetFileSize("/db/" + c, &size).ok());
      ASSERT_TRUE(env_.CorruptFile("/db/" + c, size / 3, 32).ok());
      corrupted++;
    }
  }
  ASSERT_GT(corrupted, 0);

  // Default reads must hit Corruption for at least some key, and every
  // read must be either OK (block untouched), NotFound, or Corruption —
  // never wrong data.
  int corruption_errors = 0;
  std::string value;
  for (uint64_t i = 0; i < 2000; i += 10) {
    Status s = db_->Get(ReadOptions(), gen.Key(i), &value);
    if (s.IsCorruption()) {
      corruption_errors++;
    } else if (s.ok()) {
      EXPECT_EQ(gen.Value(i), value) << "read returned wrong data";
    }
  }
  EXPECT_GT(corruption_errors, 0);
}

}  // namespace
}  // namespace pipelsm
