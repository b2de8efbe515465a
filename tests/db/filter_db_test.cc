// End-to-end bloom filters: a DB opened with bloom_bits_per_key keeps
// filters working across memtable flushes AND major compactions (both
// table-building paths), measurably cutting device reads for absent keys.
#include <gtest/gtest.h>

#include <memory>

#include "src/db/db.h"
#include "src/env/sim_env.h"
#include "src/workload/generator.h"

namespace pipelsm {
namespace {

class FilterDbTest : public ::testing::Test {
 protected:
  FilterDbTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.bloom_bits_per_key = 10;
    options_.compaction_mode = CompactionMode::kPCP;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    options_.subtask_bytes = 16 << 10;
    options_.block_cache = nullptr;
  }

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(FilterDbTest, FiltersSurviveCompactionAndCutReads) {
  Open();
  WorkloadGenerator gen(4000, 16, 100, KeyOrder::kRandom);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
  }
  // Push everything through major compactions (raw-writer tables).
  db_->CompactRange(nullptr, nullptr);
  CompactionMetrics m = db_->GetCompactionMetrics();
  ASSERT_GT(m.compactions, 0u);

  // All present keys readable (no false negatives through either path).
  std::string value;
  for (uint64_t i = 0; i < gen.num_entries(); i += 7) {
    ASSERT_TRUE(db_->Get(ReadOptions(), gen.Key(i), &value).ok()) << i;
    ASSERT_EQ(gen.Value(i), value);
  }

  // Absent keys: count device reads with and without filters. The keys
  // probe inside the data's range (so only the filter can save the read).
  auto probe_absent = [&]() -> uint64_t {
    env_.device()->ResetStats();
    std::string v;
    for (int i = 0; i < 300; i++) {
      // Same length and prefix as a real key (so the probe lands inside
      // table ranges) but with a non-digit tail: definitely absent.
      std::string key = gen.Key(i);
      key[15] = 'x';
      Status s = db_->Get(ReadOptions(), key, &v);
      EXPECT_TRUE(s.IsNotFound() || s.ok());
    }
    return env_.device()->stats().read_ops.load();
  };
  const uint64_t with_filter_reads = probe_absent();

  // Reopen WITHOUT filters: the stored ones are ignored, every probe that
  // reaches a table now reads a data block.
  db_.reset();
  options_.bloom_bits_per_key = 0;
  Open();
  const uint64_t without_filter_reads = probe_absent();

  EXPECT_LT(with_filter_reads, without_filter_reads / 2)
      << "with=" << with_filter_reads << " without=" << without_filter_reads;
}

TEST_F(FilterDbTest, WrongKeysStillNotFound) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "present", "yes").ok());
  db_->CompactRange(nullptr, nullptr);
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "absent", &value).IsNotFound());
  ASSERT_TRUE(db_->Get(ReadOptions(), "present", &value).ok());
  EXPECT_EQ("yes", value);
}

}  // namespace
}  // namespace pipelsm
