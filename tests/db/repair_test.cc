// RepairDB: reconstructing a database after metadata loss.
#include "src/db/repair.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/workload/generator.h"

namespace pipelsm {
namespace {

class RepairTest : public ::testing::Test {
 protected:
  RepairTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
  }

  void Open(bool create = true) {
    db_.reset();
    Options o = options_;
    o.create_if_missing = create;
    DB* raw = nullptr;
    Status s = DB::Open(o, "/db", &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  void Fill(uint64_t n) {
    WorkloadGenerator gen(n, 16, 100, KeyOrder::kRandom);
    for (uint64_t i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
    }
  }

  void VerifyFill(uint64_t n, uint64_t stride = 17) {
    WorkloadGenerator gen(n, 16, 100, KeyOrder::kRandom);
    std::string value;
    for (uint64_t i = 0; i < n; i += stride) {
      ASSERT_TRUE(db_->Get(ReadOptions(), gen.Key(i), &value).ok())
          << "key index " << i;
      ASSERT_EQ(gen.Value(i), value);
    }
  }

  void RemoveMetadata() {
    std::vector<std::string> children;
    ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
    for (const auto& c : children) {
      if (c == "CURRENT" || c.rfind("MANIFEST-", 0) == 0) {
        ASSERT_TRUE(env_.RemoveFile("/db/" + c).ok());
      }
    }
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(RepairTest, RecoversAfterManifestLoss) {
  Open();
  Fill(3000);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  db_.reset();

  RemoveMetadata();
  // Without repair the DB cannot open.
  {
    Options o = options_;
    o.create_if_missing = false;
    DB* raw = nullptr;
    EXPECT_FALSE(DB::Open(o, "/db", &raw).ok());
    delete raw;
  }

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  Open(/*create=*/false);
  VerifyFill(3000);
}

TEST_F(RepairTest, RecoversUnflushedWalData) {
  Open();
  Fill(100);  // stays in the memtable + WAL
  db_.reset();

  RemoveMetadata();
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  Open(false);
  VerifyFill(100, /*stride=*/1);
}

TEST_F(RepairTest, DropsCorruptTableKeepsRest) {
  Open();
  Fill(4000);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  db_.reset();

  // Corrupt ONE table file badly, keep the rest.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  uint64_t number;
  FileType type;
  int total_tables = 0;
  std::string victim;
  for (const auto& c : children) {
    if (ParseFileName(c, &number, &type) && type == kTableFile) {
      total_tables++;
      if (victim.empty()) victim = "/db/" + c;
    }
  }
  ASSERT_GT(total_tables, 1);
  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize(victim, &size).ok());
  ASSERT_TRUE(env_.CorruptFile(victim, size / 2, 64).ok());

  RemoveMetadata();
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  Open(false);

  // Most keys survive; the victim's keys may be gone — but every Get is
  // either the right value or NotFound, never garbage.
  WorkloadGenerator gen(4000, 16, 100, KeyOrder::kRandom);
  std::string value;
  int found = 0;
  for (uint64_t i = 0; i < 4000; i += 5) {
    Status s = db_->Get(ReadOptions(), gen.Key(i), &value);
    if (s.ok()) {
      ASSERT_EQ(gen.Value(i), value);
      found++;
    } else {
      ASSERT_TRUE(s.IsNotFound());
    }
  }
  EXPECT_GT(found, 400);  // the bulk survived
}

TEST_F(RepairTest, RepairedDbAcceptsNewWrites) {
  Open();
  Fill(500);
  db_.reset();
  RemoveMetadata();
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  Open(false);
  ASSERT_TRUE(db_->Put(WriteOptions(), "new-after-repair", "yes").ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "new-after-repair", &value).ok());
  EXPECT_EQ("yes", value);
  // And compactions still work.
  db_->CompactRange(nullptr, nullptr);
  VerifyFill(500);
}

TEST_F(RepairTest, ReportsToTheDbLog) {
  Open();
  Fill(100);  // stays in the memtable + WAL
  db_.reset();
  RemoveMetadata();
  ASSERT_TRUE(RepairDB("/db", options_).ok());

  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, InfoLogFileName("/db"), &log).ok());
  EXPECT_NE(std::string::npos, log.find("-> table #")) << log;
  EXPECT_NE(std::string::npos, log.find("repair: recovered 1 tables")) << log;
  // The closed DB's own LOG is kept, not overwritten.
  std::string old_log;
  ASSERT_TRUE(
      ReadFileToString(&env_, OldInfoLogFileName("/db"), &old_log).ok());
  EXPECT_NE(std::string::npos, old_log.find("closing DB")) << old_log;
}

// RepairDB converts a log the way WAL replay does: it stops at the first
// record whose value frame did not survive, here because the OS wrote the
// WAL's unsynced tail back but not the frame.
TEST_F(RepairTest, LogConversionStopsAtADroppedValueFrame) {
  FaultInjectionEnv fault(&env_);
  options_.env = &fault;
  options_.value_separation_threshold = 1024;
  Open();
  const std::string big(4096, 'v');
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db_->Put(sync_wo, "durable", big).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "small-before", "s").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "lost", big).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "small-after", "t").ok());
  fault.SetPathFilter(FaultOp::kSync, ".vlog");
  fault.CrashAfter(FaultOp::kSync, 1);  // the close's value-log sync
  db_.reset();
  ASSERT_TRUE(fault.crashed());
  fault.ClearFaults();
  ASSERT_TRUE(fault.DropUnsyncedAndReset(".log").ok());

  RemoveMetadata();
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, "/db/LOG", &log).ok());
  EXPECT_NE(std::string::npos, log.find("value frame not recovered"));

  Open(/*create=*/false);
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "durable", &value).ok());
  EXPECT_EQ(big, value);
  ASSERT_TRUE(db_->Get(ReadOptions(), "small-before", &value).ok());
  EXPECT_EQ("s", value);
  EXPECT_TRUE(db_->Get(ReadOptions(), "lost", &value).IsNotFound());
  EXPECT_TRUE(db_->Get(ReadOptions(), "small-after", &value).IsNotFound());
  db_.reset();
}

TEST_F(RepairTest, EmptyDirFails) {
  env_.CreateDir("/empty");
  EXPECT_FALSE(RepairDB("/empty", options_).ok());
}

}  // namespace
}  // namespace pipelsm
