// Every table the DB writes is opened once, when it is written: flush and
// S7 open each finished output through the table cache before any
// version names it. So a compaction finds its inputs open, a failed
// read-back installs nothing, and the input opens that do miss the cache
// (after a reopen) run without the DB mutex.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/obs/event_listener.h"
#include "src/obs/metrics.h"
#include "tests/db/table_read_latch_env.h"

namespace pipelsm {
namespace {

// Counts compaction jobs, and arms a one-shot fault on the first output
// of the compaction that follows the next flush.
class JobWatcher : public obs::EventListener {
 public:
  void OnFlushCompleted(const obs::FlushJobInfo& info) override {
    FaultInjectionEnv* fault = fault_.exchange(nullptr);
    if (fault == nullptr) return;
    // The flush took number N; the manual compaction right after it
    // allocates N + 1 for its first output. That output's first read is
    // the footer read of the S7 open.
    fault->SetPathFilter(FaultOp::kRead,
                         TableFileName("/db", info.file_number + 1));
    fault->FailAfter(FaultOp::kRead, 1,
                     Status::IOError("injected: output read-back"));
    failed_output_ = info.file_number + 1;
  }
  void OnCompactionBegin(const obs::CompactionJobInfo&) override {
    begins.fetch_add(1);
  }
  void OnCompactionCompleted(const obs::CompactionJobInfo& info) override {
    std::lock_guard<std::mutex> l(mu_);
    statuses_.push_back(info.status);
  }

  void FailFirstOutputAfterNextFlush(FaultInjectionEnv* fault) {
    fault_ = fault;
  }
  uint64_t failed_output() const { return failed_output_; }
  std::vector<Status> statuses() {
    std::lock_guard<std::mutex> l(mu_);
    return statuses_;
  }

  std::atomic<int> begins{0};

 private:
  std::atomic<FaultInjectionEnv*> fault_{nullptr};
  std::atomic<uint64_t> failed_output_{0};
  std::mutex mu_;
  std::vector<Status> statuses_;
};

class TableOpenTest : public ::testing::Test {
 protected:
  TableOpenTest()
      : sim_(DeviceProfile::Null()), fault_(&sim_), latch_(&sim_) {}
  ~TableOpenTest() override { db_.reset(); }

  void Open(Env* env, int max_background_retries = 5) {
    db_.reset();
    Options options;
    options.env = env;
    options.create_if_missing = true;
    options.max_background_retries = max_background_retries;
    // Small shapes so flushes and compactions happen in-test.
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 64 << 10;
    options.subtask_bytes = 16 << 10;
    options.listeners.push_back(&watcher_);
    DB* db = nullptr;
    Status s = DB::Open(options, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void Fill(int ops, uint32_t rng = 301) {
    for (int i = 0; i < ops; i++) {
      rng = rng * 1664525u + 1013904223u;
      char key[32];
      std::snprintf(key, sizeof(key), "k%05u", rng % 3000);
      const std::string value =
          std::string(key) + "-v" + std::to_string(i) + std::string(64, 'x');
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      oracle_[key] = value;
    }
  }

  // Every oracle key reads its value, and the scan holds nothing else.
  void ExpectOracle() {
    for (const auto& kv : oracle_) {
      std::string value;
      Status s = db_->Get(ReadOptions(), kv.first, &value);
      ASSERT_TRUE(s.ok()) << kv.first << ": " << s.ToString();
      ASSERT_EQ(kv.second, value) << kv.first;
    }
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    size_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(oracle_.size(), n);
  }

  uint64_t TableCacheMisses() {
    return db_->MetricsHandle()
        ->RegisterCounter("cache.table.misses", "")
        ->value();
  }

  std::string Level0Files() {
    std::string v;
    EXPECT_TRUE(db_->GetProperty("pipelsm.num-files-at-level0", &v));
    return v;
  }

  SimEnv sim_;
  FaultInjectionEnv fault_;
  TableReadLatchEnv latch_;
  JobWatcher watcher_;
  std::map<std::string, std::string> oracle_;
  std::unique_ptr<DB> db_;
};

TEST_F(TableOpenTest, OutputsAreOpenWhenInstalled) {
  Open(&fault_);
  Fill(12000);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  ASSERT_GT(db_->GetCompactionMetrics().compactions, 0u);

  // Every live table is a flush or compaction output, and each was
  // opened when it was written: reads that touch them all hit.
  const uint64_t before_reads = TableCacheMisses();
  ExpectOracle();
  EXPECT_EQ(before_reads, TableCacheMisses());

  // A second round of compactions over those outputs. Each miss is a new
  // table (the forced flush or an output) being opened once, in S7; no
  // input open misses.
  fault_.SetPathFilter(FaultOp::kNewWritableFile, ".pst");
  fault_.ClearCounters();
  const uint64_t before_compaction = TableCacheMisses();
  db_->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  const uint64_t tables_written = fault_.counter(FaultOp::kNewWritableFile);
  EXPECT_GT(tables_written, 0u);
  EXPECT_EQ(before_compaction + tables_written, TableCacheMisses());
  ExpectOracle();
}

TEST_F(TableOpenTest, FailedOutputReadBackInstallsNothing) {
  // No retries: the failure is sticky, so no later job runs before the
  // checks below.
  Open(&fault_, /*max_background_retries=*/0);
  Fill(3000);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  Fill(50, /*rng=*/777);  // the manual compaction's flush writes a table
  const uint64_t installed = db_->GetCompactionMetrics().compactions;
  const size_t jobs = watcher_.statuses().size();

  // The compaction right after CompactRange's flush fails when S7 reads
  // its first output back.
  watcher_.FailFirstOutputAfterNextFlush(&fault_);
  db_->CompactRange(nullptr, nullptr);
  ASSERT_NE(0u, watcher_.failed_output());
  EXPECT_EQ(1u, fault_.injected_failures());

  // The job returned the error...
  std::vector<Status> statuses = watcher_.statuses();
  ASSERT_EQ(jobs + 1, statuses.size());
  EXPECT_TRUE(statuses[jobs].IsIOError()) << statuses[jobs].ToString();
  EXPECT_NE(std::string::npos,
            statuses[jobs].ToString().find("injected: output read-back"));
  // ...and installed nothing: no version edit, and the flushed table it
  // read from is still at level 0.
  EXPECT_EQ(installed, db_->GetCompactionMetrics().compactions);
  EXPECT_NE("0", Level0Files());
  ExpectOracle();

  // Once the error is cleared, the file it could not read back is
  // collected, not made live.
  fault_.ClearFaults();
  ASSERT_TRUE(db_->Resume().ok());
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  EXPECT_FALSE(
      fault_.FileExists(TableFileName("/db", watcher_.failed_output())));

  // The retry goes through and agrees with the oracle.
  db_->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  EXPECT_GT(db_->GetCompactionMetrics().compactions, installed);
  EXPECT_EQ("0", Level0Files());
  statuses = watcher_.statuses();
  for (size_t i = jobs + 1; i < statuses.size(); i++) {
    EXPECT_TRUE(statuses[i].ok()) << statuses[i].ToString();
  }
  ExpectOracle();
}

// A cold input open parks inside Table::Open. The writer and a memtable
// read must get through meanwhile: the open holds no DB mutex.
TEST_F(TableOpenTest, WritesAndReadsDoNotWaitOnInputOpens) {
  Open(&latch_);
  Fill(3000);
  // Flush the memtable (a range past every key compacts nothing), so the
  // reopen replays an empty log and opens no table.
  const std::string past_end = "\xff";
  const Slice end(past_end);
  db_->CompactRange(&end, &end);
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  Open(&latch_);  // the table cache starts cold
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  const int begins = watcher_.begins.load();

  latch_.Block();
  std::thread compaction([this] { db_->CompactRange(nullptr, nullptr); });
  latch_.WaitForParkedRead();
  // No job has begun, and the memtable is empty, so the parked read is a
  // compaction opening its inputs.
  EXPECT_EQ(begins, watcher_.begins.load());

  auto foreground = std::async(std::launch::async, [this] {
    Status s = db_->Put(WriteOptions(), "latch-key", "latch-value");
    std::string value;
    if (s.ok()) s = db_->Get(ReadOptions(), "latch-key", &value);
    if (s.ok() && value != "latch-value") s = Status::Corruption(value);
    return s;
  });
  // Generous: only a Put or Get stuck behind the parked open takes long.
  const bool returned = foreground.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  latch_.Unblock();
  compaction.join();
  EXPECT_TRUE(returned) << "Put/Get waited on a compaction's input open";
  Status s = foreground.get();
  EXPECT_TRUE(s.ok()) << s.ToString();

  // The compaction completed once released.
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  EXPECT_GT(watcher_.begins.load(), begins);
  for (const Status& job : watcher_.statuses()) {
    EXPECT_TRUE(job.ok()) << job.ToString();
  }
  oracle_["latch-key"] = "latch-value";
  ExpectOracle();
}

}  // namespace
}  // namespace pipelsm
