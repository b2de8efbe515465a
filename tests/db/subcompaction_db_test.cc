// Key-range sub-compaction tests (docs/COMPACTION.md): a fan-out split
// must be invisible — byte-identical scans vs an unsplit run, disjoint
// seams, one atomic version install per job, and clean failure behavior
// when a sub-job dies mid-write (FaultInjectionEnv).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/obs/event_listener.h"

namespace pipelsm {
namespace {

// Counts flush and compaction listener events and checks the
// begin/completed pairing contract survives the fan-out (exactly one
// pair per job, with merged totals on Completed). Per job id it keeps
// the executor Begin announced and a steady-clock stamp taken at Begin,
// so Completed can check both against what the job reports.
class CompactionCounter : public obs::EventListener {
 public:
  void OnFlushCompleted(const obs::FlushJobInfo&) override {
    flushes_.fetch_add(1);
  }
  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      begun_[info.job_id] = {info.executor,
                             std::chrono::steady_clock::now()};
    }
    begins_.fetch_add(1);
    if (info.subcompactions > 1) split_begins_.fetch_add(1);
  }
  void OnCompactionCompleted(const obs::CompactionJobInfo& info) override {
    const auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Begun& b = begun_.at(info.job_id);
      if (b.executor.empty() || b.executor != info.executor) {
        executor_mismatches_.push_back(info.job_id);
      }
      // The job times itself between the two callbacks, split or not.
      const uint64_t interval = std::chrono::duration_cast<
          std::chrono::nanoseconds>(now - b.at).count();
      if (info.profile.wall_nanos > interval) {
        wall_overruns_.push_back(info.job_id);
      }
    }
    completes_.fetch_add(1);
    if (info.status.ok()) {
      ok_completes_.fetch_add(1);
      ok_input_bytes_.fetch_add(info.profile.input_bytes);
    }
    if (info.subcompactions > 1) {
      split_completes_.fetch_add(1);
      if (info.status.ok() && info.profile.output_bytes > 0) {
        split_with_output_.fetch_add(1);
      }
    }
  }

  std::atomic<int> flushes_{0};
  std::atomic<int> begins_{0};
  std::atomic<int> completes_{0};
  std::atomic<int> ok_completes_{0};
  std::atomic<uint64_t> ok_input_bytes_{0};
  std::atomic<int> split_begins_{0};
  std::atomic<int> split_completes_{0};
  std::atomic<int> split_with_output_{0};

  struct Begun {
    std::string executor;
    std::chrono::steady_clock::time_point at;
  };
  std::mutex mu_;
  std::map<uint64_t, Begun> begun_;
  std::vector<uint64_t> executor_mismatches_;  // job ids
  std::vector<uint64_t> wall_overruns_;        // job ids
};

class SubcompactionDBTest : public ::testing::Test {
 protected:
  SubcompactionDBTest() : env_(DeviceProfile::Null()), fault_(&env_) {}
  ~SubcompactionDBTest() override { db_.reset(); }

  void Open(int max_subcompactions, const std::string& dbname = "/db") {
    db_.reset();
    options_ = Options();
    options_.env = &fault_;
    options_.create_if_missing = true;
    options_.compaction_mode = CompactionMode::kPCP;
    // Four granted compute workers: the fan-out clamp is
    // min(max_subcompactions, granted k), so splits actually happen.
    options_.compute_parallelism = 4;
    options_.max_subcompactions = max_subcompactions;
    // Small shapes so jobs are many files / many subtasks.
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    options_.subtask_bytes = 16 << 10;
    options_.listeners.push_back(&counter_);
    DB* db = nullptr;
    Status s = DB::Open(options_, dbname, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  // Deterministic workload with overwrites and deletes, mirrored into
  // the oracle map.
  void FillWorkload(DB* db, std::map<std::string, std::string>* oracle,
                    int ops = 8000, uint32_t rng = 301) {
    for (int i = 0; i < ops; i++) {
      rng = rng * 1664525u + 1013904223u;
      char key[32];
      std::snprintf(key, sizeof(key), "k%05u", rng % 3000);
      if (rng % 7 == 0) {
        ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
        oracle->erase(key);
      } else {
        std::string value = std::string(key) + "-v" + std::to_string(i) +
                            std::string(64, 'x');
        ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
        (*oracle)[key] = value;
      }
    }
  }

  // Full scan as an ordered key=value list; doubles as the byte-level
  // equality oracle between runs.
  std::string Scan(DB* db) {
    std::string dump;
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    std::string prev;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      std::string key = it->key().ToString();
      EXPECT_TRUE(prev.empty() || prev < key)
          << "scan out of order or duplicate seam key: " << prev
          << " then " << key;
      prev = key;
      dump += key + "=" + it->value().ToString() + ";";
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return dump;
  }

  std::string OracleDump(const std::map<std::string, std::string>& oracle) {
    std::string dump;
    for (const auto& kv : oracle) dump += kv.first + "=" + kv.second + ";";
    return dump;
  }

  // The number after "<key>": in the JSON property, or 0.
  uint64_t JsonNumber(const char* property, const std::string& key) {
    std::string prop;
    if (!db_->GetProperty(property, &prop)) return 0;
    const std::string needle = "\"" + key + "\":";
    size_t pos = prop.find(needle);
    if (pos == std::string::npos) return 0;
    return std::strtoull(prop.c_str() + pos + needle.size(), nullptr, 10);
  }

  uint64_t SubcompactedJobs() {
    return JsonNumber("pipelsm.compaction", "subcompacted_jobs");
  }

  // GetCompactionMetrics reads the registry; every total must match what
  // the event stream reported for the same fill.
  void ExpectTotalsMatchEvents(int max_subcompactions) {
    Open(max_subcompactions);
    std::map<std::string, std::string> oracle;
    FillWorkload(db_.get(), &oracle);
    ASSERT_TRUE(db_->WaitForCompactions().ok());
    db_->CompactRange(nullptr, nullptr);
    ASSERT_TRUE(db_->WaitForCompactions().ok());

    const CompactionMetrics m = db_->GetCompactionMetrics();
    ASSERT_GT(m.compactions, 0u);
    EXPECT_EQ(static_cast<uint64_t>(counter_.ok_completes_.load()),
              m.compactions);
    EXPECT_EQ(static_cast<uint64_t>(counter_.flushes_.load()),
              m.memtable_flushes);
    EXPECT_EQ(counter_.ok_input_bytes_.load(), m.profile.input_bytes);
    EXPECT_EQ(static_cast<uint64_t>(counter_.split_completes_.load()),
              SubcompactedJobs());
    {
      std::lock_guard<std::mutex> lock(counter_.mu_);
      // Begin names the executor that Completed reports, split or not.
      EXPECT_TRUE(counter_.executor_mismatches_.empty())
          << counter_.executor_mismatches_.size() << " jobs, first "
          << counter_.executor_mismatches_.front();
      // profile.wall_nanos is the job's elapsed time, never a sum over
      // overlapping sub-jobs.
      EXPECT_TRUE(counter_.wall_overruns_.empty())
          << counter_.wall_overruns_.size() << " jobs, first "
          << counter_.wall_overruns_.front();
    }

    const uint64_t runs = JsonNumber("pipelsm.metrics", "compaction.runs");
    if (max_subcompactions == 1) {
      EXPECT_EQ(m.compactions, runs);
    } else {
      EXPECT_GT(runs, m.compactions);  // a split job runs several sub-jobs
    }

    std::string prop;
    ASSERT_TRUE(db_->GetProperty("pipelsm.compaction", &prop));
    for (const char* key :
         {"style", "picker", "tiered_run_count", "max_subcompactions",
          "last_predicted_write_amp", "subcompacted_jobs",
          "subcompactions_run", "levels"}) {
      EXPECT_NE(std::string::npos,
                prop.find("\"" + std::string(key) + "\":"))
          << key << " missing from " << prop;
    }
  }

  SimEnv env_;
  FaultInjectionEnv fault_;
  Options options_;
  CompactionCounter counter_;
  std::unique_ptr<DB> db_;
};

TEST_F(SubcompactionDBTest, SplitScanMatchesOracle) {
  Open(/*max_subcompactions=*/4);
  std::map<std::string, std::string> oracle;
  FillWorkload(db_.get(), &oracle);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  db_->CompactRange(nullptr, nullptr);

  EXPECT_GE(SubcompactedJobs(), 1u) << "workload never split a job";
  EXPECT_EQ(OracleDump(oracle), Scan(db_.get()));

  // Point reads across the seams too.
  for (const auto& kv : oracle) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), kv.first, &value).ok());
    EXPECT_EQ(kv.second, value);
  }
}

TEST_F(SubcompactionDBTest, SplitAndSerialRunsAreByteIdentical) {
  // Same deterministic workload through max_subcompactions=1 and =4:
  // the logical DB contents must match byte for byte.
  Open(/*max_subcompactions=*/1, "/db_serial");
  std::map<std::string, std::string> oracle;
  FillWorkload(db_.get(), &oracle);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  db_->CompactRange(nullptr, nullptr);
  const std::string serial = Scan(db_.get());
  EXPECT_EQ(0, counter_.split_begins_.load());

  Open(/*max_subcompactions=*/4, "/db_split");
  std::map<std::string, std::string> oracle2;
  FillWorkload(db_.get(), &oracle2);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  db_->CompactRange(nullptr, nullptr);
  const std::string split = Scan(db_.get());

  EXPECT_GE(SubcompactedJobs(), 1u);
  EXPECT_EQ(OracleDump(oracle), serial);
  EXPECT_EQ(serial, split);
}

TEST_F(SubcompactionDBTest, OneListenerPairPerSplitJob) {
  Open(/*max_subcompactions=*/4);
  std::map<std::string, std::string> oracle;
  FillWorkload(db_.get(), &oracle);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  db_->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // The parent job fires exactly one Begin/Completed pair no matter how
  // many sub-jobs ran underneath, and Completed carries merged output.
  EXPECT_EQ(counter_.begins_.load(), counter_.completes_.load());
  EXPECT_GE(counter_.split_begins_.load(), 1);
  EXPECT_EQ(counter_.split_begins_.load(), counter_.split_completes_.load());
  EXPECT_EQ(counter_.split_completes_.load(),
            counter_.split_with_output_.load());

  // And the per-sub-range EVENT lines landed in the info log.
  std::string log;
  ASSERT_TRUE(ReadFileToString(&fault_, "/db/LOG", &log).ok());
  EXPECT_NE(std::string::npos, log.find("EVENT subcompaction"))
      << "no subcompaction EVENT lines in LOG";
}

TEST_F(SubcompactionDBTest, RegistryTotalsMatchEventsUnsplit) {
  ExpectTotalsMatchEvents(/*max_subcompactions=*/1);
}

TEST_F(SubcompactionDBTest, RegistryTotalsMatchEventsSplit) {
  ExpectTotalsMatchEvents(/*max_subcompactions=*/4);
}

TEST_F(SubcompactionDBTest, FailedSubjobInstallsNothing) {
  Open(/*max_subcompactions=*/4);
  std::map<std::string, std::string> oracle;
  FillWorkload(db_.get(), &oracle);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  const std::string before = Scan(db_.get());

  // Every new table file fails to open: all sub-jobs of the manual
  // compaction die. The job must install NOTHING — the pre-compaction
  // version stays live and fully readable (atomic single-edit install).
  fault_.SetPathFilter(FaultOp::kNewWritableFile, ".pst");
  fault_.FailAfter(FaultOp::kNewWritableFile, 1,
                   Status::IOError("injected: sub-job output open"),
                   /*sticky=*/true);
  db_->CompactRange(nullptr, nullptr);
  EXPECT_GE(fault_.injected_failures(), 1u);

  fault_.ClearFaults();
  EXPECT_EQ(before, Scan(db_.get()));
  EXPECT_EQ(OracleDump(oracle), Scan(db_.get()));

  // Once the disk heals (and the sticky error, if any, is cleared), the
  // same compaction goes through and the contents are unchanged.
  ASSERT_TRUE(db_->Resume().ok());
  db_->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  EXPECT_EQ(before, Scan(db_.get()));
}

TEST_F(SubcompactionDBTest, CrashMidSubcompactionRecovers) {
  Open(/*max_subcompactions=*/4);
  std::map<std::string, std::string> oracle;
  FillWorkload(db_.get(), &oracle);
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // A trailing synced write persists every earlier record (sync orders
  // the WAL), so the whole oracle is durable before the power cut.
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db_->Put(sync_wo, "zz-durable", "synced").ok());
  oracle["zz-durable"] = "synced";

  // Power-loss mid-split: some sub-job appends land, then the "machine"
  // dies. Reopen must come up on the old version with no output of the
  // torn job visible.
  fault_.SetPathFilter(FaultOp::kAppend, ".pst");
  fault_.CrashAfter(FaultOp::kAppend, 40);
  db_->CompactRange(nullptr, nullptr);
  db_.reset();  // close what's left of the instance
  EXPECT_TRUE(fault_.crashed());
  fault_.ClearFaults();
  ASSERT_TRUE(fault_.DropUnsyncedAndReset().ok());

  Open(/*max_subcompactions=*/4);
  EXPECT_EQ(OracleDump(oracle), Scan(db_.get()));

  // The DB keeps working after recovery, splits and all.
  FillWorkload(db_.get(), &oracle, /*ops=*/2000, /*rng=*/777);
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  db_->CompactRange(nullptr, nullptr);
  EXPECT_EQ(OracleDump(oracle), Scan(db_.get()));
}

// Sub-compactions under the overlapping-level styles: the split path
// must compose with tiered/lazy pickers (whole-level jobs, self-merges).
TEST_F(SubcompactionDBTest, SplitComposesWithTieredStyles) {
  for (CompactionStyle style :
       {CompactionStyle::kTiered, CompactionStyle::kLazyLeveling}) {
    SCOPED_TRACE(CompactionStyleName(style));
    db_.reset();
    options_ = Options();
    options_.env = &fault_;
    options_.create_if_missing = true;
    options_.compaction_mode = CompactionMode::kPCP;
    options_.compute_parallelism = 4;
    options_.max_subcompactions = 4;
    options_.compaction_style = style;
    options_.tiered_run_count = 3;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    options_.subtask_bytes = 16 << 10;
    DB* db = nullptr;
    std::string name = std::string("/db_style_") + CompactionStyleName(style);
    ASSERT_TRUE(DB::Open(options_, name, &db).ok());
    db_.reset(db);

    std::map<std::string, std::string> oracle;
    FillWorkload(db_.get(), &oracle, /*ops=*/6000);
    ASSERT_TRUE(db_->WaitForCompactions().ok());
    EXPECT_EQ(OracleDump(oracle), Scan(db_.get()));

    std::string prop;
    ASSERT_TRUE(db_->GetProperty("pipelsm.compaction", &prop));
    EXPECT_NE(std::string::npos,
              prop.find(std::string("\"style\":\"") +
                        CompactionStyleName(style) + "\""));
  }
}

}  // namespace
}  // namespace pipelsm
