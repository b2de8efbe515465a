// Crash/reopen recovery: the WAL and MANIFEST must reconstruct the exact
// pre-crash state, including torn WAL tails.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/db/options.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/table/comparator.h"
#include "src/util/random.h"
#include "src/version/version_edit.h"
#include "src/wal/log_writer.h"
#include "src/workload/generator.h"
#include "tests/db/executor_matrix.h"

namespace pipelsm {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
  }

  ~RecoveryTest() override { Close(); }

  void Open() {
    Close();
    DB* db = nullptr;
    Status s = DB::Open(options_, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void Close() { db_.reset(); }

  std::string Get(const std::string& k) {
    std::string value;
    Status s = db_->Get(ReadOptions(), k, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR";
    return value;
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(RecoveryTest, ReopenPreservesData) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "persist", "me").ok());
  Close();
  Open();
  EXPECT_EQ("me", Get("persist"));
}

TEST_F(RecoveryTest, ReopenAfterCompactionsPreservesEverything) {
  Open();
  WorkloadGenerator gen(3000, 16, 100, KeyOrder::kRandom);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  Close();
  Open();
  for (uint64_t i = 0; i < gen.num_entries(); i += 13) {
    ASSERT_EQ(gen.Value(i), Get(gen.Key(i))) << i;
  }
}

TEST_F(RecoveryTest, UnflushedWritesRecoverFromWal) {
  Open();
  // Small enough to stay entirely in the memtable (no flush).
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "wal-key-" + std::to_string(i), "v").ok());
  }
  // "Crash": drop the DB object without flushing.
  Close();
  Open();
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ("v", Get("wal-key-" + std::to_string(i)));
  }
}

TEST_F(RecoveryTest, TornWalTailLosesOnlyLastRecord) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "2").ok());
  Close();

  // Find the live WAL and tear its tail.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  std::string wal;
  uint64_t number;
  FileType type;
  for (const auto& c : children) {
    if (ParseFileName(c, &number, &type) && type == kLogFile) {
      wal = "/db/" + c;
    }
  }
  ASSERT_FALSE(wal.empty());
  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize(wal, &size).ok());
  ASSERT_GT(size, 4u);
  ASSERT_TRUE(env_.TruncateFile(wal, size - 3).ok());

  Open();
  EXPECT_EQ("1", Get("a"));
  EXPECT_EQ("NOT_FOUND", Get("b"));  // torn record dropped cleanly
}

TEST_F(RecoveryTest, GarbledWalTailIsReportedInLog) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "2").ok());
  Close();

  // Garble the last record's payload: its checksum no longer matches.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  std::string wal;
  uint64_t number;
  FileType type;
  for (const auto& c : children) {
    if (ParseFileName(c, &number, &type) && type == kLogFile) {
      wal = "/db/" + c;
    }
  }
  ASSERT_FALSE(wal.empty());
  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize(wal, &size).ok());
  ASSERT_TRUE(env_.CorruptFile(wal, size - 2, 2).ok());

  Open();
  EXPECT_EQ("1", Get("a"));
  EXPECT_EQ("NOT_FOUND", Get("b"));
  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, InfoLogFileName("/db"), &log).ok());
  EXPECT_NE(std::string::npos, log.find("recovering log #")) << log;
  EXPECT_NE(std::string::npos, log.find("dropping ")) << log;
  EXPECT_NE(std::string::npos, log.find("checksum mismatch")) << log;
}

TEST_F(RecoveryTest, DeletionsSurviveReopen) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  Close();
  Open();
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_F(RecoveryTest, MissingTableFileIsCorruption) {
  Open();
  WorkloadGenerator gen(2000, 16, 100, KeyOrder::kRandom);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  Close();

  // Remove one live table file.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  bool removed = false;
  uint64_t number;
  FileType type;
  for (const auto& c : children) {
    if (ParseFileName(c, &number, &type) && type == kTableFile) {
      ASSERT_TRUE(env_.RemoveFile("/db/" + c).ok());
      removed = true;
      break;
    }
  }
  ASSERT_TRUE(removed);

  DB* db = nullptr;
  Status s = DB::Open(options_, "/db", &db);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  delete db;
}

// A MANIFEST is input like any other: edits that put two overlapping
// files in L1 under leveled style must fail the reopen with Corruption
// in every build type, and the LOG must say why.
TEST_F(RecoveryTest, OverlappingLevelFilesInManifestAreCorruption) {
  ASSERT_TRUE(env_.CreateDir("/db").ok());
  VersionEdit new_db;
  new_db.SetComparatorName(BytewiseComparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(20);
  new_db.SetLastSequence(10);
  VersionEdit overlap;
  overlap.AddFile(1, 10, 4096, InternalKey("a", 1, kTypeValue),
                  InternalKey("m", 2, kTypeValue));
  overlap.AddFile(1, 11, 4096, InternalKey("k", 3, kTypeValue),
                  InternalKey("z", 4, kTypeValue));
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile(DescriptorFileName("/db", 1), &file).ok());
  log::Writer writer(file.get());
  for (const VersionEdit* edit : {&new_db, &overlap}) {
    std::string record;
    edit->EncodeTo(&record);
    ASSERT_TRUE(writer.AddRecord(record).ok());
  }
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(SetCurrentFile(&env_, "/db", 1).ok());

  DB* db = nullptr;
  Status s = DB::Open(options_, "/db", &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(nullptr, db);
  delete db;
  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, InfoLogFileName("/db"), &log).ok());
  EXPECT_NE(std::string::npos, log.find("overlapping files in level 1"))
      << log;
}

TEST_F(RecoveryTest, SequenceNumbersContinueAfterReopen) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v1").ok());
  Close();
  Open();
  // The new write must win over the recovered one.
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v2").ok());
  EXPECT_EQ("v2", Get("k"));
  Close();
  Open();
  EXPECT_EQ("v2", Get("k"));
}

TEST_F(RecoveryTest, RepeatedReopenCycles) {
  std::map<std::string, std::string> model;
  WorkloadGenerator gen(400, 16, 64, KeyOrder::kRandom);
  for (int round = 0; round < 5; round++) {
    Open();
    for (uint64_t i = 0; i < gen.num_entries(); i++) {
      std::string v = "r" + std::to_string(round) + "-" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), v).ok());
      model[gen.Key(i)] = v;
    }
    Close();
  }
  Open();
  for (const auto& [k, v] : model) {
    ASSERT_EQ(v, Get(k));
  }
}

// Fault-injection recovery: transient errors heal via retry, exhausted
// retries go sticky and heal via Resume(), and crash points at any Env op
// never lose a synced write or resurrect a delete.
class FaultRecoveryTest : public ::testing::Test {
 protected:
  FaultRecoveryTest() : fault_(&env_) {
    options_.env = &fault_;
    options_.create_if_missing = true;
    // 64 KiB is the SanitizeOptions floor; FillPastFlush overshoots it.
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    // Keep retry latency test-friendly.
    options_.max_background_retries = 2;
    options_.background_retry_backoff_micros = 100;
    options_.background_retry_backoff_max_micros = 400;
  }

  ~FaultRecoveryTest() override { Close(); }

  void Open() {
    Close();
    DB* db = nullptr;
    Status s = DB::Open(options_, "/db", &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  void Close() { db_.reset(); }

  std::string Get(const std::string& k) {
    std::string value;
    Status s = db_->Get(ReadOptions(), k, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR";
    return value;
  }

  std::string BackgroundError() {
    std::string value;
    EXPECT_TRUE(db_->GetProperty("pipelsm.background-error", &value));
    return value;
  }

  // Writes enough sequential entries to force at least one memtable flush.
  void FillPastFlush(const std::string& tag, int n = 900) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), tag + "-" + std::to_string(i),
                           std::string(100, 'x'))
                      .ok());
    }
  }

  // Same volume, but tolerates rejected writes (e.g. once a background
  // error goes sticky mid-fill). Returns the number of acked writes.
  int FillBestEffort(const std::string& tag, int n = 900) {
    int acked = 0;
    for (int i = 0; i < n; i++) {
      if (db_->Put(WriteOptions(), tag + "-" + std::to_string(i),
                   std::string(100, 'x'))
              .ok()) {
        acked++;
      }
    }
    return acked;
  }

  SimEnv env_;
  FaultInjectionEnv fault_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(FaultRecoveryTest, TransientFlushErrorRetriesWithoutGoingSticky) {
  Open();
  // The first table-file creation fails once; the retry must succeed and
  // the error must never become sticky.
  fault_.SetPathFilter(FaultOp::kNewWritableFile, ".pst");
  fault_.FailAfter(FaultOp::kNewWritableFile, 1,
                   Status::IOError("transient disk hiccup"));
  FillPastFlush("t");
  ASSERT_TRUE(db_->WaitForCompactions().ok()) << BackgroundError();
  EXPECT_EQ("OK", BackgroundError());
  EXPECT_GE(fault_.injected_failures(), 1u);
  EXPECT_EQ(std::string(100, 'x'), Get("t-0"));
}

TEST_F(FaultRecoveryTest, ManifestSyncFailureIsReportedInLog) {
  Open();
  // The next MANIFEST sync fails once: the flush's version edit is
  // rejected, reported to the LOG, and retried onto a fresh MANIFEST.
  fault_.SetPathFilter(FaultOp::kSync, "MANIFEST");
  fault_.FailAfter(FaultOp::kSync, 1, Status::IOError("manifest sync lost"));
  FillPastFlush("m");
  ASSERT_TRUE(db_->WaitForCompactions().ok()) << BackgroundError();
  EXPECT_EQ(1u, fault_.injected_failures());

  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, InfoLogFileName("/db"), &log).ok());
  EXPECT_NE(std::string::npos,
            log.find("MANIFEST write: IO error: manifest sync lost"))
      << log;
  EXPECT_EQ(std::string(100, 'x'), Get("m-0"));
}

TEST_F(FaultRecoveryTest, ExhaustedRetriesGoStickyAndResumeRecovers) {
  Open();
  // Every table-file creation fails: the retry budget (2) runs out and
  // the error sticks.
  fault_.SetPathFilter(FaultOp::kNewWritableFile, ".pst");
  fault_.FailAfter(FaultOp::kNewWritableFile, 1,
                   Status::IOError("disk still broken"), /*sticky=*/true);
  ASSERT_GT(FillBestEffort("s"), 0);
  EXPECT_FALSE(db_->WaitForCompactions().ok());
  EXPECT_NE("OK", BackgroundError());

  // Reads still work while degraded; Resume() without fixing the disk
  // must fail and stay degraded.
  EXPECT_EQ(std::string(100, 'x'), Get("s-0"));
  EXPECT_FALSE(db_->Resume().ok());

  // Fix the disk; Resume() clears the error and flushes the backlog.
  fault_.ClearFaults();
  ASSERT_TRUE(db_->Resume().ok()) << BackgroundError();
  EXPECT_EQ("OK", BackgroundError());
  ASSERT_TRUE(db_->Put(WriteOptions(), "after", "resume").ok());
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  EXPECT_EQ("resume", Get("after"));
  EXPECT_EQ(std::string(100, 'x'), Get("s-0"));
}

TEST_F(FaultRecoveryTest, WalSyncFailureFreezesWritesUntilResume) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "before", "ok").ok());

  // A failed WAL sync leaves the tail of the log indeterminate: the write
  // must be rejected and all further writes refused until Resume() rolls
  // the WAL.
  fault_.SetPathFilter(FaultOp::kSync, ".log");
  fault_.FailAfter(FaultOp::kSync, 1, Status::IOError("lost the WAL"),
                   /*sticky=*/true);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  EXPECT_FALSE(db_->Put(sync_wo, "torn", "no").ok());
  EXPECT_NE("OK", BackgroundError());
  EXPECT_FALSE(db_->Put(WriteOptions(), "frozen", "no").ok());

  fault_.ClearFaults();
  ASSERT_TRUE(db_->Resume().ok()) << BackgroundError();
  ASSERT_TRUE(db_->Put(WriteOptions(), "thawed", "yes").ok());
  EXPECT_EQ("ok", Get("before"));
  EXPECT_EQ("yes", Get("thawed"));

  // The pre-freeze state must also survive a reopen (the WAL was rolled).
  Close();
  Open();
  EXPECT_EQ("ok", Get("before"));
  EXPECT_EQ("yes", Get("thawed"));
  EXPECT_EQ("NOT_FOUND", Get("torn"));
  EXPECT_EQ("NOT_FOUND", Get("frozen"));
}

TEST_F(FaultRecoveryTest, FailedCompactionLeaksNoTableFiles) {
  Open();
  FillPastFlush("seed");
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // Break every new table file, then force background work until the
  // error sticks. Partially written outputs must be swept, not leaked.
  fault_.SetPathFilter(FaultOp::kNewWritableFile, ".pst");
  fault_.FailAfter(FaultOp::kNewWritableFile, 1,
                   Status::IOError("no space"), /*sticky=*/true);
  ASSERT_GT(FillBestEffort("more"), 0);
  EXPECT_FALSE(db_->WaitForCompactions().ok());

  fault_.ClearFaults();
  ASSERT_TRUE(db_->Resume().ok()) << BackgroundError();
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // Every .pst on disk must be referenced by the live version.
  std::string sstables;
  ASSERT_TRUE(db_->GetProperty("pipelsm.sstables", &sstables));
  std::vector<std::string> children;
  ASSERT_TRUE(fault_.GetChildren("/db", &children).ok());
  uint64_t number;
  FileType type;
  for (const auto& c : children) {
    if (ParseFileName(c, &number, &type) && type == kTableFile) {
      std::string tag = std::to_string(number) + ":";
      EXPECT_NE(std::string::npos, sstables.find(tag))
          << "leaked table file " << c;
    }
  }
}

TEST_F(FaultRecoveryTest, CrashDuringCurrentInstallKeepsDbOpenable) {
  Open();
  FillPastFlush("a");
  // Make everything durable: the trailing sync persists every earlier
  // WAL record, so the whole fill must survive any later power loss.
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db_->Put(sync_wo, "a-final", "synced").ok());
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  Close();

  // Power fails exactly at the CURRENT rename of the next reopen. The
  // install sequence (synced tmp, rename, SyncDir) must leave either the
  // old or the new CURRENT fully intact — never a torn one.
  fault_.CrashAfter(FaultOp::kRenameFile, 1);
  DB* raw = nullptr;
  Status s = DB::Open(options_, "/db", &raw);
  delete raw;
  ASSERT_TRUE(fault_.crashed());
  ASSERT_TRUE(fault_.DropUnsyncedAndReset().ok());
  fault_.ClearFaults();

  Open();
  EXPECT_EQ(std::string(100, 'x'), Get("a-0"));
  EXPECT_EQ(std::string(100, 'x'), Get("a-899"));
  EXPECT_EQ("synced", Get("a-final"));
}

// Deterministic mini-matrix of the tools/crash_test harness: for every
// executor mode, crash at randomized Env ops, power-cycle, reopen, and
// check that synced writes survive and deletes stay dead.
class CrashMatrixTest : public ::testing::TestWithParam<CompactionMode> {};

TEST_P(CrashMatrixTest, SyncedWritesSurviveRandomCrashPoints) {
  SimEnv base(test::DbDevice(GetParam()));
  FaultInjectionEnv fault(&base);
  Options options;
  options.env = &fault;
  options.create_if_missing = true;
  options.write_buffer_size = 8 << 10;
  options.max_file_size = 16 << 10;
  options.compaction_mode = test::DbExecutor(GetParam());
  options.max_background_retries = 1;
  options.background_retry_backoff_micros = 100;
  options.background_retry_backoff_max_micros = 100;

  // Per key: the durable floor ("" = deleted) plus every later acked but
  // un-synced value. After a crash the key may read as the floor or as
  // any of the later acked values (a background flush may have persisted
  // them even without an explicit user sync) — but never anything else.
  struct KeyModel {
    bool has_base = false;
    std::string base;                // "" = delete
    std::vector<std::string> pend;   // acked since the last sync
    bool Allows(bool exists, const std::string& got) const {
      if (has_base && (exists ? got == base : base.empty())) return true;
      for (const std::string& p : pend) {
        if (exists ? got == p : p.empty()) return true;
      }
      // Never synced and nothing pending survived.
      return !has_base && !exists;
    }
  };
  Random rng(811 + static_cast<int>(GetParam()));
  std::map<std::string, KeyModel> model;
  const FaultOp kOps[] = {FaultOp::kAppend, FaultOp::kSync, FaultOp::kClose,
                          FaultOp::kNewWritableFile, FaultOp::kRenameFile};

  for (int iter = 0; iter < 8; iter++) {
    const FaultOp crash_op = kOps[rng.Uniform(5)];
    const int crash_countdown = 1 + rng.Uniform(40);
    fault.CrashAfter(crash_op, crash_countdown);

    DB* raw = nullptr;
    Status s = DB::Open(options, "/db", &raw);
    std::unique_ptr<DB> db(raw);
    if (s.ok()) {
      for (int op = 0; op < 300 && !fault.crashed(); op++) {
        const std::string key = "k" + std::to_string(rng.Uniform(60));
        const bool del = rng.OneIn(8);
        // Values are padded so each iteration overflows the (64 KiB
        // floor) write buffer and exercises flush + compaction paths.
        const std::string value =
            del ? ""
                : "i" + std::to_string(iter) + "-" + std::to_string(op) +
                      std::string(250, 'v');
        WriteOptions wo;
        wo.sync = (op % 19) == 18;
        Status ws = del ? db->Delete(wo, key) : db->Put(wo, key, value);
        if (!ws.ok()) continue;  // not acked: free to vanish
        model[key].pend.push_back(value);
        if (wo.sync) {
          // A successful sync persists every record before it.
          for (auto& [k, km] : model) {
            if (km.pend.empty()) continue;
            km.has_base = true;
            km.base = km.pend.back();
            km.pend.clear();
          }
        }
      }
    }
    db.reset();
    const bool fired = fault.crashed();
    SCOPED_TRACE(std::string("crash after ") +
                 std::to_string(crash_countdown) + " x " +
                 FaultOpName(crash_op) + (fired ? " (fired)" : " (idle)"));
    fault.ClearFaults();
    ASSERT_TRUE(fault.DropUnsyncedAndReset().ok());

    // Clean reopen: every synced write must still be visible (or shadowed
    // only by a later acked value), and synced deletes must not
    // resurrect older data.
    DB* rraw = nullptr;
    ASSERT_TRUE(DB::Open(options, "/db", &rraw).ok()) << "iter " << iter;
    std::unique_ptr<DB> rdb(rraw);
    for (auto& [k, km] : model) {
      std::string got;
      Status gs = rdb->Get(ReadOptions(), k, &got);
      ASSERT_TRUE(gs.ok() || gs.IsNotFound()) << gs.ToString();
      const bool exists = gs.ok();
      std::string allowed = km.has_base ? "base=\"" + km.base + "\"" : "";
      for (const std::string& p : km.pend) allowed += " pend=\"" + p + "\"";
      EXPECT_TRUE(km.Allows(exists, got))
          << "iter " << iter << " key " << k << " read "
          << (exists ? "\"" + got.substr(0, 12) + "\"" : "<absent>")
          << "; allowed: " << allowed.substr(0, 200);
      // The recovered state is durable (recovery re-persists it); fold
      // it into the floor for the next round.
      km.has_base = true;
      km.base = exists ? got : "";
      km.pend.clear();
    }
  }
}

// Value-log crash matrix: crash points inside vlog append, vlog sync, GC
// rewrite, and segment retirement. Invariants after power-cycle + reopen:
// no synced separated write is lost, no deleted value resurrects, and no
// vlog segment leaks (every .vlog on disk is tracked by the manager).
class VlogCrashTest : public FaultRecoveryTest {
 protected:
  VlogCrashTest() {
    options_.value_separation_threshold = 1024;
    options_.vlog_segment_size = 32 << 10;
  }

  static std::string Big(int i) {
    return "v" + std::to_string(i) + "-" + std::string(4096, 'a' + (i % 26));
  }

  void ExpectNoLeakedVlogSegments() {
    std::string json;
    ASSERT_TRUE(db_->GetProperty("pipelsm.vlog", &json));
    std::vector<std::string> children;
    ASSERT_TRUE(fault_.GetChildren("/db", &children).ok());
    uint64_t number;
    FileType type;
    for (const auto& c : children) {
      if (ParseFileName(c, &number, &type) && type == kVlogFile) {
        EXPECT_NE(std::string::npos,
                  json.find("\"number\":" + std::to_string(number)))
            << "leaked vlog segment " << c;
      }
    }
  }

  // Power-cycle: drop everything unsynced, clear fault rules, reopen.
  void PowerCycleAndReopen() {
    Close();
    fault_.ClearFaults();
    ASSERT_TRUE(fault_.DropUnsyncedAndReset().ok());
    Open();
  }
};

TEST_F(VlogCrashTest, CrashInsideVlogAppendLosesOnlyTheUnackedWrite) {
  for (FaultOp op : {FaultOp::kAppend, FaultOp::kSync}) {
    const std::string tag = FaultOpName(op);
    SCOPED_TRACE(tag);
    Open();
    WriteOptions sync_wo;
    sync_wo.sync = true;
    ASSERT_TRUE(db_->Put(sync_wo, tag + "-durable", Big(0)).ok());

    // Crash mid-append (torn vlog frame) or mid-sync (frame never made
    // durable). Either way the write is not acked, so after the power
    // cycle it must be cleanly absent — never a dangling pointer, never
    // a torn value. Only a synced write syncs the value log.
    fault_.SetPathFilter(op, ".vlog");
    fault_.CrashAfter(op, 1);
    const WriteOptions torn_wo =
        op == FaultOp::kSync ? sync_wo : WriteOptions();
    EXPECT_FALSE(db_->Put(torn_wo, tag + "-torn", Big(1)).ok());
    EXPECT_TRUE(fault_.crashed());
    PowerCycleAndReopen();

    EXPECT_EQ(Big(0), Get(tag + "-durable"));
    EXPECT_EQ("NOT_FOUND", Get(tag + "-torn"));
    ExpectNoLeakedVlogSegments();

    // The recovered log keeps accepting separated writes.
    ASSERT_TRUE(db_->Put(sync_wo, tag + "-after", Big(2)).ok());
    EXPECT_EQ(Big(2), Get(tag + "-after"));
    Close();
  }
}

// The OS may write an unsynced WAL record back before the value frame it
// points at. Replay stops at the first such record: that write and every
// later one read as absent, and everything before it survives.
TEST_F(VlogCrashTest, ReplayStopsAtARecordWhoseFrameWasDropped) {
  Open();
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db_->Put(sync_wo, "durable", Big(0)).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "small-before", "s").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "lost", Big(1)).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "small-after", "t").ok());

  // Power fails before the value log syncs again (the close's sync
  // crashes), but the WAL's unsynced tail reached the disk.
  fault_.SetPathFilter(FaultOp::kSync, ".vlog");
  fault_.CrashAfter(FaultOp::kSync, 1);
  Close();
  ASSERT_TRUE(fault_.crashed());
  fault_.ClearFaults();
  ASSERT_TRUE(fault_.DropUnsyncedAndReset(".log").ok());
  Open();

  EXPECT_EQ(Big(0), Get("durable"));
  EXPECT_EQ("s", Get("small-before"));
  EXPECT_EQ("NOT_FOUND", Get("lost"));
  EXPECT_EQ("NOT_FOUND", Get("small-after")) << "replay went on past it";
  std::string log;
  ASSERT_TRUE(ReadFileToString(&fault_, "/db/LOG", &log).ok());
  EXPECT_NE(std::string::npos, log.find("EVENT wal_replay_stopped"));
  ExpectNoLeakedVlogSegments();

  // The recovered state is durable, and the log accepts new writes.
  ASSERT_TRUE(db_->Put(sync_wo, "after", Big(2)).ok());
  PowerCycleAndReopen();
  EXPECT_EQ(Big(0), Get("durable"));
  EXPECT_EQ("s", Get("small-before"));
  EXPECT_EQ(Big(2), Get("after"));
  EXPECT_EQ("NOT_FOUND", Get("lost"));

  // A frame in a segment that was never synced at all: the segment is
  // gone after the power loss, and it is numbered above every recovered
  // one, so replay stops there too.
  ASSERT_TRUE(db_->Put(WriteOptions(), "lost-too", Big(3)).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "small-last", "u").ok());
  fault_.SetPathFilter(FaultOp::kSync, ".vlog");
  fault_.CrashAfter(FaultOp::kSync, 1);
  Close();
  fault_.ClearFaults();
  ASSERT_TRUE(fault_.DropUnsyncedAndReset(".log").ok());
  Open();
  EXPECT_EQ(Big(2), Get("after"));
  EXPECT_EQ("NOT_FOUND", Get("lost-too"));
  EXPECT_EQ("NOT_FOUND", Get("small-last"));
  ExpectNoLeakedVlogSegments();
}

// A WAL rotation syncs the outgoing log, which makes its unsynced pointer
// records durable, so it syncs their frames first. The crash comes as
// the rotation opens the new log, before any flush.
TEST_F(VlogCrashTest, FramesSurviveAPowerCycleAfterARotation) {
  Open();
  fault_.SetPathFilter(FaultOp::kNewWritableFile, ".log");
  fault_.CrashAfter(FaultOp::kNewWritableFile, 1);
  auto key = [](int i) { return std::string(400, 'k') + std::to_string(i); };
  int acked = 0;
  while (acked < 10000 &&
         db_->Put(WriteOptions(), key(acked), Big(acked)).ok()) {
    acked++;
  }
  ASSERT_TRUE(fault_.crashed());
  ASSERT_GT(acked, 0);
  PowerCycleAndReopen();
  for (int i = 0; i < acked; i++) {
    ASSERT_EQ(Big(i), Get(key(i))) << "write " << i << " of " << acked;
  }
  EXPECT_EQ("NOT_FOUND", Get(key(acked)));
}

// A flush makes the memtable's pointers durable in a table, so it syncs
// their frames first. Resume's flush is the one no WAL sync precedes.
TEST_F(VlogCrashTest, FramesSurviveAPowerCycleAfterAFlush) {
  Open();
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), Big(i)).ok());
  }
  fault_.SetPathFilter(FaultOp::kAppend, ".log");
  fault_.FailAfter(FaultOp::kAppend, 1);
  EXPECT_FALSE(db_->Put(WriteOptions(), "failed", Big(9)).ok());
  fault_.ClearFaults();
  ASSERT_TRUE(db_->Resume().ok());

  // Power fails before anything else syncs the value log.
  fault_.SetPathFilter(FaultOp::kSync, ".vlog");
  fault_.CrashAfter(FaultOp::kSync, 1);
  PowerCycleAndReopen();
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(Big(i), Get("k" + std::to_string(i)));
  }
  EXPECT_EQ("NOT_FOUND", Get("failed"));
}

TEST_F(VlogCrashTest, CrashDuringGcRewriteNeitherLosesNorResurrects) {
  Open();
  // Two dozen 4 KiB separated values across several 32 KiB segments,
  // then delete the even half so GC has both live and dead frames.
  for (int i = 0; i < 24; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), Big(i)).ok());
  }
  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 24; i += 2) {
    ASSERT_TRUE(db_->Delete(i == 22 ? sync_wo : WriteOptions(),
                            "k" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // Crash on a vlog append a few copies into the GC rewrite: the new
  // partial segment holds copies whose pointers never committed.
  fault_.SetPathFilter(FaultOp::kAppend, ".vlog");
  fault_.CrashAfter(FaultOp::kAppend, 3);
  EXPECT_FALSE(db_->CompactValueLog().ok());
  EXPECT_TRUE(fault_.crashed());
  PowerCycleAndReopen();

  for (int i = 0; i < 24; i++) {
    const std::string key = "k" + std::to_string(i);
    if (i % 2 == 0) {
      EXPECT_EQ("NOT_FOUND", Get(key)) << key;  // deletes stay dead
    } else {
      EXPECT_EQ(Big(i), Get(key)) << key;  // live values survive the crash
    }
  }
  ExpectNoLeakedVlogSegments();

  // A clean GC pass after recovery still reclaims the dead half and the
  // abandoned partial rewrite.
  ASSERT_TRUE(db_->CompactValueLog().ok());
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  for (int i = 1; i < 24; i += 2) {
    EXPECT_EQ(Big(i), Get("k" + std::to_string(i)));
  }
  ExpectNoLeakedVlogSegments();
}

TEST_F(VlogCrashTest, CrashDuringSegmentRetirementLeaksNoSegments) {
  Open();
  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "d" + std::to_string(i), Big(i)).ok());
  }
  ASSERT_TRUE(db_->Put(sync_wo, "keep", Big(99)).ok());
  // Kill every separated value so GC retires whole segments.
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(db_->Delete(i == 11 ? sync_wo : WriteOptions(),
                            "d" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // Crash at the unlink of the first retired segment. The segment file
  // may survive the crash, but recovery must re-adopt it (no orphan) and
  // the next GC pass must finish the retirement.
  fault_.SetPathFilter(FaultOp::kRemoveFile, ".vlog");
  fault_.CrashAfter(FaultOp::kRemoveFile, 1);
  db_->CompactValueLog();  // may or may not report the crash
  EXPECT_TRUE(fault_.crashed());
  PowerCycleAndReopen();

  EXPECT_EQ(Big(99), Get("keep"));
  for (int i = 0; i < 12; i++) {
    EXPECT_EQ("NOT_FOUND", Get("d" + std::to_string(i)));
  }
  ExpectNoLeakedVlogSegments();

  ASSERT_TRUE(db_->CompactValueLog().ok());
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  EXPECT_EQ(Big(99), Get("keep"));
  ExpectNoLeakedVlogSegments();
}

// Randomized end-to-end sweep with separation on: same oracle as
// CrashMatrixTest but with 4 KiB values flowing through the value log and
// periodic CompactValueLog() calls so GC commit/retire paths sit inside
// the crash window too.
TEST_F(VlogCrashTest, RandomCrashPointsKeepSeparatedWritesConsistent) {
  options_.write_buffer_size = 64 << 10;
  options_.max_file_size = 64 << 10;
  Random rng(4096);
  // Per key: the durable floor ("" = deleted) plus every acked-but-unsynced
  // value since. After a crash the key may read as the floor or any later
  // acked value (background flushes persist without a user sync) — never
  // anything else, and never a torn/garbage value.
  struct KeyModel {
    bool has_base = false;
    std::string base;               // "" = delete
    std::vector<std::string> pend;  // acked since the last sync
    bool Allows(bool exists, const std::string& got) const {
      if (has_base && (exists ? got == base : base.empty())) return true;
      for (const std::string& p : pend) {
        if (exists ? got == p : p.empty()) return true;
      }
      return !has_base && !exists;
    }
  };
  std::map<std::string, KeyModel> model;
  const FaultOp kOps[] = {FaultOp::kAppend, FaultOp::kSync,
                          FaultOp::kRemoveFile, FaultOp::kRenameFile};

  for (int iter = 0; iter < 6; iter++) {
    const FaultOp crash_op = kOps[iter % 4];
    fault_.SetPathFilter(crash_op, ".vlog");
    fault_.CrashAfter(crash_op, 1 + rng.Uniform(25));
    SCOPED_TRACE(std::string("iter ") + std::to_string(iter) + " op " +
                 FaultOpName(crash_op));

    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    std::unique_ptr<DB> db(raw);
    if (s.ok()) {
      for (int op = 0; op < 120 && !fault_.crashed(); op++) {
        const std::string key = "r" + std::to_string(rng.Uniform(30));
        const bool del = rng.OneIn(6);
        const std::string value = del ? "" : Big(iter * 1000 + op);
        WriteOptions wo;
        wo.sync = (op % 17) == 16;
        Status ws = del ? db->Delete(wo, key) : db->Put(wo, key, value);
        if (!ws.ok()) continue;  // not acked: free to vanish
        model[key].pend.push_back(value);
        if (wo.sync) {
          // A successful sync persists every record before it.
          for (auto& [k, km] : model) {
            if (km.pend.empty()) continue;
            km.has_base = true;
            km.base = km.pend.back();
            km.pend.clear();
          }
        }
        // Put GC commit + retirement inside the crash window too.
        if (op == 60 && !fault_.crashed()) db->CompactValueLog();
      }
    }
    db.reset();
    fault_.ClearFaults();
    ASSERT_TRUE(fault_.DropUnsyncedAndReset().ok());

    Open();
    for (auto& [k, km] : model) {
      std::string got;
      Status gs = db_->Get(ReadOptions(), k, &got);
      ASSERT_TRUE(gs.ok() || gs.IsNotFound()) << k << ": " << gs.ToString();
      const bool exists = gs.ok();
      EXPECT_TRUE(km.Allows(exists, got))
          << "key " << k << " read "
          << (exists ? "\"" + got.substr(0, 12) + "...\"" : "<absent>");
      // Recovery re-persists what it kept: fold into the floor.
      km.has_base = true;
      km.base = exists ? got : "";
      km.pend.clear();
    }
    ExpectNoLeakedVlogSegments();
    Close();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, CrashMatrixTest,
                         ::testing::Values(CompactionMode::kSCP,
                                           CompactionMode::kPCP,
                                           CompactionMode::kSPPCP,
                                           CompactionMode::kCPPCP),
                         [](const ::testing::TestParamInfo<CompactionMode>&
                                info) {
                           std::string name = CompactionModeName(info.param);
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

}  // namespace
}  // namespace pipelsm
