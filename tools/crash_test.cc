// crash_test: randomized crash/recovery loop over the fault-injection Env
// (docs/FAULT_INJECTION.md).
//
// Each iteration opens the DB, runs a keyed write workload (puts +
// deletes, every sync_every-th op with WriteOptions::sync), and arms one
// random crash point — an Env operation (WAL append/sync, table or
// manifest create, rename, close, dir sync) that kills the "process"
// after a random countdown. When the crash fires, every later Env call
// fails, the DB object is torn down, unsynced bytes are dropped to
// emulate power loss, and the DB is reopened cleanly. The run fails if:
//
//   1. a reopen after a crash does not succeed,
//   2. any key whose write was acknowledged under sync is lost,
//   3. any delete acknowledged under sync resurrects an old value
//      (unless a later unsynced write legitimately re-put it),
//   4. a key reads back a value that was never written for it, or
//   5. table files leak: after reopen + compaction drain, a .pst file on
//      disk is neither live in the version nor pending.
//
// The durability model: a successful sync write persists every prior WAL
// record; power loss keeps some op-prefix of the unsynced tail. So after
// a crash each key must read back its last synced value or any later
// unsynced value (background flushes may persist past the sync barrier).
//
//   crash_test [--iterations=N] [--ops=N] [--mode=all|scp|pcp|cppcp]
//              [--env=sim|posix] [--db=PATH] [--seed=N] [--sync_every=N]
//              [--value_threshold=N] [--verbose]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/util/random.h"

namespace pipelsm {
namespace {

struct Flags {
  int iterations = 200;
  int ops = 2000;
  std::string mode = "all";
  std::string env = "sim";
  std::string db = "/crashdb";
  uint32_t seed = 301;
  int sync_every = 16;
  // > 0 turns on key-value separation: values this size or larger go to
  // the value log, vlog-targeted crash points join the rotation, and the
  // workload mixes in 4 KiB values plus periodic CompactValueLog() calls.
  int value_threshold = 0;
  bool verbose = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  std::string v;
  if (!ParseFlag(arg, name, &v)) return false;
  *out = std::atoi(v.c_str());
  return true;
}

// What a key may legally read back after a crash: the value at the last
// successful sync barrier plus everything acknowledged since (any
// op-prefix of the unsynced WAL tail may survive power loss).
struct KeyState {
  bool synced_exists = false;
  std::string synced_value;
  // Acknowledged but not yet covered by a sync barrier, oldest first.
  std::vector<std::pair<bool, std::string>> pending;  // (exists, value)

  bool Allows(bool exists, const std::string& value) const {
    if (exists == synced_exists && (!exists || value == synced_value)) {
      return true;
    }
    for (const auto& [e, v] : pending) {
      if (e == exists && (!exists || v == value)) return true;
    }
    return false;
  }

  std::string AllowedToString() const {
    std::string out = synced_exists ? "\"" + synced_value + "\"" : "<absent>";
    for (const auto& [e, v] : pending) {
      out += e ? " | \"" + v + "\"" : " | <absent>";
    }
    return out;
  }
};

using Model = std::map<std::string, KeyState>;

// A successful sync persists every previously acknowledged record.
void PromoteAll(Model* model) {
  for (auto& [key, st] : *model) {
    (void)key;
    if (!st.pending.empty()) {
      st.synced_exists = st.pending.back().first;
      st.synced_value = st.pending.back().second;
      st.pending.clear();
    }
  }
}

// Crash-point candidates with a countdown ceiling proportional to how
// often the op fires, so rare ops (renames, dir syncs) still get hit
// within one iteration's workload.
struct CrashPoint {
  FaultOp op;
  int max_countdown;
  const char* path_filter = nullptr;  // restrict the op to matching paths
};
const CrashPoint kCrashPoints[] = {
    {FaultOp::kAppend, 300},        // WAL records + table blocks
    {FaultOp::kSync, 30},           // WAL sync + table/manifest sync
    {FaultOp::kNewWritableFile, 8}, // WAL roll, flush + compaction outputs
    {FaultOp::kClose, 8},
    {FaultOp::kRenameFile, 2},      // CURRENT install
    {FaultOp::kSyncDir, 2},
    {FaultOp::kRead, 12, ".pst"},   // table opens: flush + S7 read-back,
                                    // compaction inputs; S1 reads
};
// Joined in when --value_threshold is set: crash inside vlog appends
// (user writes + GC rewrites), vlog syncs (the barrier before every WAL
// sync, WAL rotation and flush), and segment retirement unlinks.
const CrashPoint kVlogCrashPoints[] = {
    {FaultOp::kAppend, 40, ".vlog"},
    {FaultOp::kSync, 10, ".vlog"},
    {FaultOp::kRemoveFile, 2, ".vlog"},
};

class CrashTester {
 public:
  CrashTester(const Flags& flags, CompactionMode mode, Env* base)
      : flags_(flags), mode_(mode), fault_(base, flags.seed), rng_(flags.seed) {
    options_.env = &fault_;
    options_.create_if_missing = true;
    options_.compaction_mode = mode;
    options_.write_buffer_size = 64 << 10;  // small, so crashes land inside
    options_.max_file_size = 64 << 10;      // flushes and compactions often
    options_.max_background_retries = 1;    // fail fast once crashed
    options_.background_retry_backoff_micros = 100;
    options_.background_retry_backoff_max_micros = 100;
    crash_points_.assign(std::begin(kCrashPoints), std::end(kCrashPoints));
    if (flags.value_threshold > 0) {
      options_.value_separation_threshold =
          static_cast<size_t>(flags.value_threshold);
      options_.vlog_segment_size = 64 << 10;  // several segments per iter
      crash_points_.insert(crash_points_.end(), std::begin(kVlogCrashPoints),
                           std::end(kVlogCrashPoints));
    }
  }

  // Returns the number of verification failures.
  int Run() {
    DestroyDB(flags_.db, options_);
    int failures = 0;
    for (int iter = 0; iter < flags_.iterations; iter++) {
      failures += RunIteration(iter);
      if (failures > 10) break;  // drowning: stop the noise
    }
    std::printf(
        "[%s] %d iterations: %d crashes fired, %" PRIu64
        " injected failures, %d ops acked, %d verification failures\n",
        CompactionModeName(mode_), flags_.iterations, crashes_fired_,
        fault_.injected_failures(), acked_ops_, failures);
    return failures;
  }

 private:
  int RunIteration(int iter) {
    // Arm one crash point before open, so recovery/flush/compaction code
    // paths can be hit too, not just the write path.
    const CrashPoint& point =
        crash_points_[rng_.Uniform(static_cast<int>(crash_points_.size()))];
    const FaultOp op = point.op;
    const int countdown =
        1 + static_cast<int>(rng_.Uniform(point.max_countdown));
    fault_.ClearFaults();
    fault_.CrashAfter(op, countdown);
    if (point.path_filter != nullptr) {
      fault_.SetPathFilter(op, point.path_filter);
    }
    if (flags_.verbose) {
      std::printf("iter %d: crash after %d x %s%s%s\n", iter, countdown,
                  FaultOpName(op), point.path_filter != nullptr ? " @" : "",
                  point.path_filter != nullptr ? point.path_filter : "");
    }

    DB* raw = nullptr;
    Status s = DB::Open(options_, flags_.db, &raw);
    std::unique_ptr<DB> db(raw);
    if (s.ok()) {
      RunWorkload(db.get(), iter);
    }
    // else: the crash fired inside Open/recovery — nothing was acked.
    db.reset();

    if (fault_.crashed()) crashes_fired_++;

    // Power loss: drop unsynced bytes, clear the crash, disarm rules.
    fault_.ClearFaults();
    Status drop = fault_.DropUnsyncedAndReset();
    if (!drop.ok()) {
      std::fprintf(stderr, "iter %d: DropUnsyncedAndReset: %s\n", iter,
                   drop.ToString().c_str());
      return 1;
    }

    // Reopen cleanly and verify the model.
    raw = nullptr;
    s = DB::Open(options_, flags_.db, &raw);
    db.reset(raw);
    if (!s.ok()) {
      std::fprintf(stderr, "iter %d: reopen after crash failed: %s\n", iter,
                   s.ToString().c_str());
      return 1;
    }
    int failures = Verify(db.get(), iter);
    failures += CheckNoLeakedTables(db.get(), iter);
    return failures;
  }

  void RunWorkload(DB* db, int iter) {
    for (int op = 0; op < flags_.ops && !fault_.crashed(); op++) {
      const std::string key =
          "key-" + std::to_string(rng_.Uniform(400));
      const bool is_delete = rng_.OneIn(10);
      const bool sync = (op % flags_.sync_every) == flags_.sync_every - 1;
      WriteOptions wo;
      wo.sync = sync;
      Status s;
      std::string value;
      if (is_delete) {
        s = db->Delete(wo, key);
      } else {
        // Padded so a full iteration overflows the write buffer and
        // rotates the WAL mid-workload (the rotation fsync path). With
        // separation on, half the values are large enough to take the
        // value-log path instead.
        const bool separated =
            flags_.value_threshold > 0 && rng_.OneIn(2);
        value = "v" + std::to_string(iter) + "-" + std::to_string(op) +
                std::string(separated ? 4096 : 80, 'p');
        s = db->Put(wo, key, value);
      }
      if (!s.ok()) {
        // Not acknowledged: must not be required to survive (a rejected
        // write also never reached the WAL, so it cannot survive as a
        // pending value either).
        continue;
      }
      acked_ops_++;
      KeyState& st = model_[key];
      st.pending.emplace_back(!is_delete, value);
      if (sync) {
        // This sync persisted every record before it.
        PromoteAll(&model_);
      }
      // Periodically drive GC so rewrite commits and segment retirement
      // sit inside the crash window too.
      if (flags_.value_threshold > 0 && (op % 257) == 256 &&
          !fault_.crashed()) {
        db->CompactValueLog();
      }
    }
  }

  int Verify(DB* db, int iter) {
    int failures = 0;
    for (auto& [key, st] : model_) {
      std::string value;
      Status s = db->Get(ReadOptions(), key, &value);
      bool exists = s.ok();
      if (!s.ok() && !s.IsNotFound()) {
        std::fprintf(stderr, "iter %d: Get(%s) error: %s\n", iter,
                     key.c_str(), s.ToString().c_str());
        failures++;
        continue;
      }
      if (!st.Allows(exists, value)) {
        std::fprintf(stderr,
                     "iter %d: key %s read back %s; allowed: %s\n", iter,
                     key.c_str(),
                     exists ? ("\"" + value + "\"").c_str() : "<absent>",
                     st.AllowedToString().c_str());
        failures++;
      }
      // A successful reopen re-persisted whatever survived; collapse the
      // model onto the observed state.
      st.synced_exists = exists;
      st.synced_value = value;
      st.pending.clear();
    }
    return failures;
  }

  // After reopen + compaction drain every table file on disk must be live
  // in the current version — anything else leaked from a failed job.
  int CheckNoLeakedTables(DB* db, int iter) {
    Status s = db->WaitForCompactions();
    if (!s.ok()) {
      std::fprintf(stderr, "iter %d: WaitForCompactions: %s\n", iter,
                   s.ToString().c_str());
      return 1;
    }
    std::string sstables;
    if (!db->GetProperty("pipelsm.sstables", &sstables)) return 1;
    // Version::DebugString lines look like " NUMBER:SIZE[key .. key]".
    std::set<uint64_t> live;
    const char* p = sstables.c_str();
    while (*p != '\0') {
      if ((p == sstables.c_str() || p[-1] == '\n' || p[-1] == ' ') &&
          *p >= '0' && *p <= '9') {
        char* end = nullptr;
        uint64_t n = std::strtoull(p, &end, 10);
        if (end != nullptr && *end == ':') {
          live.insert(n);
          p = end;
          continue;
        }
      }
      p++;
    }

    // With separation on, every .vlog segment on disk must be tracked by
    // the manager ("number":N in the pipelsm.vlog JSON) — anything else
    // leaked from a crashed GC rewrite or half-finished retirement.
    std::string vlog_json;
    if (flags_.value_threshold > 0 &&
        !db->GetProperty("pipelsm.vlog", &vlog_json)) {
      return 1;
    }

    std::vector<std::string> children;
    if (!fault_.GetChildren(flags_.db, &children).ok()) return 1;
    int leaks = 0;
    for (const std::string& c : children) {
      uint64_t number;
      FileType type;
      if (!ParseFileName(c, &number, &type)) continue;
      if (type == kTableFile && live.find(number) == live.end()) {
        std::fprintf(stderr, "iter %d: leaked table file %s\n", iter,
                     c.c_str());
        leaks++;
      } else if (type == kVlogFile &&
                 vlog_json.find("\"number\":" + std::to_string(number)) ==
                     std::string::npos) {
        std::fprintf(stderr, "iter %d: leaked vlog segment %s\n", iter,
                     c.c_str());
        leaks++;
      }
    }
    if (leaks > 0 && flags_.verbose) {
      std::fprintf(stderr, "--- live version at iter %d ---\n%s", iter,
                   sstables.c_str());
      std::string current;
      ReadFileToString(&fault_, flags_.db + "/CURRENT", &current);
      std::fprintf(stderr, "CURRENT -> %s", current.c_str());
      std::string dir;
      for (const std::string& c : children) dir += " " + c;
      std::fprintf(stderr, "dir:%s\n", dir.c_str());
    }
    return leaks;
  }

  const Flags flags_;
  const CompactionMode mode_;
  std::vector<CrashPoint> crash_points_;
  FaultInjectionEnv fault_;
  Random rng_;
  Options options_;
  Model model_;
  int crashes_fired_ = 0;
  int acked_ops_ = 0;
};

int RunAll(const Flags& flags) {
  std::vector<CompactionMode> modes;
  if (flags.mode == "all") {
    modes = {CompactionMode::kSCP, CompactionMode::kPCP,
             CompactionMode::kCPPCP};
  } else {
    CompactionMode mode;
    Status s = ParseCompactionMode(flags.mode, &mode);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
    modes = {mode};
  }

  int failures = 0;
  for (CompactionMode mode : modes) {
    Flags per_mode = flags;
    per_mode.iterations =
        std::max(1, flags.iterations / static_cast<int>(modes.size()));
    per_mode.seed = flags.seed + static_cast<uint32_t>(mode) * 7919;
    if (flags.env == "sim") {
      SimEnv env;
      CrashTester tester(per_mode, mode, &env);
      failures += tester.Run();
    } else if (flags.env == "posix") {
      CrashTester tester(per_mode, mode, Env::Posix());
      failures += tester.Run();
    } else {
      std::fprintf(stderr, "unknown env '%s'\n", flags.env.c_str());
      return 2;
    }
  }
  if (failures == 0) {
    std::printf("crash_test PASS\n");
  } else {
    std::printf("crash_test FAIL: %d verification failures\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pipelsm

int main(int argc, char** argv) {
  pipelsm::Flags flags;
  for (int i = 1; i < argc; i++) {
    std::string v;
    if (pipelsm::ParseIntFlag(argv[i], "iterations", &flags.iterations) ||
        pipelsm::ParseIntFlag(argv[i], "ops", &flags.ops) ||
        pipelsm::ParseFlag(argv[i], "mode", &flags.mode) ||
        pipelsm::ParseFlag(argv[i], "env", &flags.env) ||
        pipelsm::ParseFlag(argv[i], "db", &flags.db) ||
        pipelsm::ParseIntFlag(argv[i], "sync_every", &flags.sync_every) ||
        pipelsm::ParseIntFlag(argv[i], "value_threshold",
                              &flags.value_threshold)) {
      continue;
    } else if (pipelsm::ParseFlag(argv[i], "seed", &v)) {
      flags.seed = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      flags.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (flags.env == "posix" && flags.db == "/crashdb") {
    flags.db = "/tmp/pipelsm_crash_test";
  }
  if (flags.sync_every < 1) flags.sync_every = 1;
  return pipelsm::RunAll(flags);
}
