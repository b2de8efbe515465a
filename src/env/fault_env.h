// FaultInjectionEnv: an Env wrapper that makes every storage error path
// testable.
//
// Three capabilities, composable (docs/FAULT_INJECTION.md):
//   1. Fault rules — any Env operation (by FaultOp kind, optionally
//      filtered to paths containing a substring) can be made to fail with
//      a chosen Status, either with a probability, after a countdown of
//      matching calls, or stickily; rules can also inject latency.
//   2. Power-loss emulation — the wrapper tracks how many bytes of each
//      writable file have been Sync()ed and which files have ever been
//      synced at all; DropUnsyncedAndReset() rewinds the wrapped
//      filesystem to the last power-safe state (unsynced tails dropped,
//      never-synced files removed). Renames and removals are modeled as
//      journaled metadata ops: durable immediately.
//   3. Crash points — a rule with crash=true flips the env into a
//      "crashed" state when it triggers: every subsequent operation fails
//      until DropUnsyncedAndReset(), emulating process death at exactly
//      that call site.
//
// Thread-safe: DB background threads hit the env concurrently.
#pragma once

#include <array>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "src/env/env.h"
#include "src/util/random.h"

namespace pipelsm {

// Operation kinds a fault rule can target.
enum class FaultOp {
  kNewSequentialFile = 0,
  kNewRandomAccessFile,
  kNewWritableFile,
  kNewAppendableFile,
  kRead,        // SequentialFile/RandomAccessFile reads
  kAppend,      // WritableFile::Append
  kSync,        // WritableFile::Sync
  kClose,       // WritableFile::Close
  kGetChildren,
  kRemoveFile,
  kRenameFile,
  kSyncDir,
  kNumOps  // sentinel
};

const char* FaultOpName(FaultOp op);

// Parses the names FaultOpName emits ("sync", "append", ...). Returns
// false for unknown names.
bool ParseFaultOp(const std::string& name, FaultOp* op);

class FaultInjectionEnv final : public Env {
 public:
  // `base` must outlive this env. `seed` drives probability rules.
  explicit FaultInjectionEnv(Env* base, uint32_t seed = 301);
  ~FaultInjectionEnv() override;

  Env* base() { return base_; }

  // ---- fault rules (one active rule per op kind) ----

  // Every matching call fails with `error` with probability p in [0,1].
  void SetErrorProbability(FaultOp op, double p,
                           Status error = Status::IOError("injected fault"));

  // The countdown-th matching call (1 = the next one) fails once with
  // `error`; if `sticky`, every matching call from then on fails too.
  void FailAfter(FaultOp op, int countdown,
                 Status error = Status::IOError("injected fault"),
                 bool sticky = false);

  // The countdown-th matching call triggers a simulated crash: it fails
  // and the env enters the crashed state (every later op fails) until
  // DropUnsyncedAndReset().
  void CrashAfter(FaultOp op, int countdown);

  // Matching calls sleep this long before executing (on top of any
  // failure rule).
  void SetDelayMicros(FaultOp op, int delay_micros);

  // Restrict the op's rule to paths containing `substr` (counters still
  // count only matching calls).
  void SetPathFilter(FaultOp op, std::string substr);

  void ClearFaults();

  // Calls observed for `op` (post path-filter) since construction or the
  // last ClearCounters().
  uint64_t counter(FaultOp op) const;
  void ClearCounters();

  // Injected failures delivered so far (all ops).
  uint64_t injected_failures() const;

  // ---- power loss / crash state ----

  bool crashed() const;

  // Rewind the wrapped filesystem to the last power-safe state: truncate
  // every tracked file to its last synced size, remove files that were
  // never synced (and not covered by a SyncDir), forget tracking state,
  // clear the crashed flag. Fault rules stay armed unless cleared.
  Status DropUnsyncedAndReset();

  // Total bytes currently appended-but-unsynced across open files.
  uint64_t UnsyncedBytes() const;

  // ---- Env interface ----
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src,
                    const std::string& target) override;
  Status SyncDir(const std::string& dirname) override;
  uint64_t PreferredReadBytes() override;
  uint64_t NowMicros() override;
  void SleepForMicroseconds(int micros) override;

 private:
  friend class FaultWritableFile;
  friend class FaultSequentialFile;
  friend class FaultRandomAccessFile;

  struct Rule {
    bool armed = false;
    Status error;
    double probability = 0.0;  // random failures
    int countdown = 0;         // >0: fail when the countdown reaches 0
    bool sticky = false;       // keep failing after the first trigger
    bool crash = false;        // trigger flips the env into crashed state
    int delay_micros = 0;
    std::string path_substr;   // empty = match every path
  };

  // Durability bookkeeping for one file created/opened through us.
  struct FileState {
    uint64_t synced_size = 0;  // bytes guaranteed to survive power loss
    uint64_t size = 0;         // current logical size
    bool ever_synced = false;  // entry survives power loss
  };

  // Counts the call, applies delay, and returns the injected error if the
  // op's rule (or the crashed state) fires. OK means "proceed to base".
  Status Check(FaultOp op, const std::string& path);

  // File write hooks (called by the wrapper file objects).
  void OnAppend(const std::string& fname, uint64_t new_size);
  void OnSync(const std::string& fname);

  Env* const base_;
  mutable std::mutex mu_;
  Random rng_;
  bool crashed_ = false;
  uint64_t injected_failures_ = 0;
  std::array<Rule, static_cast<size_t>(FaultOp::kNumOps)> rules_;
  std::array<uint64_t, static_cast<size_t>(FaultOp::kNumOps)> counters_{};
  std::map<std::string, FileState> files_;
};

}  // namespace pipelsm
