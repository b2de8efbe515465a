#include "src/env/fault_env.h"

#include <cstring>

namespace pipelsm {

namespace {

const char* const kOpNames[] = {
    "new_sequential_file", "new_random_access_file", "new_writable_file",
    "new_appendable_file", "read",                   "append",
    "sync",                "close",                  "get_children",
    "remove_file",         "rename_file",            "sync_dir",
};
static_assert(sizeof(kOpNames) / sizeof(kOpNames[0]) ==
                  static_cast<size_t>(FaultOp::kNumOps),
              "kOpNames out of sync with FaultOp");

Status CrashedError() { return Status::IOError("simulated crash"); }

}  // namespace

const char* FaultOpName(FaultOp op) {
  return kOpNames[static_cast<size_t>(op)];
}

bool ParseFaultOp(const std::string& name, FaultOp* op) {
  for (size_t i = 0; i < static_cast<size_t>(FaultOp::kNumOps); i++) {
    if (name == kOpNames[i]) {
      *op = static_cast<FaultOp>(i);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// File wrappers
// ---------------------------------------------------------------------------

class FaultSequentialFile final : public SequentialFile {
 public:
  FaultSequentialFile(FaultInjectionEnv* env, std::string fname,
                      std::unique_ptr<SequentialFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = env_->Check(FaultOp::kRead, fname_);
    if (!s.ok()) return s;
    return base_->Read(n, result, scratch);
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<SequentialFile> base_;
};

class FaultRandomAccessFile final : public RandomAccessFile {
 public:
  FaultRandomAccessFile(FaultInjectionEnv* env, std::string fname,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = env_->Check(FaultOp::kRead, fname_);
    if (!s.ok()) return s;
    return base_->Read(offset, n, result, scratch);
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<RandomAccessFile> base_;
};

class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string fname,
                    std::unique_ptr<WritableFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    Status s = env_->Check(FaultOp::kAppend, fname_);
    if (!s.ok()) return s;
    s = base_->Append(data);
    if (s.ok()) {
      env_->OnAppend(fname_, data.size());
    }
    return s;
  }

  Status Close() override {
    Status s = env_->Check(FaultOp::kClose, fname_);
    if (!s.ok()) return s;
    return base_->Close();
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    Status s = env_->Check(FaultOp::kSync, fname_);
    if (!s.ok()) return s;
    s = base_->Sync();
    if (s.ok()) {
      env_->OnSync(fname_);
    }
    return s;
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<WritableFile> base_;
};

// ---------------------------------------------------------------------------
// FaultInjectionEnv
// ---------------------------------------------------------------------------

FaultInjectionEnv::FaultInjectionEnv(Env* base, uint32_t seed)
    : base_(base), rng_(seed) {}

FaultInjectionEnv::~FaultInjectionEnv() = default;

void FaultInjectionEnv::SetErrorProbability(FaultOp op, double p,
                                            Status error) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule& r = rules_[static_cast<size_t>(op)];
  r.armed = true;
  r.error = std::move(error);
  r.probability = p;
  r.countdown = 0;
  r.sticky = false;
  r.crash = false;
}

void FaultInjectionEnv::FailAfter(FaultOp op, int countdown, Status error,
                                  bool sticky) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule& r = rules_[static_cast<size_t>(op)];
  r.armed = true;
  r.error = std::move(error);
  r.probability = 0.0;
  r.countdown = countdown;
  r.sticky = sticky;
  r.crash = false;
}

void FaultInjectionEnv::CrashAfter(FaultOp op, int countdown) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule& r = rules_[static_cast<size_t>(op)];
  r.armed = true;
  r.error = CrashedError();
  r.probability = 0.0;
  r.countdown = countdown;
  r.sticky = false;
  r.crash = true;
}

void FaultInjectionEnv::SetDelayMicros(FaultOp op, int delay_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule& r = rules_[static_cast<size_t>(op)];
  r.armed = true;
  r.delay_micros = delay_micros;
}

void FaultInjectionEnv::SetPathFilter(FaultOp op, std::string substr) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_[static_cast<size_t>(op)].path_substr = std::move(substr);
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Rule& r : rules_) {
    r = Rule{};
  }
}

uint64_t FaultInjectionEnv::counter(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[static_cast<size_t>(op)];
}

void FaultInjectionEnv::ClearCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.fill(0);
}

uint64_t FaultInjectionEnv::injected_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_failures_;
}

bool FaultInjectionEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

uint64_t FaultInjectionEnv::UnsyncedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, state] : files_) {
    (void)name;
    total += state.size - state.synced_size;
  }
  return total;
}

Status FaultInjectionEnv::Check(FaultOp op, const std::string& path) {
  int delay_micros = 0;
  Status result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) {
      return CrashedError();
    }
    Rule& r = rules_[static_cast<size_t>(op)];
    if (!r.path_substr.empty() &&
        path.find(r.path_substr) == std::string::npos) {
      return Status::OK();  // filtered out: not counted, not failed
    }
    counters_[static_cast<size_t>(op)]++;
    if (!r.armed) {
      return Status::OK();
    }
    delay_micros = r.delay_micros;

    bool fire = false;
    if (r.countdown > 0) {
      if (--r.countdown == 0) {
        fire = true;
        if (r.sticky || r.crash) {
          r.countdown = -1;  // keep failing (sticky) / env is crashed anyway
        }
      }
    } else if (r.countdown == -1) {
      fire = true;  // sticky rule already triggered
    } else if (r.probability > 0.0) {
      fire = (rng_.Next() % 1000000) < r.probability * 1e6;
    }

    if (fire) {
      injected_failures_++;
      if (r.crash) {
        crashed_ = true;
      }
      result = r.error;
    }
  }
  if (delay_micros > 0) {
    base_->SleepForMicroseconds(delay_micros);
  }
  return result;
}

void FaultInjectionEnv::OnAppend(const std::string& fname, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[fname].size += n;
}

void FaultInjectionEnv::OnSync(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(fname);
  if (it != files_.end()) {
    it->second.synced_size = it->second.size;
    it->second.ever_synced = true;
  }
}

Status FaultInjectionEnv::DropUnsyncedAndReset(
    const std::string& keep_unsynced) {
  std::map<std::string, FileState> files;
  {
    std::lock_guard<std::mutex> lock(mu_);
    files.swap(files_);
    crashed_ = false;
  }
  Status result;
  for (const auto& [fname, state] : files) {
    Status s;
    if (!keep_unsynced.empty() &&
        fname.find(keep_unsynced) != std::string::npos) {
      // Written back before the power loss: nothing to drop.
    } else if (!state.ever_synced) {
      // Creation never made durable: the file vanishes. (A rename or an
      // explicit SyncDir would have marked it durable.)
      s = base_->RemoveFile(fname);
      if (s.IsNotFound()) s = Status::OK();
    } else if (state.synced_size < state.size) {
      // Keep only the synced prefix. Rewritten through the base env so
      // this works over any backing filesystem, not just SimEnv.
      std::string data;
      s = ReadFileToString(base_, fname, &data);
      if (s.ok()) {
        data.resize(std::min<uint64_t>(state.synced_size, data.size()));
        s = base_->RemoveFile(fname);
        if (s.ok()) {
          s = WriteStringToFile(base_, data, fname, false);
        }
      }
    }
    if (result.ok() && !s.ok()) {
      result = s;
    }
  }
  return result;
}

Status FaultInjectionEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  Status s = Check(FaultOp::kNewSequentialFile, fname);
  if (!s.ok()) return s;
  std::unique_ptr<SequentialFile> base_file;
  s = base_->NewSequentialFile(fname, &base_file);
  if (!s.ok()) return s;
  result->reset(new FaultSequentialFile(this, fname, std::move(base_file)));
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  Status s = Check(FaultOp::kNewRandomAccessFile, fname);
  if (!s.ok()) return s;
  std::unique_ptr<RandomAccessFile> base_file;
  s = base_->NewRandomAccessFile(fname, &base_file);
  if (!s.ok()) return s;
  result->reset(new FaultRandomAccessFile(this, fname, std::move(base_file)));
  return Status::OK();
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  Status s = Check(FaultOp::kNewWritableFile, fname);
  if (!s.ok()) return s;
  std::unique_ptr<WritableFile> base_file;
  s = base_->NewWritableFile(fname, &base_file);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_[fname] = FileState{};  // fresh, empty, not yet durable
  }
  result->reset(new FaultWritableFile(this, fname, std::move(base_file)));
  return Status::OK();
}

Status FaultInjectionEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  Status s = Check(FaultOp::kNewAppendableFile, fname);
  if (!s.ok()) return s;
  const bool existed = base_->FileExists(fname);
  uint64_t size = 0;
  if (existed) {
    base_->GetFileSize(fname, &size);
  }
  std::unique_ptr<WritableFile> base_file;
  s = base_->NewAppendableFile(fname, &base_file);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      // Pre-existing content predates our tracking epoch: treat it as
      // durable (it survived whatever came before).
      FileState st;
      st.size = size;
      st.synced_size = existed ? size : 0;
      st.ever_synced = existed;
      files_[fname] = st;
    }
  }
  result->reset(new FaultWritableFile(this, fname, std::move(base_file)));
  return Status::OK();
}

bool FaultInjectionEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status FaultInjectionEnv::GetChildren(const std::string& dir,
                                      std::vector<std::string>* result) {
  Status s = Check(FaultOp::kGetChildren, dir);
  if (!s.ok()) return s;
  return base_->GetChildren(dir, result);
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  Status s = Check(FaultOp::kRemoveFile, fname);
  if (!s.ok()) return s;
  s = base_->RemoveFile(fname);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    files_.erase(fname);
  }
  return s;
}

Status FaultInjectionEnv::CreateDir(const std::string& dirname) {
  return base_->CreateDir(dirname);
}

Status FaultInjectionEnv::RemoveDir(const std::string& dirname) {
  return base_->RemoveDir(dirname);
}

Status FaultInjectionEnv::GetFileSize(const std::string& fname,
                                      uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  Status s = Check(FaultOp::kRenameFile, src);
  if (!s.ok()) return s;
  s = base_->RenameFile(src, target);
  if (s.ok()) {
    // Journaled metadata op: durable immediately, and the bytes that were
    // synced under the old name stay synced under the new one.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(src);
    if (it != files_.end()) {
      FileState st = it->second;
      st.ever_synced = true;
      files_.erase(it);
      files_[target] = st;
    } else {
      files_.erase(target);  // untracked source: target is fully durable
    }
  }
  return s;
}

Status FaultInjectionEnv::SyncDir(const std::string& dirname) {
  Status s = Check(FaultOp::kSyncDir, dirname);
  if (!s.ok()) return s;
  s = base_->SyncDir(dirname);
  if (s.ok()) {
    // Directory entries are durable now: creations under this dir
    // survive power loss even if their data was never synced.
    std::string prefix = dirname;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, state] : files_) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        state.ever_synced = true;
      }
    }
  }
  return s;
}

uint64_t FaultInjectionEnv::PreferredReadBytes() {
  return base_->PreferredReadBytes();
}

uint64_t FaultInjectionEnv::NowMicros() { return base_->NowMicros(); }

void FaultInjectionEnv::SleepForMicroseconds(int micros) {
  base_->SleepForMicroseconds(micros);
}

}  // namespace pipelsm
