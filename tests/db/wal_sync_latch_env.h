// WalSyncLatchEnv: an Env that forwards to a base Env and can park WAL
// syncs, so a test can hold a write-group leader inside DB::Write and
// queue writers behind it without any timing.
//
// While Block() is in effect, every Sync() of a write-ahead log (a file
// named "*.log") waits until Unblock(); WaitForParkedSync() returns once
// one is waiting. wal_syncs() counts WAL syncs, parked or not.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/env/env.h"

namespace pipelsm {

class WalSyncLatchEnv final : public Env {
 public:
  explicit WalSyncLatchEnv(Env* base) : base_(base) {}

  void Block() {
    std::lock_guard<std::mutex> l(mu_);
    blocked_ = true;
  }

  void Unblock() {
    std::lock_guard<std::mutex> l(mu_);
    blocked_ = false;
    cv_.notify_all();
  }

  void WaitForParkedSync() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return parked_ > 0; });
  }

  uint64_t wal_syncs() const {
    std::lock_guard<std::mutex> l(mu_);
    return wal_syncs_;
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return Wrap(fname, base_->NewWritableFile(fname, result), result);
  }
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override {
    return Wrap(fname, base_->NewAppendableFile(fname, result), result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }
  uint64_t PreferredReadBytes() override { return base_->PreferredReadBytes(); }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 private:
  class WalFile final : public WritableFile {
   public:
    WalFile(WalSyncLatchEnv* env, std::unique_ptr<WritableFile> file)
        : env_(env), file_(std::move(file)) {}
    Status Append(const Slice& data) override { return file_->Append(data); }
    Status Close() override { return file_->Close(); }
    Status Flush() override { return file_->Flush(); }
    Status Sync() override {
      env_->ParkWhileBlocked();
      return file_->Sync();
    }

   private:
    WalSyncLatchEnv* const env_;
    std::unique_ptr<WritableFile> file_;
  };

  Status Wrap(const std::string& fname, Status s,
              std::unique_ptr<WritableFile>* result) {
    const std::string suffix = ".log";
    if (s.ok() && fname.size() >= suffix.size() &&
        fname.compare(fname.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      *result = std::make_unique<WalFile>(this, std::move(*result));
    }
    return s;
  }

  void ParkWhileBlocked() {
    std::unique_lock<std::mutex> l(mu_);
    wal_syncs_++;
    parked_++;
    cv_.notify_all();
    cv_.wait(l, [this] { return !blocked_; });
    parked_--;
  }

  Env* const base_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  int parked_ = 0;
  uint64_t wal_syncs_ = 0;
};

}  // namespace pipelsm
