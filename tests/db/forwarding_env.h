// Building blocks for test Envs that hold the DB at one call site.
//
// ForwardingEnv forwards every call to a base Env; a test Env derives
// from it and overrides only the calls it intercepts. Latch parks the
// calling thread while it is blocked, so a test can hold a DB thread at
// that call site and act on others without any timing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/env/env.h"

namespace pipelsm {

class ForwardingEnv : public Env {
 public:
  explicit ForwardingEnv(Env* base) : base_(base) {}

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
    return base_->NewWritableFile(fname, result);
  }
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override {
    return base_->NewAppendableFile(fname, result);
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

 protected:
  static bool EndsWith(const std::string& fname, const std::string& suffix) {
    return fname.size() >= suffix.size() &&
           fname.compare(fname.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
  }

  Env* const base_;
};

class Latch {
 public:
  void Block() {
    std::lock_guard<std::mutex> l(mu_);
    blocked_ = true;
  }

  void Unblock() {
    std::lock_guard<std::mutex> l(mu_);
    blocked_ = false;
    cv_.notify_all();
  }

  // Returns once some thread is parked.
  void WaitForParked() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return parked_ > 0; });
  }

  // Calls that passed through, parked or not.
  uint64_t passes() const {
    std::lock_guard<std::mutex> l(mu_);
    return passes_;
  }

  void ParkWhileBlocked() {
    std::unique_lock<std::mutex> l(mu_);
    passes_++;
    parked_++;
    cv_.notify_all();
    cv_.wait(l, [this] { return !blocked_; });
    parked_--;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  int parked_ = 0;
  uint64_t passes_ = 0;
};

}  // namespace pipelsm
