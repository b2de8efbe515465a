// WalSyncLatchEnv: an Env that forwards to a base Env and can park WAL
// syncs, so a test can hold a write-group leader inside DB::Write and
// queue writers behind it without any timing.
//
// While Block() is in effect, every Sync() of a write-ahead log (a file
// named "*.log") waits until Unblock(); WaitForParkedSync() returns once
// one is waiting. wal_syncs() counts WAL syncs, parked or not.
#pragma once

#include "tests/db/forwarding_env.h"

namespace pipelsm {

class WalSyncLatchEnv final : public ForwardingEnv {
 public:
  explicit WalSyncLatchEnv(Env* base) : ForwardingEnv(base) {}

  void Block() { latch_.Block(); }
  void Unblock() { latch_.Unblock(); }
  void WaitForParkedSync() { latch_.WaitForParked(); }
  uint64_t wal_syncs() const { return latch_.passes(); }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return Wrap(fname, base_->NewWritableFile(fname, result), result);
  }
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override {
    return Wrap(fname, base_->NewAppendableFile(fname, result), result);
  }

 private:
  class WalFile final : public WritableFile {
   public:
    WalFile(Latch* latch, std::unique_ptr<WritableFile> file)
        : latch_(latch), file_(std::move(file)) {}
    Status Append(const Slice& data) override { return file_->Append(data); }
    Status Close() override { return file_->Close(); }
    Status Flush() override { return file_->Flush(); }
    Status Sync() override {
      latch_->ParkWhileBlocked();
      return file_->Sync();
    }

   private:
    Latch* const latch_;
    std::unique_ptr<WritableFile> file_;
  };

  Status Wrap(const std::string& fname, Status s,
              std::unique_ptr<WritableFile>* result) {
    if (s.ok() && EndsWith(fname, ".log")) {
      *result = std::make_unique<WalFile>(&latch_, std::move(*result));
    }
    return s;
  }

  Latch latch_;
};

}  // namespace pipelsm
