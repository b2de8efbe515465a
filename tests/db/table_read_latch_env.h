// TableReadLatchEnv: an Env that forwards to a base Env and can park
// reads of table files, so a test can hold a DB thread inside a table
// open (Table::Open's footer read) and act on other threads meanwhile.
//
// While Block() is in effect, every read of a table file (a file named
// "*.pst" opened through this Env) waits until Unblock();
// WaitForParkedRead() returns once one is waiting.
#pragma once

#include "tests/db/forwarding_env.h"

namespace pipelsm {

class TableReadLatchEnv final : public ForwardingEnv {
 public:
  explicit TableReadLatchEnv(Env* base) : ForwardingEnv(base) {}

  void Block() { latch_.Block(); }
  void Unblock() { latch_.Unblock(); }
  void WaitForParkedRead() { latch_.WaitForParked(); }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    Status s = base_->NewRandomAccessFile(fname, result);
    if (s.ok() && EndsWith(fname, ".pst")) {
      *result = std::make_unique<TableFile>(&latch_, std::move(*result));
    }
    return s;
  }

 private:
  class TableFile final : public RandomAccessFile {
   public:
    TableFile(Latch* latch, std::unique_ptr<RandomAccessFile> file)
        : latch_(latch), file_(std::move(file)) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      latch_->ParkWhileBlocked();
      return file_->Read(offset, n, result, scratch);
    }

   private:
    Latch* const latch_;
    std::unique_ptr<RandomAccessFile> file_;
  };

  Latch latch_;
};

}  // namespace pipelsm
