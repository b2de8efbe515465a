// SimEnv: an in-memory filesystem mounted on a SimDevice.
//
// File contents live in RAM (so correctness is exact and tests are
// hermetic) while every read and write additionally charges the device
// model the transfer's modeled duration. Each file is placed at a virtual
// disk extent allocated at creation time, so the HDD model sees the same
// access pattern the paper describes: sequential within a file, seeks
// between files ("the SSTables are dynamically allocated... the disk arm
// may suffer seeks", §IV-B).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/env/env.h"
#include "src/env/sim_device.h"

namespace pipelsm {

class SimEnv final : public Env {
 public:
  explicit SimEnv(DeviceProfile profile = DeviceProfile::Null());
  ~SimEnv() override;

  SimDevice* device() { return &device_; }

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

  // One full stripe (stripe_unit_bytes x stripe_count) of a timed
  // device; 0 for DeviceProfile::Null().
  uint64_t PreferredReadBytes() override;
  uint64_t NowMicros() override;
  void SleepForMicroseconds(int micros) override;

  // Test hook: flip `n` bytes of `fname` starting at `offset` (corruption
  // injection for checksum-path tests).
  Status CorruptFile(const std::string& fname, uint64_t offset, size_t n);

  // Test hook: truncate `fname` to `size` bytes (torn-write injection).
  Status TruncateFile(const std::string& fname, uint64_t size);

 private:
  class FileState;
  class SimSequentialFile;
  class SimRandomAccessFile;
  class SimWritableFile;

  std::shared_ptr<FileState> FindFile(const std::string& fname);

  SimDevice device_;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<FileState>> files_;
  uint64_t next_extent_ = 0;  // virtual disk allocation cursor
};

}  // namespace pipelsm
