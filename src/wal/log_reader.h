// WAL reader: reassembles logical records from physical fragments,
// skipping corrupt tails (torn writes) and reporting corruption via a
// caller-supplied Reporter.
#pragma once

#include <cstdint>
#include <string>

#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/wal/log_format.h"

namespace pipelsm::log {

class Reader {
 public:
  // Interface for reporting errors.
  class Reporter {
   public:
    virtual ~Reporter() = default;
    // Some corruption was detected. "size" is the approximate number of
    // bytes dropped due to the corruption.
    virtual void Corruption(size_t bytes, const Status& status) = 0;
  };

  // Create a reader that returns log records from "*file", which must
  // remain live while this Reader is in use.
  //
  // If "reporter" is non-null, it is notified whenever data is dropped.
  // Every fragment's checksum is verified; reading starts at offset 0.
  Reader(SequentialFile* file, Reporter* reporter);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  ~Reader();

  // Read the next record into *record. Returns true if read successfully,
  // false on EOF. *scratch may be used as temporary storage.
  bool ReadRecord(Slice* record, std::string* scratch);

 private:
  // Extend record types with the following special values.
  enum {
    kEof = kMaxRecordType + 1,
    // Returned whenever we find an invalid physical record (bad CRC, bad
    // length, or a zeroed region).
    kBadRecord = kMaxRecordType + 2
  };

  // Return type, or one of the preceding special values.
  unsigned int ReadPhysicalRecord(Slice* result);

  void ReportCorruption(uint64_t bytes, const char* reason);
  void ReportDrop(uint64_t bytes, const Status& reason);

  SequentialFile* const file_;
  Reporter* const reporter_;
  char* const backing_store_;
  Slice buffer_;
  bool eof_;  // Last Read() indicated EOF by returning < kBlockSize
};

}  // namespace pipelsm::log
