// TableBuilder: streams sorted key/value pairs into one SSTable file.
//
// A thin front end over the one write path (table_writer.h): entries are
// cut into data blocks at TableOptions::block_size (uncompressed), each
// block is encoded (filter, S5 compress, S6 checksum) and appended (S7),
// and the index maps each block's exact last key to its handle, exactly
// as compaction writes its outputs.
#pragma once

#include <cstdint>

#include "src/env/env.h"
#include "src/table/table_options.h"
#include "src/table/table_writer.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

class TableBuilder {
 public:
  // Writes to *file, which must outlive the builder and remain unwritten by
  // anyone else. Does not close the file.
  TableBuilder(const TableOptions& options, WritableFile* file);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // REQUIRES: key is after any previously added key; Finish() not called.
  // A write error is kept and returned by Finish().
  void Add(const Slice& key, const Slice& value);

  // Finish building the table (writes filter, metaindex, index, footer).
  Status Finish();

  // Size of the file generated so far; after Finish(), the final size.
  uint64_t FileSize() const { return writer_.FileSize(); }

 private:
  void WriteBlock();

  BlockEncoder encoder_;
  TableWriter writer_;
  EncodedBlock block_;  // reused across blocks
  Status status_;
};

}  // namespace pipelsm
