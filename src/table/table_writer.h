// The one SSTable write path (format.h layout, Figure 1(b) of the paper).
//
// BlockEncoder cuts sorted entries into data blocks and encodes each one:
// its bloom filter, S5 compression and the S6 trailer. TableWriter
// appends encoded blocks (S7) and finishes the file with the filter,
// metaindex and index blocks and the footer. TableBuilder (flushes,
// repair, generated inputs) chains the two on one thread; compaction runs
// the encoder in its compute stage and the writer in its write stage.
// Both paths cut blocks at the same points and index each block by its
// exact last key, so the same entries give the same bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/table/block_builder.h"
#include "src/table/filter_block.h"
#include "src/table/table_options.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace pipelsm {

class BlockHandle;

// One data block, fully encoded for TableWriter::AddBlock.
struct EncodedBlock {
  std::string payload;    // compressed bytes + trailer
  std::string first_key;  // key of the block's first entry
  std::string last_key;   // key of the block's final entry (its index key)
  std::string filter;     // the block's bloom filter (empty if no policy)
  uint64_t raw_size = 0;  // uncompressed size
  uint64_t entries = 0;
};

class BlockEncoder {
 public:
  explicit BlockEncoder(const TableOptions& options);

  BlockEncoder(const BlockEncoder&) = delete;
  BlockEncoder& operator=(const BlockEncoder&) = delete;

  // REQUIRES: key is after every key added since the last Finish().
  void Add(const Slice& key, const Slice& value);

  bool empty() const { return block_.empty(); }

  // True once the open block reaches options.block_size (uncompressed).
  bool full() const {
    return block_.CurrentSizeEstimate() >= options_.block_size;
  }

  // Encodes the open block into *out and starts the next one. When
  // profile is non-null, the time to close the block and build its filter
  // is recorded under S4 (the merge's output side), then S5 and S6 each
  // under their own step.
  // REQUIRES: !empty().
  void Finish(EncodedBlock* out, StepProfile* profile = nullptr);

 private:
  const TableOptions options_;
  BlockBuilder block_;
  std::string first_key_;
  std::string last_key_;
  uint64_t entries_ = 0;
  // The open block's keys, flattened, for the filter policy.
  std::string keys_;
  std::vector<size_t> key_starts_;
};

class TableWriter {
 public:
  // Writes to *file, which must outlive the writer and remain unwritten by
  // anyone else. Does not sync or close the file.
  TableWriter(const TableOptions& options, WritableFile* file);

  TableWriter(const TableWriter&) = delete;
  TableWriter& operator=(const TableWriter&) = delete;

  // Appends one data block. REQUIRES: keys ascend across calls.
  Status AddBlock(const EncodedBlock& block);

  // Writes the filter (with a filter policy), metaindex and index blocks
  // and the footer.
  Status Finish();

  // Bytes written so far; after Finish(), the file size.
  uint64_t FileSize() const { return offset_; }

 private:
  // Appends a block that already carries its trailer.
  Status Append(const std::string& block, BlockHandle* handle);
  Status AppendCompressed(const Slice& raw, BlockHandle* handle);

  const TableOptions options_;
  WritableFile* const file_;
  uint64_t offset_ = 0;
  BlockBuilder index_block_;
  std::unique_ptr<FilterBlockBuilder> filter_;  // null without a policy
};

}  // namespace pipelsm
