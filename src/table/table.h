// Table: immutable SSTable reader.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/env/env.h"
#include "src/table/iterator.h"
#include "src/table/table_options.h"
#include "src/util/status.h"

namespace pipelsm {

class Block;
class BlockHandle;
class FilterBlockReader;
class Footer;

class Table {
 public:
  // Opens the table stored in file[0..file_size). On success *table owns
  // the reader (and keeps using *file, whose ownership it takes). A
  // footer, index, metaindex or filter handle that points outside the
  // file is Corruption; so is any later read through one.
  static Status Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, std::unique_ptr<Table>* table);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  // Iterator over the table's contents (keys as written, i.e. internal keys
  // when built by the DB layer).
  Iterator* NewIterator(const TableReadOptions& read_options = {}) const;

  // Calls handle_result(k, v) for the entry found at or after `key`, after
  // consulting the bloom filter. Used by the DB's point-read path.
  Status InternalGet(const TableReadOptions& read_options, const Slice& key,
                     const std::function<void(const Slice&, const Slice&)>&
                         handle_result) const;

  // Approximate file offset where `key`'s data begins (for metrics and
  // compaction planning).
  uint64_t ApproximateOffsetOf(const Slice& key) const;

  // The table's index iterator and raw-block loader are exposed so the
  // compaction planner can enumerate data-block extents per sub-task and
  // the read stage (S1) can fetch compressed payloads without verifying or
  // decompressing them (S2/S3 happen in the compute stage).
  Iterator* NewIndexIterator() const;
  Status ReadRaw(const class BlockHandle& handle, struct RawBlock* out) const;
  // One device read of [offset, offset+size); a short read is Corruption.
  // S1 fills its per-table windows with it (WindowedReader in
  // src/compaction/steps.h), whose reads are sub-task-sized ("the I/O
  // size is equal to the sub-task size", paper §IV-C).
  Status ReadExtent(uint64_t offset, uint64_t size, std::string* out) const;
  const TableOptions& options() const;

  // Id prefixing this table's entries in the shared block cache (0 when
  // no cache is configured). Obsolete-file GC uses it to purge the
  // table's blocks when the file is deleted.
  uint64_t cache_id() const;

 private:
  struct Rep;
  explicit Table(Rep* rep);

  Iterator* ReadBlockIterator(const TableReadOptions& read_options,
                              const Slice& index_value) const;
  // Load the filter index. A filter handle outside the file is
  // Corruption; any other failure leaves the table without a filter.
  Status ReadMeta(const Footer& footer);
  Status ReadFilter(const Slice& filter_handle_value);
  bool FilterKeyMayMatch(const TableReadOptions& read_options,
                         uint64_t block_offset, const Slice& key) const;

  std::unique_ptr<Rep> rep_;
};

}  // namespace pipelsm
