// Partitioned filter block (docs/READ_PATH.md): per-2KiB-window filters
// grouped into fixed-size partitions, each independently loadable, with
// a small top-level index so a point read touches only the partition
// covering the probed data-block offset.
//
//   [partition 0] [partition 1] ... [partition P-1]
//   [top index: P x { first_window | num_windows | offset | size } (fixed32 each)]
//   [offset of top index (fixed32)]
//   [P (fixed32)]
//   [lg(base) (1 byte)]
//
// Each partition is self-contained:
//
//   [filter 0] ... [filter W-1]
//   [W+1 fixed32 offsets, relative to the partition start; the last one
//    doubles as the end of the filter data]
//   [masked crc32c of everything above (fixed32)]
//
// The per-partition CRC exists because lazy loaders read a partition's
// extent without the whole-block trailer check; a mismatch makes the
// probe fall back to "may match" instead of risking a false negative.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/slice.h"

namespace pipelsm {

class FilterPolicy;

// Data-block offsets are grouped into 1<<kFilterBaseLg windows; one
// filter covers one window.
constexpr size_t kFilterBaseLg = 11;

// Default partition payload size; Options::filter_partition_bytes
// overrides per DB.
constexpr size_t kDefaultFilterPartitionBytes = 4096;

// Top-index entry describing one partition's extent within the filter
// block and the window range it covers.
struct FilterPartitionInfo {
  uint32_t first_window = 0;
  uint32_t num_windows = 0;
  uint32_t offset = 0;  // partition start, relative to the filter block
  uint32_t size = 0;    // partition size including offsets + crc
};

// Assembles the filter block from one prebuilt filter per data block, so
// the writer never touches keys (BlockEncoder in table_writer.h builds
// the filters).
//
// Window w carries the filter of the block starting inside it. A
// compressed block can be shorter than a window, so two blocks may start
// in one window; their filters cannot be merged (bloom arrays of
// different sizes), and either alone would give the other block false
// negatives, so such a window gets a small match-all filter instead. The
// shared window loses its read-skipping benefit, never correctness.
class FilterBlockBuilder {
 public:
  explicit FilterBlockBuilder(size_t partition_bytes =
                                  kDefaultFilterPartitionBytes);

  FilterBlockBuilder(const FilterBlockBuilder&) = delete;
  FilterBlockBuilder& operator=(const FilterBlockBuilder&) = delete;

  // `filter` covers the keys of the data block at `block_offset`.
  // REQUIRES: offsets ascend across calls. An empty filter answers
  // may-match, as does a shared window.
  void AddBlockFilter(uint64_t block_offset, const Slice& filter);

  // The whole filter block; valid until *this is destroyed.
  Slice Finish();

 private:
  // Closes the open window and moves on to the next one.
  void EmitWindow();
  void SealPartition();

  const size_t partition_bytes_;

  // The open window (index next_window_): how many blocks start in it,
  // and the filter of the first.
  uint64_t next_window_ = 0;
  int open_blocks_ = 0;
  std::string open_filter_;

  std::string partition_data_;   // filters of the partition being built
  std::vector<uint32_t> partition_offsets_;  // per-window filter starts
  uint32_t partition_first_window_ = 0;

  std::string result_;           // sealed partitions + (at Finish) index
  std::vector<FilterPartitionInfo> partitions_;
};

// Parses the top-level index. Usable either from the whole filter block
// (Parse) or from just its trailing bytes (ParseTail) when the caller
// wants to avoid reading partitions it may never probe.
class FilterIndex {
 public:
  FilterIndex() = default;

  // `contents` is the complete filter block.
  bool Parse(const Slice& contents);

  // `tail` is the final tail.size() bytes of a filter block of
  // `block_size` total bytes; it must cover the top index.
  bool ParseTail(const Slice& tail, uint64_t block_size);

  // Finds the partition covering `window`. Returns false if `window` is
  // past the covered range (callers treat that as "may match").
  bool Lookup(uint64_t window, FilterPartitionInfo* out) const;

  bool valid() const { return valid_; }
  size_t base_lg() const { return base_lg_; }
  size_t num_partitions() const { return partitions_.size(); }
  const FilterPartitionInfo& partition(size_t i) const {
    return partitions_[i];
  }

 private:
  std::vector<FilterPartitionInfo> partitions_;
  size_t base_lg_ = 0;
  bool valid_ = false;
};

// Probes one partition (laid out as described above) for the filter of
// `window_in_partition`. Does not verify the partition CRC — disk-backed
// callers verify before calling (see FilterPartitionCrcOk). Malformed
// input returns true (may match); an empty filter returns false.
bool FilterPartitionKeyMayMatch(const FilterPolicy* policy,
                                const Slice& partition, uint32_t num_windows,
                                uint32_t window_in_partition,
                                const Slice& key);

// Checks the partition's trailing masked crc32c.
bool FilterPartitionCrcOk(const Slice& partition);

// Whole-block in-memory reader: parses the index once and probes
// partitions in place. "contents" and *policy must stay live while
// *this is in use.
class FilterBlockReader {
 public:
  FilterBlockReader(const FilterPolicy* policy, const Slice& contents);
  bool KeyMayMatch(uint64_t block_offset, const Slice& key);

  const FilterIndex& index() const { return index_; }

 private:
  const FilterPolicy* policy_;
  Slice contents_;
  FilterIndex index_;
};

}  // namespace pipelsm
