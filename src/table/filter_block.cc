#include "src/table/filter_block.h"

#include <cassert>

#include "src/table/filter_policy.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace pipelsm {

static const size_t kFilterBase = 1 << kFilterBaseLg;

// Tail = index offset (4) + partition count (4) + base_lg (1).
static const size_t kFilterTailBytes = 9;
static const size_t kFilterIndexEntryBytes = 16;

// Every bit set, k = 1: the bloom policy's "may match" for any key.
static const char kMatchAll[] = {'\xff', '\xff', '\xff', '\xff', 1};

FilterBlockBuilder::FilterBlockBuilder(size_t partition_bytes)
    : partition_bytes_(partition_bytes == 0 ? kDefaultFilterPartitionBytes
                                            : partition_bytes) {}

void FilterBlockBuilder::AddBlockFilter(uint64_t block_offset,
                                        const Slice& filter) {
  const uint64_t window = block_offset / kFilterBase;
  assert(window >= next_window_);
  while (window > next_window_) {
    EmitWindow();
  }
  if (open_blocks_++ == 0) {
    open_filter_.assign(filter.data(), filter.size());
  }
}

Slice FilterBlockBuilder::Finish() {
  if (open_blocks_ > 0) {
    EmitWindow();
  }
  SealPartition();

  const uint32_t index_offset = static_cast<uint32_t>(result_.size());
  for (const FilterPartitionInfo& p : partitions_) {
    PutFixed32(&result_, p.first_window);
    PutFixed32(&result_, p.num_windows);
    PutFixed32(&result_, p.offset);
    PutFixed32(&result_, p.size);
  }
  PutFixed32(&result_, index_offset);
  PutFixed32(&result_, static_cast<uint32_t>(partitions_.size()));
  result_.push_back(static_cast<char>(kFilterBaseLg));
  return Slice(result_);
}

void FilterBlockBuilder::EmitWindow() {
  partition_offsets_.push_back(static_cast<uint32_t>(partition_data_.size()));
  next_window_++;
  // No block: an empty filter, which no probe reaches. One block: its
  // filter. More: match-all (see the class comment).
  if (open_blocks_ == 1 && !open_filter_.empty()) {
    partition_data_.append(open_filter_);
  } else if (open_blocks_ > 0) {
    partition_data_.append(kMatchAll, sizeof(kMatchAll));
  }
  open_blocks_ = 0;

  if (partition_data_.size() >= partition_bytes_) {
    SealPartition();
  }
}

void FilterBlockBuilder::SealPartition() {
  if (partition_offsets_.empty()) return;

  FilterPartitionInfo info;
  info.first_window = partition_first_window_;
  info.num_windows = static_cast<uint32_t>(partition_offsets_.size());
  info.offset = static_cast<uint32_t>(result_.size());

  const uint32_t array_start = static_cast<uint32_t>(partition_data_.size());
  for (uint32_t offset : partition_offsets_) {
    PutFixed32(&partition_data_, offset);
  }
  PutFixed32(&partition_data_, array_start);
  const uint32_t crc =
      crc32c::Value(partition_data_.data(), partition_data_.size());
  PutFixed32(&partition_data_, crc32c::Mask(crc));

  info.size = static_cast<uint32_t>(partition_data_.size());
  partitions_.push_back(info);
  result_.append(partition_data_);

  partition_data_.clear();
  partition_offsets_.clear();
  partition_first_window_ = static_cast<uint32_t>(next_window_);
}

bool FilterIndex::Parse(const Slice& contents) {
  return ParseTail(contents, contents.size());
}

bool FilterIndex::ParseTail(const Slice& tail, uint64_t block_size) {
  valid_ = false;
  partitions_.clear();
  const size_t n = tail.size();
  if (n < kFilterTailBytes || n > block_size) return false;
  base_lg_ = static_cast<unsigned char>(tail[n - 1]);
  if (base_lg_ > 30) return false;
  const uint32_t num_partitions = DecodeFixed32(tail.data() + n - 5);
  const uint32_t index_offset = DecodeFixed32(tail.data() + n - 9);
  const uint64_t index_bytes =
      static_cast<uint64_t>(num_partitions) * kFilterIndexEntryBytes;
  // The index must sit immediately before the tail words, inside the
  // region this slice covers.
  if (index_offset + index_bytes + kFilterTailBytes != block_size)
    return false;
  const uint64_t tail_start = block_size - n;
  if (index_offset < tail_start) return false;

  const char* p = tail.data() + (index_offset - tail_start);
  partitions_.reserve(num_partitions);
  uint64_t next_window = 0;
  for (uint32_t i = 0; i < num_partitions; i++) {
    FilterPartitionInfo info;
    info.first_window = DecodeFixed32(p);
    info.num_windows = DecodeFixed32(p + 4);
    info.offset = DecodeFixed32(p + 8);
    info.size = DecodeFixed32(p + 12);
    p += kFilterIndexEntryBytes;
    // Partitions must cover contiguous, ascending window ranges and lie
    // before the index.
    if (info.first_window != next_window || info.num_windows == 0) {
      partitions_.clear();
      return false;
    }
    if (static_cast<uint64_t>(info.offset) + info.size > index_offset) {
      partitions_.clear();
      return false;
    }
    next_window = static_cast<uint64_t>(info.first_window) + info.num_windows;
    partitions_.push_back(info);
  }
  valid_ = true;
  return true;
}

bool FilterIndex::Lookup(uint64_t window, FilterPartitionInfo* out) const {
  if (!valid_ || partitions_.empty()) return false;
  // Binary search: last partition with first_window <= window.
  size_t lo = 0, hi = partitions_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (partitions_[mid].first_window <= window) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;
  const FilterPartitionInfo& p = partitions_[lo - 1];
  if (window >= static_cast<uint64_t>(p.first_window) + p.num_windows) {
    return false;
  }
  *out = p;
  return true;
}

bool FilterPartitionKeyMayMatch(const FilterPolicy* policy,
                                const Slice& partition, uint32_t num_windows,
                                uint32_t window_in_partition,
                                const Slice& key) {
  const size_t offsets_and_crc =
      (static_cast<size_t>(num_windows) + 1) * 4 + 4;
  if (window_in_partition >= num_windows ||
      partition.size() < offsets_and_crc) {
    return true;  // Errors are treated as potential matches
  }
  const size_t array_start = partition.size() - offsets_and_crc;
  const char* offsets = partition.data() + array_start;
  const uint32_t start = DecodeFixed32(offsets + window_in_partition * 4);
  const uint32_t limit = DecodeFixed32(offsets + window_in_partition * 4 + 4);
  if (start == limit) return false;  // Empty filters do not match any keys
  if (start < limit && limit <= array_start) {
    return policy->KeyMayMatch(key, Slice(partition.data() + start,
                                          limit - start));
  }
  return true;
}

bool FilterPartitionCrcOk(const Slice& partition) {
  if (partition.size() < 4) return false;
  const uint32_t stored =
      DecodeFixed32(partition.data() + partition.size() - 4);
  const uint32_t actual =
      crc32c::Value(partition.data(), partition.size() - 4);
  return crc32c::Unmask(stored) == actual;
}

FilterBlockReader::FilterBlockReader(const FilterPolicy* policy,
                                     const Slice& contents)
    : policy_(policy), contents_(contents) {
  index_.Parse(contents);
}

bool FilterBlockReader::KeyMayMatch(uint64_t block_offset, const Slice& key) {
  if (!index_.valid()) return true;
  const uint64_t window = block_offset >> index_.base_lg();
  FilterPartitionInfo p;
  if (!index_.Lookup(window, &p)) {
    // Beyond the covered range: no filter was built for this offset.
    return true;
  }
  if (static_cast<uint64_t>(p.offset) + p.size > contents_.size()) {
    return true;
  }
  return FilterPartitionKeyMayMatch(
      policy_, Slice(contents_.data() + p.offset, p.size), p.num_windows,
      static_cast<uint32_t>(window - p.first_window), key);
}

}  // namespace pipelsm
