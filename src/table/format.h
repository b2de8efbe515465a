// On-disk SSTable framing: block handles, footer, and the shared
// read-verify-decompress path.
//
// Layout (Figure 1(b) of the paper, concretized as the LevelDB format):
//
//   [data block 1] [data block 2] ... [data block N]
//   [filter block]                       (optional)
//   [metaindex block]
//   [index block]
//   [footer: metaindex handle, index handle, magic]   (fixed size)
//
// Every block is followed by a 5-byte trailer: 1 compression-type byte and
// a 4-byte masked CRC32C over (block contents + type byte). The trailer is
// what the paper's S2/S6 steps verify/produce.
#pragma once

#include <cstdint>
#include <string>

#include "src/compress/codec.h"
#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

// A pointer to the extent of a block within a file.
class BlockHandle {
 public:
  // Maximum encoding length of a BlockHandle.
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle() : offset_(~0ull), size_(~0ull) {}

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

// Footer at the tail of every table file.
class Footer {
 public:
  enum { kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8 };

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

constexpr uint64_t kTableMagicNumber = 0x70697065'6c736d31ull;  // "pipelsm1"

// 1-byte compression type + 4-byte masked crc32c.
constexpr size_t kBlockTrailerSize = 5;

// S6: appends the trailer for a block already encoded as `type` (the
// CompressBlock result) to *block. Every block of every table gets its
// trailer here.
void AppendBlockTrailer(CompressionType type, std::string* block);

struct BlockContents {
  Slice data;            // actual contents of the block
  // Read by nothing: the block cache holds stored blocks, never
  // BlockContents. The member keeps the three-field brace initializers
  // of existing callers compiling (bench/suite/probes.cc).
  bool cachable = false;
  bool heap_allocated = false;  // true iff caller should delete[] data.data()
};

// Reads the block identified by `handle`, verifies the trailer CRC and
// decompresses — i.e. performs S1+S2+S3 of the compaction procedure for one
// block.
Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 BlockContents* result);

// The raw compressed payload of one block, as moved between pipeline
// stages: the compaction executors read raw bytes in the read stage (S1)
// and verify/decompress in the compute stage (S2/S3), so the two halves of
// ReadBlock are also exposed separately.
struct RawBlock {
  std::string payload;   // compressed bytes + 5-byte trailer
  BlockHandle handle;    // where it came from
};

// S1 only: fetch payload + trailer bytes, no verification, no decompression.
Status ReadRawBlock(RandomAccessFile* file, const BlockHandle& handle,
                    RawBlock* out);

// S2: verify a raw block's trailer CRC.
Status VerifyRawBlock(const RawBlock& raw);

// S3: the contents of a block stored as `stored` (payload + trailer).
// An uncompressed block is parsed in place: result->data points into
// `stored`, which must outlive it, and nothing is copied. A compressed
// block is decoded once into a heap buffer the result owns.
Status DecodeBlock(const Slice& stored, BlockContents* result);

}  // namespace pipelsm
