// Codec selection used by the SSTable block format and the compaction
// executors' S5 (COMPRESS) step. Its inverse, S3, is DecodeBlock
// (src/table/format.h).
#pragma once

#include <cstdint>
#include <string>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

enum class CompressionType : uint8_t {
  kNoCompression = 0x0,
  kLzCompression = 0x1,
};

// Compresses `raw` with `type` into *out. Returns the type actually used:
// if compression does not shrink the data by at least 12.5% the raw bytes
// are stored and kNoCompression is returned (same policy as LevelDB).
CompressionType CompressBlock(CompressionType type, const Slice& raw,
                              std::string* out);

const char* CompressionTypeName(CompressionType type);

}  // namespace pipelsm
