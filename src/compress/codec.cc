#include "src/compress/codec.h"

#include "src/compress/lz_codec.h"

namespace pipelsm {

CompressionType CompressBlock(CompressionType type, const Slice& raw,
                              std::string* out) {
  switch (type) {
    case CompressionType::kLzCompression:
      lz::Compress(raw.data(), raw.size(), out);
      if (out->size() < raw.size() - raw.size() / 8) {
        return CompressionType::kLzCompression;
      }
      // Not compressible enough: store raw.
      out->assign(raw.data(), raw.size());
      return CompressionType::kNoCompression;
    case CompressionType::kNoCompression:
    default:
      out->assign(raw.data(), raw.size());
      return CompressionType::kNoCompression;
  }
}

const char* CompressionTypeName(CompressionType type) {
  switch (type) {
    case CompressionType::kNoCompression:
      return "none";
    case CompressionType::kLzCompression:
      return "lz";
    default:
      return "unknown";
  }
}

}  // namespace pipelsm
