#include "src/table/format.h"

#include <cassert>
#include <cstring>
#include <memory>

#include "src/compress/lz_codec.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace pipelsm {

void BlockHandle::EncodeTo(std::string* dst) const {
  // Sanity check that all fields have been set.
  assert(offset_ != ~0ull);
  assert(size_ != ~0ull);
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  metaindex_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // Padding
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
  assert(dst->size() == original_size + kEncodedLength);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic = ((static_cast<uint64_t>(magic_hi) << 32) |
                          (static_cast<uint64_t>(magic_lo)));
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }

  Status result = metaindex_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  if (result.ok()) {
    // Skip over any leftover data (just padding for now).
    const char* end = magic_ptr + 8;
    *input = Slice(end, input->data() + input->size() - end);
  }
  return result;
}

void AppendBlockTrailer(CompressionType type, std::string* block) {
  char trailer[kBlockTrailerSize];
  trailer[0] = static_cast<char>(type);
  uint32_t crc = crc32c::Value(block->data(), block->size());
  crc = crc32c::Extend(crc, trailer, 1);  // the CRC covers the type byte
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  block->append(trailer, kBlockTrailerSize);
}

Status ReadRawBlock(RandomAccessFile* file, const BlockHandle& handle,
                    RawBlock* out) {
  const size_t n = static_cast<size_t>(handle.size());
  out->handle = handle;
  out->payload.resize(n + kBlockTrailerSize);
  Slice contents;
  Status s = file->Read(handle.offset(), n + kBlockTrailerSize, &contents,
                        out->payload.data());
  if (!s.ok()) return s;
  if (contents.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }
  if (contents.data() != out->payload.data()) {
    out->payload.assign(contents.data(), contents.size());
  }
  return Status::OK();
}

Status VerifyRawBlock(const RawBlock& raw) {
  if (raw.payload.size() < kBlockTrailerSize) {
    return Status::Corruption("block too small for trailer");
  }
  const size_t n = raw.payload.size() - kBlockTrailerSize;
  const char* data = raw.payload.data();
  const uint32_t crc = crc32c::Unmask(DecodeFixed32(data + n + 1));
  const uint32_t actual = crc32c::Value(data, n + 1);
  if (actual != crc) {
    return Status::Corruption("block checksum mismatch");
  }
  return Status::OK();
}

Status DecodeBlock(const Slice& stored, BlockContents* result) {
  result->data = Slice();
  result->cachable = false;
  result->heap_allocated = false;
  if (stored.size() < kBlockTrailerSize) {
    return Status::Corruption("block too small for trailer");
  }
  const size_t n = stored.size() - kBlockTrailerSize;
  const char* data = stored.data();
  switch (static_cast<CompressionType>(data[n])) {
    case CompressionType::kNoCompression:
      result->data = Slice(data, n);
      return Status::OK();
    case CompressionType::kLzCompression: {
      size_t ulen;
      if (!lz::GetUncompressedLength(data, n, &ulen)) {
        return Status::Corruption("lz: bad uncompressed-length preamble");
      }
      std::unique_ptr<char[]> buf(new char[ulen]);
      Status s = lz::UncompressTo(data, n, buf.get(), ulen);
      if (!s.ok()) return s;
      result->data = Slice(buf.release(), ulen);
      result->heap_allocated = true;
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown block compression type");
  }
}

Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 BlockContents* result) {
  RawBlock raw;
  Status s = ReadRawBlock(file, handle, &raw);
  if (s.ok()) s = VerifyRawBlock(raw);
  if (s.ok()) s = DecodeBlock(raw.payload, result);
  if (!s.ok()) return s;
  if (!result->heap_allocated) {
    // Parsed in place: move it out of the read buffer, which dies here.
    char* buf = new char[result->data.size()];
    std::memcpy(buf, result->data.data(), result->data.size());
    result->data = Slice(buf, result->data.size());
    result->heap_allocated = true;
  }
  result->cachable = true;
  return Status::OK();
}

}  // namespace pipelsm
