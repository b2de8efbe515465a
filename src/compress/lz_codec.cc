#include "src/compress/lz_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/coding.h"

namespace pipelsm::lz {

namespace {

constexpr int kMinMatch = 4;
constexpr size_t kMaxLiteralRun = 1u << 16;  // flush literals in runs <= 64K
constexpr int kHashBits = 14;
constexpr size_t kHashTableSize = 1u << kHashBits;

inline uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t HashBytes(uint32_t bytes) {
  return (bytes * 0x1e35a7bdu) >> (32 - kHashBits);
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// The emitters write through `op` into a buffer Compress sized to
// MaxCompressedLength, and return the new end.

// Emit a literal run of [begin, end).
char* EmitLiteral(char* op, const char* begin, const char* end) {
  while (begin < end) {
    size_t len = static_cast<size_t>(end - begin);
    if (len > kMaxLiteralRun) len = kMaxLiteralRun;
    size_t n = len - 1;
    if (n < 60) {
      *op++ = static_cast<char>(n << 2);
    } else if (n < 256) {
      *op++ = static_cast<char>(60 << 2);
      *op++ = static_cast<char>(n);
    } else {
      *op++ = static_cast<char>(61 << 2);
      *op++ = static_cast<char>(n & 0xff);
      *op++ = static_cast<char>((n >> 8) & 0xff);
    }
    std::memcpy(op, begin, len);
    op += len;
    begin += len;
  }
  return op;
}

// Emit one copy element of length <= 64, offset < 2^32.
char* EmitCopyUpTo64(char* op, size_t offset, size_t len) {
  if (len >= 4 && len <= 11 && offset < 2048) {
    *op++ = static_cast<char>(0x01 | ((len - 4) << 2) | ((offset >> 8) << 5));
    *op++ = static_cast<char>(offset & 0xff);
  } else if (offset < 65536) {
    *op++ = static_cast<char>(0x02 | ((len - 1) << 2));
    *op++ = static_cast<char>(offset & 0xff);
    *op++ = static_cast<char>((offset >> 8) & 0xff);
  } else {
    *op++ = static_cast<char>(0x03 | ((len - 1) << 2));
    *op++ = static_cast<char>(offset & 0xff);
    *op++ = static_cast<char>((offset >> 8) & 0xff);
    *op++ = static_cast<char>((offset >> 16) & 0xff);
    *op++ = static_cast<char>((offset >> 24) & 0xff);
  }
  return op;
}

char* EmitCopy(char* op, size_t offset, size_t len) {
  while (len > 64) {
    op = EmitCopyUpTo64(op, offset, 64);
    len -= 64;
  }
  if (len > 0) {
    // Residuals < 4 bytes fall through to copy-2/copy-4 inside
    // EmitCopyUpTo64 (their 6-bit length field covers 1..64).
    op = EmitCopyUpTo64(op, offset, len);
  }
  return op;
}

// The end of the match that `candidate` and `ip` begin: the first byte
// in [ip, ip_end) that differs from its counterpart, compared 8 bytes
// at a time while 8 remain.
const char* MatchEnd(const char* candidate, const char* ip,
                     const char* ip_end) {
  while (ip_end - ip >= 8) {
    const uint64_t diff = Load64(ip) ^ Load64(candidate);
    if (diff != 0) {
      const int same_bits = std::endian::native == std::endian::little
                                ? std::countr_zero(diff)
                                : std::countl_zero(diff);
      return ip + same_bits / 8;
    }
    ip += 8;
    candidate += 8;
  }
  while (ip < ip_end && *ip == *candidate) {
    ip++;
    candidate++;
  }
  return ip;
}

// Writes op[0, len) as op[i] = op[i - offset] with offset < len: the
// output repeats its last `offset` bytes. A run of one byte is a memset.
// Otherwise each chunk copies from `period` bytes back, a multiple of
// offset no larger than the bytes written since op - offset, so source
// and destination never overlap; period doubles after each chunk.
void CopyOverlapping(char* op, size_t offset, size_t len) {
  if (offset == 1) {
    std::memset(op, op[-1], len);
    return;
  }
  char* const end = op + len;
  size_t period = offset;
  while (op < end) {
    const size_t chunk = std::min(period, static_cast<size_t>(end - op));
    std::memcpy(op, op - period, chunk);
    op += chunk;
    period *= 2;
  }
}

}  // namespace

size_t MaxCompressedLength(size_t n) {
  // Worst case: all literals; one tag + up to 2 length bytes per 64K run,
  // plus the 5-byte preamble. 32 + n + n/6 is a comfortable bound.
  return 32 + n + n / 6;
}

void Compress(const char* input, size_t n, std::string* output) {
  output->resize(MaxCompressedLength(n));
  char* const out_begin = output->data();
  char* op = EncodeVarint32(out_begin, static_cast<uint32_t>(n));

  if (n < kMinMatch + 4) {
    op = EmitLiteral(op, input, input + n);
    output->resize(static_cast<size_t>(op - out_begin));
    return;
  }

  uint16_t table[kHashTableSize];
  std::memset(table, 0, sizeof(table));
  // table stores positions + 1 relative to `base`, window of 64K. For inputs
  // larger than 64K we rebase the window as we go; offsets are still emitted
  // absolutely relative to the current position so copy-4 handles them.
  const char* const base = input;
  const char* ip = input;
  const char* const ip_end = input + n;
  const char* const ip_limit = ip_end - kMinMatch;  // last valid match start
  const char* next_emit = input;  // first unemitted literal byte

  // For inputs > 64K the uint16_t table entries would alias; keep a separate
  // epoch base that slides forward.
  size_t window_base = 0;  // offset of table's position origin from `base`

  while (ip <= ip_limit) {
    // Slide window so (ip - base - window_base) fits in 16 bits with slack.
    const size_t ip_off = static_cast<size_t>(ip - base);
    if (ip_off - window_base >= 0xF000) {
      window_base = ip_off;
      std::memset(table, 0, sizeof(table));
    }

    const uint32_t h = HashBytes(Load32(ip));
    const uint16_t slot = table[h];
    table[h] = static_cast<uint16_t>(ip_off - window_base + 1);

    if (slot != 0) {
      const char* candidate = base + window_base + slot - 1;
      if (candidate < ip && Load32(candidate) == Load32(ip)) {
        const char* m =
            MatchEnd(candidate + kMinMatch, ip + kMinMatch, ip_end);
        const size_t match_len = static_cast<size_t>(m - ip);
        const size_t offset = static_cast<size_t>(ip - candidate);
        op = EmitLiteral(op, next_emit, ip);
        op = EmitCopy(op, offset, match_len);
        ip = m;
        next_emit = ip;
        // Refresh hash at the end of the match to find chained matches.
        if (ip <= ip_limit) {
          const size_t off2 = static_cast<size_t>(ip - 1 - base);
          if (off2 >= window_base) {
            table[HashBytes(Load32(ip - 1))] =
                static_cast<uint16_t>(off2 - window_base + 1);
          }
        }
        continue;
      }
    }
    ip++;
  }
  op = EmitLiteral(op, next_emit, ip_end);
  output->resize(static_cast<size_t>(op - out_begin));
}

// The largest output one input byte can encode: a copy-2 element turns 3
// bytes into 64.
constexpr size_t kMaxExpansion = 22;

bool GetUncompressedLength(const char* input, size_t n, size_t* result) {
  uint32_t len;
  const char* p = GetVarint32Ptr(input, input + n, &len);
  if (p == nullptr) return false;
  // A length the stream could not encode is corrupt; rejecting it here
  // keeps callers from sizing buffers from hostile preambles.
  if (len > (input + n - p) * kMaxExpansion) return false;
  *result = len;
  return true;
}

Status UncompressTo(const char* input, size_t n, char* output, size_t ulen) {
  const char* ip = input;
  const char* const ip_end = input + n;
  uint32_t declared;
  ip = GetVarint32Ptr(ip, ip_end, &declared);
  if (ip == nullptr || declared != ulen) {
    return Status::Corruption("lz: bad uncompressed-length preamble");
  }
  char* op = output;
  char* const op_end = output + ulen;

  while (ip < ip_end) {
    const uint8_t tag = static_cast<uint8_t>(*ip++);
    const uint8_t kind = tag & 0x03;
    if (kind == 0x00) {
      // Literal.
      size_t len = (tag >> 2) + 1;
      if (len > 60) {
        const size_t extra = len - 60;  // 1 or 2 length bytes
        if (extra > 2 || static_cast<size_t>(ip_end - ip) < extra) {
          return Status::Corruption("lz: truncated literal length");
        }
        size_t n2 = 0;
        for (size_t i = 0; i < extra; i++) {
          n2 |= static_cast<size_t>(static_cast<uint8_t>(ip[i])) << (8 * i);
        }
        len = n2 + 1;
        ip += extra;
      }
      if (len <= 16 && ip_end - ip >= 16 && op_end - op >= 16) {
        // Short literal with slack on both sides: one fixed-size copy.
        // The bytes past len are overwritten by the elements that follow.
        std::memcpy(op, ip, 16);
      } else {
        if (static_cast<size_t>(ip_end - ip) < len) {
          return Status::Corruption("lz: truncated literal data");
        }
        if (static_cast<size_t>(op_end - op) < len) {
          return Status::Corruption("lz: output exceeds declared length");
        }
        std::memcpy(op, ip, len);
      }
      op += len;
      ip += len;
    } else {
      size_t len;
      size_t offset;
      if (kind == 0x01) {
        len = ((tag >> 2) & 0x07) + 4;
        if (ip >= ip_end) return Status::Corruption("lz: truncated copy-1");
        offset = (static_cast<size_t>(tag >> 5) << 8) |
                 static_cast<uint8_t>(*ip++);
      } else if (kind == 0x02) {
        len = (tag >> 2) + 1;
        if (ip_end - ip < 2) return Status::Corruption("lz: truncated copy-2");
        offset = static_cast<uint8_t>(ip[0]) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[1])) << 8);
        ip += 2;
      } else {
        len = (tag >> 2) + 1;
        if (ip_end - ip < 4) return Status::Corruption("lz: truncated copy-4");
        offset = static_cast<uint8_t>(ip[0]) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[1])) << 8) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[2])) << 16) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[3])) << 24);
        ip += 4;
      }
      if (offset == 0 || offset > static_cast<size_t>(op - output)) {
        return Status::Corruption("lz: copy offset out of range");
      }
      if (static_cast<size_t>(op_end - op) < len) {
        return Status::Corruption("lz: output overrun");
      }
      if (len <= 16 && offset >= 8 && op_end - op >= 16) {
        // Short copy with slack: two fixed 8-byte copies, the second
        // reading bytes the first may have written.
        std::memcpy(op, op - offset, 8);
        std::memcpy(op + 8, op + 8 - offset, 8);
      } else if (offset >= len) {
        std::memcpy(op, op - offset, len);
      } else {
        CopyOverlapping(op, offset, len);
      }
      op += len;
    }
  }
  if (op != op_end) {
    return Status::Corruption("lz: output shorter than declared length");
  }
  return Status::OK();
}

Status Uncompress(const char* input, size_t n, std::string* output) {
  size_t ulen;
  if (!GetUncompressedLength(input, n, &ulen)) {
    return Status::Corruption("lz: bad uncompressed-length preamble");
  }
  output->resize(ulen);
  return UncompressTo(input, n, output->data(), ulen);
}

}  // namespace pipelsm::lz
