// CRC32C (Castagnoli) — used for S2 (CHECKSUM) and S6 (RE-CHECKSUM) of the
// compaction procedure, for WAL records and for SSTable block trailers.
//
// Uses the SSE4.2 crc32 instruction where the CPU has it (checked once per
// process) and a portable slice-by-8 table implementation otherwise; both
// compute the same function. The masked variant is stored on disk so a CRC
// over data that itself embeds CRCs stays well-distributed (same rationale
// and constant as LevelDB).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pipelsm::crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// The two implementations behind Extend, exposed so tests can check each.
// ExtendHardware falls back to ExtendPortable where HardwareAvailable() is
// false.
bool HardwareAvailable();
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

// crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

// Masked CRC suitable for storing alongside the data it covers.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace pipelsm::crc32c
