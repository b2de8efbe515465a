#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pipelsm::crc32c {

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C polynomial

struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Tables kTables;

inline uint32_t LoadLE32(const char* p) {
  uint32_t v;
  __builtin_memcpy(&v, p, 4);
  return v;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t v;
    std::memcpy(&v, data, 8);
    crc = _mm_crc32_u64(crc, v);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; data++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*data));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

}  // namespace

bool HardwareAvailable() {
#if defined(__x86_64__)
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
#else
  return false;
#endif
}

uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (HardwareAvailable()) return ExtendSse42(init_crc, data, n);
#endif
  return ExtendPortable(init_crc, data, n);
}

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& t = kTables.t;
  uint32_t crc = init_crc ^ 0xffffffffu;

  // Align to 8 bytes.
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*data)) & 0xff] ^ (crc >> 8);
    data++;
    n--;
  }

  // Slice-by-8 main loop.
  while (n >= 8) {
    uint32_t lo = LoadLE32(data) ^ crc;
    uint32_t hi = LoadLE32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][(lo >> 24) & 0xff] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][(hi >> 24) & 0xff];
    data += 8;
    n -= 8;
  }

  while (n > 0) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*data)) & 0xff] ^ (crc >> 8);
    data++;
    n--;
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return ExtendHardware(init_crc, data, n);
}

}  // namespace pipelsm::crc32c
