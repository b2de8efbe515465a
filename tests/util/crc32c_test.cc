#include "src/util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

namespace pipelsm::crc32c {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Reference vectors from the CRC32C specification (also used by LevelDB),
// checked against one implementation.
void ExpectStandardResults(ExtendFn extend) {
  char buf[32];

  std::memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, extend(0, buf, sizeof(buf)));

  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, extend(0, buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  EXPECT_EQ(0x46dd794eu, extend(0, buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(0x113fdb5cu, extend(0, buf, sizeof(buf)));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u,
            extend(0, reinterpret_cast<char*>(data), sizeof(data)));
}

TEST(CRC, StandardResults) { ExpectStandardResults(&Extend); }

TEST(CRC, StandardResultsPortable) { ExpectStandardResults(&ExtendPortable); }

// On a CPU without SSE4.2 this checks the fallback a second time.
TEST(CRC, StandardResultsHardware) { ExpectStandardResults(&ExtendHardware); }

// The two paths agree on every length up to 4 KiB at every alignment, and
// when extending a non-zero CRC.
TEST(CRC, HardwareMatchesPortable) {
  std::mt19937 rng(301);
  std::string data(4096 + 8, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  for (size_t align = 0; align < 8; align++) {
    for (size_t n = 0; n <= 4096; n++) {
      const char* p = data.data() + align;
      ASSERT_EQ(ExtendPortable(0, p, n), ExtendHardware(0, p, n))
          << "align " << align << " length " << n;
      ASSERT_EQ(ExtendPortable(0x12345678u, p, n),
                ExtendHardware(0x12345678u, p, n))
          << "align " << align << " length " << n;
    }
  }
}

TEST(CRC, Values) { EXPECT_NE(Value("a", 1), Value("foo", 3)); }

TEST(CRC, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

// Extending byte-by-byte must equal one-shot for arbitrary alignments.
TEST(CRC, ExtendIncremental) {
  std::string data;
  for (int i = 0; i < 1000; i++) {
    data.push_back(static_cast<char>(i * 37 + (i >> 3)));
  }
  const uint32_t oneshot = Value(data.data(), data.size());
  uint32_t crc = 0;
  for (char c : data) {
    crc = Extend(crc, &c, 1);
  }
  EXPECT_EQ(oneshot, crc);

  // Chunked at odd boundaries (exercises the unaligned head path).
  crc = 0;
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < data.size()) {
    const size_t n = std::min(chunk, data.size() - pos);
    crc = Extend(crc, data.data() + pos, n);
    pos += n;
    chunk = (chunk * 3 + 1) % 61 + 1;
  }
  EXPECT_EQ(oneshot, crc);
}

TEST(CRC, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

// Single-bit corruption anywhere must change the CRC.
TEST(CRC, DetectsBitFlips) {
  std::string data = "The quick brown fox jumps over the lazy dog";
  const uint32_t clean = Value(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(clean, Value(data.data(), data.size()))
          << "flip at byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(clean, Value(data.data(), data.size()));
}

TEST(CRC, EmptyInput) {
  EXPECT_EQ(0u, Value("", 0));
  EXPECT_EQ(Value("x", 1), Extend(Value("", 0), "x", 1));
}

}  // namespace
}  // namespace pipelsm::crc32c
