#include "src/compress/codec.h"

#include <gtest/gtest.h>

#include "src/compress/lz_codec.h"
#include "src/table/format.h"
#include "src/util/random.h"

namespace pipelsm {
namespace {

TEST(Codec, NoCompressionStoresRaw) {
  std::string raw = "some literal bytes";
  std::string out;
  CompressionType used =
      CompressBlock(CompressionType::kNoCompression, raw, &out);
  EXPECT_EQ(CompressionType::kNoCompression, used);
  EXPECT_EQ(raw, out);

  // Decoding it copies nothing: the contents are the stored bytes.
  AppendBlockTrailer(used, &out);
  BlockContents back;
  ASSERT_TRUE(DecodeBlock(out, &back).ok());
  EXPECT_EQ(raw, back.data.ToString());
  EXPECT_EQ(out.data(), back.data.data());
  EXPECT_FALSE(back.heap_allocated);
}

TEST(Codec, LzCompressesCompressibleData) {
  std::string raw(8192, 'z');
  std::string out;
  CompressionType used =
      CompressBlock(CompressionType::kLzCompression, raw, &out);
  EXPECT_EQ(CompressionType::kLzCompression, used);
  EXPECT_LT(out.size(), raw.size());

  std::string back;
  ASSERT_TRUE(lz::Uncompress(out.data(), out.size(), &back).ok());
  EXPECT_EQ(raw, back);
}

TEST(Codec, FallsBackToRawForIncompressible) {
  // Random bytes: the 12.5% shrink policy should store raw.
  Xoroshiro128pp rng(9);
  std::string raw;
  for (int i = 0; i < 4096; i++) {
    raw.push_back(static_cast<char>(rng.Next()));
  }
  std::string out;
  CompressionType used =
      CompressBlock(CompressionType::kLzCompression, raw, &out);
  EXPECT_EQ(CompressionType::kNoCompression, used);
  EXPECT_EQ(raw, out);
}

TEST(Codec, UnknownTypeRejected) {
  std::string stored = "xx";
  AppendBlockTrailer(static_cast<CompressionType>(0x7f), &stored);
  BlockContents contents;
  Status s = DecodeBlock(stored, &contents);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(Codec, TypeNames) {
  EXPECT_STREQ("none", CompressionTypeName(CompressionType::kNoCompression));
  EXPECT_STREQ("lz", CompressionTypeName(CompressionType::kLzCompression));
}

}  // namespace
}  // namespace pipelsm
