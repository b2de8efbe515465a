#include "src/db/dbformat.h"

#include <gtest/gtest.h>

namespace pipelsm {
namespace {

std::string IKey(const std::string& user_key, uint64_t seq, ValueType vt) {
  std::string encoded;
  AppendInternalKey(&encoded, ParsedInternalKey(user_key, seq, vt));
  return encoded;
}

void TestKey(const std::string& key, uint64_t seq, ValueType vt) {
  std::string encoded = IKey(key, seq, vt);

  Slice in(encoded);
  ParsedInternalKey decoded("", 0, kTypeValue);

  ASSERT_TRUE(ParseInternalKey(in, &decoded));
  ASSERT_EQ(key, decoded.user_key.ToString());
  ASSERT_EQ(seq, decoded.sequence);
  ASSERT_EQ(vt, decoded.type);

  ASSERT_FALSE(ParseInternalKey(Slice("bar"), &decoded));
}

TEST(FormatTest, InternalKey_EncodeDecode) {
  const char* keys[] = {"", "k", "hello", "longggggggggggggggggggggg"};
  const uint64_t seq[] = {1,
                          2,
                          3,
                          (1ull << 8) - 1,
                          1ull << 8,
                          (1ull << 8) + 1,
                          (1ull << 16) - 1,
                          1ull << 16,
                          (1ull << 16) + 1,
                          (1ull << 32) - 1,
                          1ull << 32,
                          (1ull << 32) + 1};
  for (unsigned int k = 0; k < sizeof(keys) / sizeof(keys[0]); k++) {
    for (unsigned int s = 0; s < sizeof(seq) / sizeof(seq[0]); s++) {
      TestKey(keys[k], seq[s], kTypeValue);
      TestKey("hello", 1, kTypeDeletion);
    }
  }
}

TEST(FormatTest, InternalKeyOrdering) {
  InternalKeyComparator icmp(BytewiseComparator());
  // Same user key: higher sequence sorts FIRST.
  EXPECT_LT(icmp.Compare(IKey("a", 10, kTypeValue), IKey("a", 5, kTypeValue)),
            0);
  // Different user keys: lexicographic.
  EXPECT_LT(icmp.Compare(IKey("a", 1, kTypeValue), IKey("b", 100, kTypeValue)),
            0);
  // Same user key + sequence: value sorts before... (type descending).
  EXPECT_LT(
      icmp.Compare(IKey("a", 5, kTypeValue), IKey("a", 5, kTypeDeletion)), 0);
}

TEST(FormatTest, LookupKey) {
  LookupKey lkey("user", 99);
  EXPECT_EQ("user", lkey.user_key().ToString());
  Slice ikey = lkey.internal_key();
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(ikey, &parsed));
  EXPECT_EQ("user", parsed.user_key.ToString());
  EXPECT_EQ(99u, parsed.sequence);
  EXPECT_EQ(kValueTypeForSeek, parsed.type);

  // Long key exercises the heap-allocation path.
  std::string long_key(500, 'x');
  LookupKey lkey2(long_key, 1);
  EXPECT_EQ(long_key, lkey2.user_key().ToString());
}

TEST(FormatTest, ParseRejectsBadType) {
  std::string encoded;
  encoded.append("key");
  PutFixed64(&encoded, PackSequenceAndType(1, static_cast<ValueType>(0x7f)));
  ParsedInternalKey parsed;
  EXPECT_FALSE(ParseInternalKey(encoded, &parsed));
}

}  // namespace
}  // namespace pipelsm
