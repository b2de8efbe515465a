#include "src/version/version_edit.h"

#include <gtest/gtest.h>

#include "src/util/coding.h"
#include "src/util/random.h"

namespace pipelsm {
namespace {

// An edit that uses every tag.
VersionEdit EveryTagEdit() {
  VersionEdit edit;
  edit.SetComparatorName("pipelsm.BytewiseComparator");
  edit.SetLogNumber(12);
  edit.SetNextFile(345);
  edit.SetLastSequence(67890);
  edit.SetCompactPointer(2, InternalKey("pointer", 77, kTypeValue));
  edit.RemoveFile(1, 40);
  edit.AddFile(3, 41, 4096, InternalKey("alpha", 5, kTypeValue),
               InternalKey("omega", 6, kTypeDeletion));
  edit.AddFile(0, 42, 8192, InternalKey("b", 7, kTypeValuePointer),
               InternalKey("c", 8, kTypeValue));
  return edit;
}

// Hostile input either fails to decode or decodes to an edit whose keys
// are whole internal keys and that re-encodes stably; ASan/UBSan catch a
// read out of bounds.
void ExpectDecodesCleanly(const std::string& input) {
  VersionEdit parsed;
  if (!parsed.DecodeFrom(input).ok()) return;
  EXPECT_EQ(std::string::npos, parsed.DebugString().find("(bad)"));
  std::string encoded, encoded2;
  parsed.EncodeTo(&encoded);
  VersionEdit again;
  ASSERT_TRUE(again.DecodeFrom(encoded).ok());
  again.EncodeTo(&encoded2);
  EXPECT_EQ(encoded, encoded2);
}

void TestEncodeDecode(const VersionEdit& edit) {
  std::string encoded, encoded2;
  edit.EncodeTo(&encoded);
  VersionEdit parsed;
  Status s = parsed.DecodeFrom(encoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  parsed.EncodeTo(&encoded2);
  ASSERT_EQ(encoded, encoded2);
}

TEST(VersionEditTest, EncodeDecode) {
  static const uint64_t kBig = 1ull << 50;

  VersionEdit edit;
  for (int i = 0; i < 4; i++) {
    TestEncodeDecode(edit);
    edit.AddFile(3, kBig + 300 + i, kBig + 400 + i,
                 InternalKey("foo", kBig + 500 + i, kTypeValue),
                 InternalKey("zoo", kBig + 600 + i, kTypeDeletion));
    edit.RemoveFile(4, kBig + 700 + i);
    edit.SetCompactPointer(i, InternalKey("x", kBig + 900 + i, kTypeValue));
  }

  edit.SetComparatorName("foot");
  edit.SetLogNumber(kBig + 100);
  edit.SetNextFile(kBig + 200);
  edit.SetLastSequence(kBig + 1000);
  TestEncodeDecode(edit);
}

TEST(VersionEditTest, EmptyEdit) {
  VersionEdit edit;
  std::string encoded;
  edit.EncodeTo(&encoded);
  EXPECT_TRUE(encoded.empty());
  VersionEdit parsed;
  EXPECT_TRUE(parsed.DecodeFrom(encoded).ok());
}

TEST(VersionEditTest, DecodeRejectsGarbage) {
  // A new-file entry at level 1 whose smallest key is `smallest`.
  auto new_file = [](const std::string& smallest) {
    std::string entry;
    PutVarint32(&entry, 7);  // kNewFile
    PutVarint32(&entry, 1);
    PutVarint64(&entry, 2);
    PutVarint64(&entry, 3);
    PutLengthPrefixedSlice(&entry, smallest);
    PutLengthPrefixedSlice(&entry, InternalKey("b", 2, kTypeValue).Encode());
    return entry;
  };
  std::string bad_type = "abc";  // a whole tag that names no value type
  PutFixed64(&bad_type, (1 << 8) | 0x7f);
  for (const std::string& garbage :
       {std::string("\xff\xff garbage"), std::string("\x63"),  // tag 99
        std::string("\xff\xff\xff\xff\xff\xff"),  // tag varint overflow
        std::string("\x01\x64" "abc"),  // comparator name length lies
        new_file("abc"),               // key shorter than its 8-byte tag
        new_file(bad_type)}) {
    VersionEdit edit;
    EXPECT_FALSE(edit.DecodeFrom(garbage).ok()) << garbage.size();
  }
}

TEST(VersionEditTest, DecodeRejectsTruncation) {
  std::string encoded;
  EveryTagEdit().EncodeTo(&encoded);
  for (size_t cut = 1; cut < encoded.size(); cut++) {
    // Some prefixes are valid (they just contain fewer records); the rest
    // must fail cleanly.
    ExpectDecodesCleanly(encoded.substr(0, cut));
  }
}

// Seeded bit flips, and bytes overwritten with varints that lie (a zero or
// short length, one past the input, an unterminated continuation), over
// an edit that uses every tag.
TEST(VersionEditTest, DecodeSurvivesBitFlipsAndLyingLengths) {
  std::string encoded;
  EveryTagEdit().EncodeTo(&encoded);
  const char kLies[] = {'\x00', '\x03', '\x07', '\x7f', '\x80', '\xff'};
  Random rnd(301);
  for (int trial = 0; trial < 4000; trial++) {
    std::string input = encoded;
    const size_t at = rnd.Uniform(static_cast<int>(input.size()));
    if (trial % 2 == 0) {
      input[at] ^= static_cast<char>(1 << rnd.Uniform(8));
    } else {
      input[at] = kLies[rnd.Uniform(sizeof(kLies))];
    }
    ExpectDecodesCleanly(input);
  }
}

TEST(VersionEditTest, DecodeRejectsBadLevel) {
  // kDeletedFile with level 99 (>= kNumLevels).
  std::string encoded;
  PutVarint32(&encoded, 6);   // kDeletedFile
  PutVarint32(&encoded, 99);  // bad level
  PutVarint64(&encoded, 1);
  VersionEdit parsed;
  EXPECT_FALSE(parsed.DecodeFrom(encoded).ok());
}

TEST(VersionEditTest, ClearResets) {
  VersionEdit edit;
  edit.SetLogNumber(7);
  edit.AddFile(1, 2, 3, InternalKey("a", 1, kTypeValue),
               InternalKey("b", 2, kTypeValue));
  edit.Clear();
  std::string encoded;
  edit.EncodeTo(&encoded);
  EXPECT_TRUE(encoded.empty());
}

TEST(VersionEditTest, DebugStringMentionsFields) {
  VersionEdit edit;
  edit.SetLogNumber(9);
  edit.AddFile(2, 11, 1234, InternalKey("aa", 5, kTypeValue),
               InternalKey("zz", 6, kTypeValue));
  std::string dbg = edit.DebugString();
  EXPECT_NE(std::string::npos, dbg.find("LogNumber: 9"));
  EXPECT_NE(std::string::npos, dbg.find("AddFile: 2 11 1234"));
}

}  // namespace
}  // namespace pipelsm
