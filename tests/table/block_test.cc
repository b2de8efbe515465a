#include "src/table/block.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/table/block_builder.h"
#include "src/table/comparator.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace pipelsm {
namespace {

// Builds a block from sorted pairs and returns an owning Block.
std::unique_ptr<Block> BuildBlock(const std::map<std::string, std::string>& kv,
                                  int restart_interval = 16) {
  BlockBuilder builder(restart_interval);
  for (const auto& [k, v] : kv) {
    builder.Add(k, v);
  }
  Slice raw = builder.Finish();
  char* buf = new char[raw.size()];
  std::memcpy(buf, raw.data(), raw.size());
  BlockContents contents;
  contents.data = Slice(buf, raw.size());
  contents.heap_allocated = true;
  return std::make_unique<Block>(contents);
}

TEST(Block, EmptyBlockIterates) {
  std::map<std::string, std::string> kv;
  auto block = BuildBlock(kv);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST(Block, ForwardIteration) {
  std::map<std::string, std::string> kv = {
      {"apple", "1"}, {"banana", "2"}, {"cherry", "3"}, {"date", "4"}};
  auto block = BuildBlock(kv);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  auto expected = kv.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(kv.end(), expected);
    EXPECT_EQ(expected->first, it->key().ToString());
    EXPECT_EQ(expected->second, it->value().ToString());
  }
  EXPECT_EQ(kv.end(), expected);
  EXPECT_TRUE(it->status().ok());
}

TEST(Block, BackwardIteration) {
  std::map<std::string, std::string> kv = {
      {"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}, {"e", "5"}};
  auto block = BuildBlock(kv, /*restart_interval=*/2);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  auto expected = kv.rbegin();
  for (it->SeekToLast(); it->Valid(); it->Prev(), ++expected) {
    ASSERT_NE(kv.rend(), expected);
    EXPECT_EQ(expected->first, it->key().ToString());
  }
  EXPECT_EQ(kv.rend(), expected);
}

TEST(Block, Seek) {
  std::map<std::string, std::string> kv = {
      {"b", "1"}, {"d", "2"}, {"f", "3"}, {"h", "4"}};
  auto block = BuildBlock(kv, 2);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));

  it->Seek("d");  // exact hit
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("d", it->key().ToString());

  it->Seek("e");  // between keys: lands on next
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("f", it->key().ToString());

  it->Seek("a");  // before first
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("b", it->key().ToString());

  it->Seek("z");  // past last
  EXPECT_FALSE(it->Valid());
}

TEST(Block, PrefixCompressionPreservesKeys) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 500; i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "common_prefix_%06d", i);
    kv[buf] = std::to_string(i);
  }
  auto block = BuildBlock(kv, 16);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  auto expected = kv.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    EXPECT_EQ(expected->first, it->key().ToString());
    EXPECT_EQ(expected->second, it->value().ToString());
  }
  EXPECT_EQ(kv.end(), expected);
}

TEST(Block, CorruptContentsYieldErrorIterator) {
  BlockContents contents;
  contents.data = Slice("xx", 2);  // shorter than the restart count field
  contents.heap_allocated = false;
  Block block(contents);
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(it->status().ok());
}

TEST(BlockBuilder, ResetReuses) {
  BlockBuilder builder(4);
  builder.Add("a", "1");
  builder.Add("b", "2");
  EXPECT_GT(builder.CurrentSizeEstimate(), 0u);
  builder.Finish();
  builder.Reset();
  EXPECT_TRUE(builder.empty());
  builder.Add("c", "3");
  Slice raw = builder.Finish();
  EXPECT_GT(raw.size(), 0u);
}

// Property sweep across restart intervals: every key written is found by
// both scan and seek.
class BlockRestartSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockRestartSweep, ScanAndSeek) {
  const int restart_interval = GetParam();
  Random rnd(restart_interval * 997);
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 200; i++) {
    std::string key;
    const int len = 1 + rnd.Uniform(24);
    for (int j = 0; j < len; j++) {
      key.push_back(static_cast<char>('a' + rnd.Uniform(26)));
    }
    kv[key] = std::to_string(rnd.Next());
  }
  auto block = BuildBlock(kv, restart_interval);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));

  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_EQ(kv.size(), n);

  for (const auto& [k, v] : kv) {
    it->Seek(k);
    ASSERT_TRUE(it->Valid()) << k;
    EXPECT_EQ(k, it->key().ToString());
    EXPECT_EQ(v, it->value().ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(RestartIntervals, BlockRestartSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 64));

// ---- hostile block contents: every cache hit re-parses a block from
// its stored bytes, so the parser must survive any bytes that pass a
// CRC by chance or were never checked. ----

// The block bytes under test, in a heap buffer of exactly their size so
// a sanitizer build sees any read past the end.
struct HostileBlock {
  explicit HostileBlock(const std::string& bytes) {
    char* buf = new char[bytes.size() == 0 ? 1 : bytes.size()];
    std::memcpy(buf, bytes.data(), bytes.size());
    begin = buf;
    end = buf + bytes.size();
    BlockContents contents;
    contents.data = Slice(buf, bytes.size());
    contents.heap_allocated = true;
    block = std::make_unique<Block>(contents);
  }
  bool Inside(const Slice& s) const {
    return s.data() >= begin && s.data() + s.size() <= end;
  }
  const char* begin;
  const char* end;
  std::unique_ptr<Block> block;
};

// Drives every iterator entry point over `bytes`. Each walk must end
// within a bounded number of steps, every entry it yields must point
// inside the block, and it must end with OK or Corruption.
void ExpectCleanOrCorruption(const std::string& bytes, Random* rnd,
                             const std::string& what) {
  SCOPED_TRACE(what);
  HostileBlock hb(bytes);
  const size_t max_steps = bytes.size() + 2;  // each entry is >= 3 bytes
  auto check_end = [](Iterator* it) {
    EXPECT_TRUE(it->status().ok() || it->status().IsCorruption())
        << it->status().ToString();
  };
  {
    std::unique_ptr<Iterator> it(hb.block->NewIterator(BytewiseComparator()));
    size_t steps = 0;
    for (it->SeekToFirst(); it->Valid() && steps <= max_steps; it->Next()) {
      ASSERT_TRUE(hb.Inside(it->value()));
      steps++;
    }
    EXPECT_LE(steps, max_steps);
    check_end(it.get());
  }
  {
    std::unique_ptr<Iterator> it(hb.block->NewIterator(BytewiseComparator()));
    size_t steps = 0;
    for (it->SeekToLast(); it->Valid() && steps <= max_steps; it->Prev()) {
      ASSERT_TRUE(hb.Inside(it->value()));
      steps++;
    }
    EXPECT_LE(steps, max_steps);
    check_end(it.get());
  }
  for (int i = 0; i < 8; i++) {
    std::unique_ptr<Iterator> it(hb.block->NewIterator(BytewiseComparator()));
    char target[8];
    std::snprintf(target, sizeof(target), "k%04u", rnd->Uniform(300));
    it->Seek(target);
    for (int step = 0; it->Valid() && step < 4; step++) {
      ASSERT_TRUE(hb.Inside(it->value()));
      if (rnd->OneIn(2)) {
        it->Next();
      } else {
        it->Prev();
      }
    }
    check_end(it.get());
  }
}

std::string ValidBlockBytes(int restart_interval) {
  BlockBuilder builder(restart_interval);
  for (int i = 0; i < 200; i++) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%04d", i);
    builder.Add(key, std::string(5 + i % 40, static_cast<char>('a' + i % 26)));
  }
  return builder.Finish().ToString();
}

TEST(HostileBlock, BitFlipsAndTruncations) {
  Random rnd(0xb10c);
  for (int interval : {1, 4, 16}) {
    const std::string good = ValidBlockBytes(interval);
    ExpectCleanOrCorruption(good, &rnd, "unmodified");
    // The restart array and its count, where one bit flip can move an
    // offset anywhere; half the flips land there.
    const int tail = static_cast<int>(
        4 * (1 + DecodeFixed32(good.data() + good.size() - 4)));
    for (int round = 0; round < 150; round++) {
      std::string bad = good;
      for (int f = 0, flips = 1 + rnd.Uniform(6); f < flips; f++) {
        const size_t pos = rnd.OneIn(2)
                               ? bad.size() - 1 - rnd.Uniform(tail)
                               : rnd.Uniform(static_cast<int>(bad.size()));
        bad[pos] = static_cast<char>(bad[pos] ^ (1 << rnd.Uniform(8)));
      }
      ExpectCleanOrCorruption(bad, &rnd, "flip round " + std::to_string(round));
      const size_t cut = rnd.Uniform(static_cast<int>(good.size()));
      ExpectCleanOrCorruption(good.substr(0, cut), &rnd,
                              "cut at " + std::to_string(cut));
    }
  }
}

// Entries written by hand, so each length field can lie. An entry whose
// lengths are honest carries that many key and value bytes (11 bytes in
// all for {0, 4, 4}); one that lies carries 8.
std::string HandBlock(const std::vector<std::array<uint32_t, 3>>& headers,
                      const std::vector<uint32_t>& restarts,
                      uint32_t num_restarts) {
  std::string out;
  char letter = 'a';
  for (const auto& [shared, non_shared, value_length] : headers) {
    PutVarint32(&out, shared);
    PutVarint32(&out, non_shared);
    PutVarint32(&out, value_length);
    if (non_shared <= 16 && value_length <= 16) {
      out.append(non_shared, letter++);
      out.append(value_length, 'v');
    } else {
      out.append("key1val1");
    }
  }
  for (uint32_t r : restarts) PutFixed32(&out, r);
  PutFixed32(&out, num_restarts);
  return out;
}

TEST(HostileBlock, LyingLengthsAndRestarts) {
  Random rnd(0x11e5);
  const uint32_t kHuge = 0xffffffffu;
  struct Case {
    const char* what;
    std::string bytes;
  };
  const std::vector<Case> cases = {
      {"honest", HandBlock({{0, 4, 4}, {3, 1, 4}}, {0}, 1)},
      // non_shared + value_length wraps to 3 in 32 bits.
      {"lengths wrap", HandBlock({{0, kHuge, 4}}, {0}, 1)},
      {"huge value", HandBlock({{0, 4, kHuge}}, {0}, 1)},
      {"huge key", HandBlock({{0, kHuge, 0}}, {0}, 1)},
      {"shared before any key", HandBlock({{3, 1, 4}}, {0}, 1)},
      {"shared past previous key", HandBlock({{0, 4, 4}, {9, 1, 4}}, {0}, 1)},
      {"restart shares", HandBlock({{0, 4, 4}, {3, 1, 4}}, {0, 11}, 2)},
      {"restart past entries", HandBlock({{0, 4, 4}}, {kHuge}, 1)},
      {"restart at array", HandBlock({{0, 4, 4}}, {0, 11}, 2)},
      {"restart mid-entry", HandBlock({{0, 4, 4}, {0, 4, 4}}, {0, 5}, 2)},
      {"restarts out of order",
       HandBlock({{0, 4, 4}, {0, 4, 4}, {0, 4, 4}}, {22, 0, 11}, 3)},
      {"restart count too large", HandBlock({{0, 4, 4}}, {0}, kHuge)},
      {"restart count past array", HandBlock({{0, 4, 4}}, {0}, 4)},
      {"no restarts", HandBlock({{0, 4, 4}}, {}, 0)},
  };
  for (const Case& c : cases) {
    ExpectCleanOrCorruption(c.bytes, &rnd, c.what);
  }

  // The wrap case must be reported, not skipped over.
  HostileBlock wrap(HandBlock({{0, kHuge, 4}}, {0}, 1));
  std::unique_ptr<Iterator> it(wrap.block->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption());

  // So must a first restart point past the entries: the block is not
  // silently empty.
  HostileBlock past(HandBlock({{0, 4, 4}}, {kHuge}, 1));
  it.reset(past.block->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption());
  it.reset(past.block->NewIterator(BytewiseComparator()));
  it->Seek("a");
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption());
}

}  // namespace
}  // namespace pipelsm
