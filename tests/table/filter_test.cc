#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/table/filter_block.h"
#include "src/table/filter_policy.h"
#include "src/util/coding.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace pipelsm {
namespace {

TEST(Bloom, EmptyFilter) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::string filter;
  policy->CreateFilter(nullptr, 0, &filter);
  EXPECT_FALSE(policy->KeyMayMatch("hello", filter));
}

TEST(Bloom, AddedKeysMatch) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<Slice> keys = {"hello", "world"};
  std::string filter;
  policy->CreateFilter(keys.data(), keys.size(), &filter);
  EXPECT_TRUE(policy->KeyMayMatch("hello", filter));
  EXPECT_TRUE(policy->KeyMayMatch("world", filter));
}

TEST(Bloom, FalsePositiveRateReasonable) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 10000; i++) {
    key_storage.push_back("key" + std::to_string(i));
  }
  for (const auto& k : key_storage) keys.emplace_back(k);
  std::string filter;
  policy->CreateFilter(keys.data(), keys.size(), &filter);

  for (const auto& k : key_storage) {
    EXPECT_TRUE(policy->KeyMayMatch(k, filter));  // no false negatives, ever
  }

  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; i++) {
    if (policy->KeyMayMatch("absent" + std::to_string(i), filter)) {
      false_positives++;
    }
  }
  // 10 bits/key → ~1%; allow up to 4%.
  EXPECT_LT(false_positives, probes / 25);
}

TEST(Bloom, VaryingBitsPerKey) {
  for (int bits : {4, 8, 10, 16}) {
    std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(bits));
    std::vector<Slice> keys = {"a", "bb", "ccc"};
    std::string filter;
    policy->CreateFilter(keys.data(), keys.size(), &filter);
    for (const Slice& k : keys) {
      EXPECT_TRUE(policy->KeyMayMatch(k, filter)) << bits;
    }
  }
}

// Filter-block plumbing: one prebuilt filter per data block, windows of
// 2 KiB of block offsets, partitions, and the shared-window rule.
class FilterBlockTest : public ::testing::Test {
 protected:
  FilterBlockTest() : policy_(NewBloomFilterPolicy(10)) {}

  // The filter a BlockEncoder would build for a block holding `keys`.
  std::string Filter(const std::vector<std::string>& keys) const {
    std::vector<Slice> slices(keys.begin(), keys.end());
    std::string filter;
    policy_->CreateFilter(slices.data(), slices.size(), &filter);
    return filter;
  }

  std::unique_ptr<const FilterPolicy> policy_;
};

TEST_F(FilterBlockTest, EmptyBuilder) {
  FilterBlockBuilder builder;
  Slice block = builder.Finish();
  // Zero partitions: index offset 0, count 0, base_lg — the 9-byte tail.
  ASSERT_EQ("\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x0b",
            EscapeString(block));
  FilterBlockReader reader(policy_.get(), block);
  EXPECT_TRUE(reader.KeyMayMatch(0, "foo"));
  EXPECT_TRUE(reader.KeyMayMatch(100000, "foo"));
}

TEST_F(FilterBlockTest, SingleChunk) {
  // One block in window 0.
  FilterBlockBuilder builder;
  builder.AddBlockFilter(100, Filter({"foo", "bar", "box", "hello"}));
  Slice block = builder.Finish();
  FilterBlockReader reader(policy_.get(), block);
  EXPECT_TRUE(reader.KeyMayMatch(100, "foo"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "bar"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "box"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "hello"));
  EXPECT_FALSE(reader.KeyMayMatch(100, "missing"));
  EXPECT_FALSE(reader.KeyMayMatch(100, "other"));
}

TEST_F(FilterBlockTest, MultiChunk) {
  FilterBlockBuilder builder;
  builder.AddBlockFilter(0, Filter({"foo"}));             // window 0
  builder.AddBlockFilter(3100, Filter({"box"}));          // window 1
  // Windows 2 and 3 hold no block: empty filters.
  builder.AddBlockFilter(9000, Filter({"box", "hello"}));  // window 4
  Slice block = builder.Finish();
  FilterBlockReader reader(policy_.get(), block);

  // First filter
  EXPECT_TRUE(reader.KeyMayMatch(0, "foo"));
  EXPECT_FALSE(reader.KeyMayMatch(0, "box"));
  EXPECT_FALSE(reader.KeyMayMatch(0, "hello"));

  // Second filter
  EXPECT_TRUE(reader.KeyMayMatch(3100, "box"));
  EXPECT_FALSE(reader.KeyMayMatch(3100, "foo"));
  EXPECT_FALSE(reader.KeyMayMatch(3100, "hello"));

  // Empty windows
  EXPECT_FALSE(reader.KeyMayMatch(4100, "foo"));
  EXPECT_FALSE(reader.KeyMayMatch(4100, "box"));
  EXPECT_FALSE(reader.KeyMayMatch(6200, "hello"));

  // Last filter
  EXPECT_TRUE(reader.KeyMayMatch(9000, "box"));
  EXPECT_TRUE(reader.KeyMayMatch(9000, "hello"));
  EXPECT_FALSE(reader.KeyMayMatch(9000, "foo"));
}

TEST_F(FilterBlockTest, SharedWindowMatchesEveryBlocksKeys) {
  // Two short blocks start in window 0. Neither block's filter may stand
  // for the window, or the other block's keys would be false negatives.
  FilterBlockBuilder builder;
  builder.AddBlockFilter(0, Filter({"a1", "a2"}));
  builder.AddBlockFilter(900, Filter({"b1", "b2"}));
  builder.AddBlockFilter(2048, Filter({"c1"}));  // window 1, alone
  Slice block = builder.Finish();
  FilterBlockReader reader(policy_.get(), block);

  for (const char* key : {"a1", "a2", "b1", "b2"}) {
    EXPECT_TRUE(reader.KeyMayMatch(0, key)) << key;
    EXPECT_TRUE(reader.KeyMayMatch(900, key)) << key;
  }
  // The window after keeps its own, selective filter.
  EXPECT_TRUE(reader.KeyMayMatch(2048, "c1"));
  EXPECT_FALSE(reader.KeyMayMatch(2048, "a1"));
  EXPECT_FALSE(reader.KeyMayMatch(2048, "b1"));
}

TEST_F(FilterBlockTest, TinyPartitionsSplitAndProbeCorrectly) {
  // partition_bytes=1: every window seals its own partition, so probes
  // must route through the top index, not a single offset array.
  FilterBlockBuilder builder(1);
  const int kBlocks = 40;
  for (int i = 0; i < kBlocks; i++) {
    builder.AddBlockFilter(static_cast<uint64_t>(i) * 2048,
                           Filter({"key" + std::to_string(i)}));
  }
  Slice block = builder.Finish();

  FilterBlockReader reader(policy_.get(), block);
  ASSERT_TRUE(reader.index().valid());
  EXPECT_GT(reader.index().num_partitions(), 1u);
  for (int i = 0; i < kBlocks; i++) {
    const uint64_t offset = static_cast<uint64_t>(i) * 2048;
    EXPECT_TRUE(reader.KeyMayMatch(offset, "key" + std::to_string(i))) << i;
    EXPECT_FALSE(reader.KeyMayMatch(offset, "absent" + std::to_string(i)))
        << i;
  }
  // Past the covered range: no filter, must not reject.
  EXPECT_TRUE(reader.KeyMayMatch(kBlocks * 2048 + (64 << 10), "anything"));
}

TEST_F(FilterBlockTest, ParseTailMatchesFullParse) {
  FilterBlockBuilder builder(64);
  for (int i = 0; i < 20; i++) {
    builder.AddBlockFilter(static_cast<uint64_t>(i) * 2048,
                           Filter({"k" + std::to_string(i)}));
  }
  const std::string block = builder.Finish().ToString();

  FilterIndex full;
  ASSERT_TRUE(full.Parse(block));
  ASSERT_GT(full.num_partitions(), 1u);

  // A tail-only parse (index + tail words, no partition payload) sees
  // the identical index.
  const size_t tail_bytes = full.num_partitions() * 16 + 9;
  FilterIndex tail;
  ASSERT_TRUE(tail.ParseTail(
      Slice(block.data() + block.size() - tail_bytes, tail_bytes),
      block.size()));
  ASSERT_EQ(full.num_partitions(), tail.num_partitions());
  for (size_t i = 0; i < full.num_partitions(); i++) {
    EXPECT_EQ(full.partition(i).first_window, tail.partition(i).first_window);
    EXPECT_EQ(full.partition(i).num_windows, tail.partition(i).num_windows);
    EXPECT_EQ(full.partition(i).offset, tail.partition(i).offset);
    EXPECT_EQ(full.partition(i).size, tail.partition(i).size);
  }
}

TEST_F(FilterBlockTest, CorruptPartitionFailsCrcButNeverRejects) {
  FilterBlockBuilder builder(1);
  for (int i = 0; i < 4; i++) {
    builder.AddBlockFilter(static_cast<uint64_t>(i) * 2048,
                           Filter({"k" + std::to_string(i)}));
  }
  std::string block = builder.Finish().ToString();

  FilterIndex index;
  ASSERT_TRUE(index.Parse(block));
  ASSERT_GE(index.num_partitions(), 1u);
  const FilterPartitionInfo& p = index.partition(0);
  ASSERT_TRUE(FilterPartitionCrcOk(Slice(block.data() + p.offset, p.size)));
  block[p.offset] ^= 0x40;  // flip a filter bit
  EXPECT_FALSE(FilterPartitionCrcOk(Slice(block.data() + p.offset, p.size)));
  // Malformed probes answer "may match" — a corrupt filter can cost an
  // extra read, never a false negative.
  EXPECT_TRUE(FilterPartitionKeyMayMatch(policy_.get(), Slice("x", 1), 3, 1,
                                         "whatever"));
}

// ---- hostile filter blocks: the top index and the tail words carry no
// CRC of their own, and Table::ReadFilter reads them without the block
// trailer's check. A damaged block must either fail to parse (the table
// then has no filter) or answer may-match for every key a block holds:
// a filter may cost an extra read, never a false negative. ----

class FilterBlockHostileTest : public FilterBlockTest {
 protected:
  static constexpr int kBlocks = 40;
  static constexpr int kKeysPerBlock = 4;

  // 40 blocks, one per 2 KiB window with a gap every seventh window,
  // in 64-byte partitions: many partitions, each with a few windows.
  FilterBlockHostileTest() {
    FilterBlockBuilder builder(64);
    uint64_t offset = 0;
    for (int b = 0; b < kBlocks; b++) {
      std::vector<std::string> keys;
      for (int k = 0; k < kKeysPerBlock; k++) {
        keys.push_back("b" + std::to_string(b) + "k" + std::to_string(k));
        present_.emplace_back(offset + 100, keys.back());
      }
      builder.AddBlockFilter(offset + 100, Filter(keys));
      offset += (b % 7 == 6 ? 2 : 1) * (1 << kFilterBaseLg);
    }
    block_ = builder.Finish().ToString();
    FilterIndex index;
    EXPECT_TRUE(index.Parse(block_));
    num_partitions_ = index.num_partitions();
    EXPECT_GT(num_partitions_, 4u);
    index_start_ = block_.size() - 9 - num_partitions_ * 16;
  }

  // Probes `block` the way Table::FilterKeyMayMatch does: the tail
  // words first, then the index they size, then the covering partition
  // as one extent, CRC-checked before the probe.
  bool TailReadMayMatch(const std::string& block, uint64_t offset,
                        const Slice& key) const {
    if (block.size() < 9) return true;
    const uint64_t index_bytes =
        uint64_t{DecodeFixed32(block.data() + block.size() - 5)} * 16;
    if (index_bytes + 9 > block.size()) return true;
    FilterIndex index;
    if (!index.ParseTail(Slice(block.data() + block.size() - index_bytes - 9,
                               index_bytes + 9),
                         block.size())) {
      return true;
    }
    const uint64_t window = offset >> kFilterBaseLg;
    FilterPartitionInfo p;
    if (!index.Lookup(window, &p)) return true;
    if (uint64_t{p.offset} + p.size > block.size()) return true;
    const Slice partition(block.data() + p.offset, p.size);
    if (!FilterPartitionCrcOk(partition)) return true;
    return FilterPartitionKeyMayMatch(
        policy_.get(), partition, p.num_windows,
        static_cast<uint32_t>(window - p.first_window), key);
  }

  // Every decoder over `block` keeps every present key.
  void ExpectNoFalseNegative(const std::string& block,
                             const std::string& what) {
    FilterIndex full;
    full.Parse(block);  // must not crash; validity is the readers' call
    FilterBlockReader reader(policy_.get(), block);
    for (const auto& [offset, key] : present_) {
      ASSERT_TRUE(reader.KeyMayMatch(offset, key)) << what << " " << key;
      ASSERT_TRUE(TailReadMayMatch(block, offset, key)) << what << " " << key;
    }
  }

  // Rewrites one fixed32 field of index entry `i` (0 first_window,
  // 1 num_windows, 2 offset, 3 size).
  std::string WithIndexField(size_t i, int field, uint32_t value) const {
    std::string block = block_;
    EncodeFixed32(&block[index_start_ + i * 16 + field * 4], value);
    return block;
  }

  std::string block_;
  std::vector<std::pair<uint64_t, std::string>> present_;
  size_t num_partitions_ = 0;
  size_t index_start_ = 0;
};

TEST_F(FilterBlockHostileTest, IntactBlockFiltersAbsentKeys) {
  // The baseline the mutations are measured against: every key is kept,
  // and the filter does reject most absent keys on both read paths.
  ExpectNoFalseNegative(block_, "intact");
  FilterBlockReader reader(policy_.get(), block_);
  int rejected = 0;
  for (const auto& [offset, key] : present_) {
    rejected += !reader.KeyMayMatch(offset, key + "-absent");
    rejected += !TailReadMayMatch(block_, offset, key + "-absent");
  }
  EXPECT_GT(rejected, static_cast<int>(present_.size()));
}

TEST_F(FilterBlockHostileTest, SeededBitFlipsNeverHideAKey) {
  Random rnd(3701);
  for (int i = 0; i < 3000; i++) {
    std::string block = block_;
    // Half the flips land in the index and tail words, which no CRC
    // covers; the rest anywhere.
    const size_t lo = i % 2 == 0 ? index_start_ : 0;
    const size_t pos = lo + rnd.Uniform(static_cast<int>(block.size() - lo));
    block[pos] ^= static_cast<char>(1 << rnd.Uniform(8));
    ExpectNoFalseNegative(block, "flip@" + std::to_string(pos));
    if (HasFatalFailure()) return;
  }
}

TEST_F(FilterBlockHostileTest, TruncationsNeverHideAKey) {
  for (size_t n = 0; n < block_.size(); n++) {
    // A short block (the head survives) and a tail read that starts
    // late (the tail survives, every offset in it now lies).
    ExpectNoFalseNegative(block_.substr(0, n), "head " + std::to_string(n));
    ExpectNoFalseNegative(block_.substr(block_.size() - n),
                          "tail " + std::to_string(n));
    if (HasFatalFailure()) return;
  }
}

TEST_F(FilterBlockHostileTest, LyingPartitionCountIsRejected) {
  const size_t count_pos = block_.size() - 5;
  for (uint32_t lie : {0u, 1u, static_cast<uint32_t>(num_partitions_ - 1),
                       static_cast<uint32_t>(num_partitions_ + 1),
                       static_cast<uint32_t>(num_partitions_ * 2),
                       0x0fffffffu, 0xffffffffu}) {
    std::string block = block_;
    EncodeFixed32(&block[count_pos], lie);
    FilterIndex index;
    EXPECT_FALSE(index.Parse(block)) << lie;
    ExpectNoFalseNegative(block, "count " + std::to_string(lie));
  }
}

TEST_F(FilterBlockHostileTest, PartitionExtentsPastTheBlockAreRejected) {
  for (size_t i : {size_t{0}, num_partitions_ / 2, num_partitions_ - 1}) {
    for (uint32_t lie : {static_cast<uint32_t>(block_.size()),
                         static_cast<uint32_t>(index_start_),
                         static_cast<uint32_t>(index_start_ + 1),
                         0x7fffffffu, 0xfffffff0u}) {
      for (int field : {2, 3}) {  // offset, size
        const std::string block = WithIndexField(i, field, lie);
        FilterIndex index;
        EXPECT_FALSE(index.Parse(block)) << i << " " << field << " " << lie;
        ExpectNoFalseNegative(block, "extent");
      }
    }
  }
}

TEST_F(FilterBlockHostileTest, UnsortedOrMisnumberedWindowsAreRejected) {
  for (size_t i = 0; i + 1 < num_partitions_; i++) {
    // Two index entries swapped: windows out of order.
    std::string swapped = block_;
    std::swap_ranges(swapped.begin() + index_start_ + i * 16,
                     swapped.begin() + index_start_ + i * 16 + 16,
                     swapped.begin() + index_start_ + (i + 1) * 16);
    FilterIndex index;
    EXPECT_FALSE(index.Parse(swapped)) << i;
    ExpectNoFalseNegative(swapped, "swap " + std::to_string(i));
  }
  FilterIndex good;
  ASSERT_TRUE(good.Parse(block_));
  for (size_t i = 0; i < num_partitions_; i++) {
    const FilterPartitionInfo& p = good.partition(i);
    for (uint32_t lie : {p.first_window + 1, p.first_window ^ 0x80000000u}) {
      const std::string block = WithIndexField(i, 0, lie);
      FilterIndex index;
      EXPECT_FALSE(index.Parse(block)) << i << " first_window " << lie;
      ExpectNoFalseNegative(block, "first_window");
    }
    // A window count that still chains to the next entry's first window
    // can only be the last entry's; it must not shift the partition's
    // offset array.
    for (uint32_t lie : {p.num_windows - 1, p.num_windows + 1, 0u}) {
      ExpectNoFalseNegative(WithIndexField(i, 1, lie), "num_windows");
    }
  }
}

TEST_F(FilterBlockHostileTest, ForeignBaseLgIsRejected) {
  for (int lg = 0; lg < 256; lg++) {
    if (lg == static_cast<int>(kFilterBaseLg)) continue;
    std::string block = block_;
    block.back() = static_cast<char>(lg);
    FilterIndex index;
    EXPECT_FALSE(index.Parse(block)) << lg;
    ExpectNoFalseNegative(block, "base_lg " + std::to_string(lg));
  }
}

}  // namespace
}  // namespace pipelsm
