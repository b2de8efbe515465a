#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/table/filter_block.h"
#include "src/table/filter_policy.h"
#include "src/util/coding.h"
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

}  // namespace
}  // namespace pipelsm
