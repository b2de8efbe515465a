#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/read/cache.h"
#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/comparator.h"
#include "src/table/merger.h"

namespace pipelsm {
namespace {

std::shared_ptr<Block> MakeBlock(const std::map<std::string, std::string>& kv) {
  BlockBuilder builder(16);
  for (const auto& [k, v] : kv) builder.Add(k, v);
  Slice raw = builder.Finish();
  char* buf = new char[raw.size()];
  std::memcpy(buf, raw.data(), raw.size());
  BlockContents contents;
  contents.data = Slice(buf, raw.size());
  contents.heap_allocated = true;
  return std::make_shared<Block>(contents);
}

// Single-shard instances give a deterministic global eviction order; the
// sharded behavior is covered by tests/read/sharded_cache_test.cc.
TEST(BlockCache, InsertLookup) {
  auto cache = read::NewShardedLRUCache(1 << 20, 1);
  auto block = MakeBlock({{"k", "v"}});
  cache->Insert("key1", block, 100);
  EXPECT_EQ(block.get(), cache->LookupAs<Block>("key1").get());
  EXPECT_EQ(nullptr, cache->Lookup("key2").get());
  EXPECT_EQ(1u, cache->hits());
  EXPECT_EQ(1u, cache->misses());
}

TEST(BlockCache, EvictsLruWhenFull) {
  auto cache = read::NewShardedLRUCache(300, 1);
  cache->Insert("a", MakeBlock({{"a", "1"}}), 100);
  cache->Insert("b", MakeBlock({{"b", "1"}}), 100);
  cache->Insert("c", MakeBlock({{"c", "1"}}), 100);
  // Touch "a" so "b" is the oldest unvisited entry.
  EXPECT_NE(nullptr, cache->Lookup("a").get());
  cache->Insert("d", MakeBlock({{"d", "1"}}), 100);
  EXPECT_EQ(nullptr, cache->Lookup("b").get());  // evicted
  EXPECT_NE(nullptr, cache->Lookup("a").get());
  EXPECT_NE(nullptr, cache->Lookup("d").get());
  EXPECT_LE(cache->usage(), 300u);
  EXPECT_EQ(1u, cache->evictions());
}

TEST(BlockCache, PinnedEntriesSurviveEviction) {
  auto cache = read::NewShardedLRUCache(100, 1);
  auto pinned = cache->Lookup("never");  // warm up miss path
  auto block = MakeBlock({{"k", "v"}});
  cache->Insert("k", block, 100);
  std::shared_ptr<Block> alive = cache->LookupAs<Block>("k");
  // Overflow the cache; entry is evicted but the shared_ptr keeps the
  // block alive.
  cache->Insert("k2", MakeBlock({{"x", "y"}}), 100);
  EXPECT_NE(nullptr, alive.get());
  std::unique_ptr<Iterator> it(alive->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k", it->key().ToString());
}

TEST(BlockCache, EraseRemoves) {
  auto cache = read::NewShardedLRUCache(1000, 1);
  cache->Insert("a", MakeBlock({{"a", "1"}}), 10);
  cache->Erase("a");
  EXPECT_EQ(nullptr, cache->Lookup("a").get());
  cache->Erase("a");  // idempotent
}

TEST(BlockCache, ReplaceUpdatesCharge) {
  auto cache = read::NewShardedLRUCache(1000, 1);
  cache->Insert("a", MakeBlock({{"a", "1"}}), 400);
  cache->Insert("a", MakeBlock({{"a", "2"}}), 100);
  EXPECT_EQ(100u, cache->usage());
}

TEST(BlockCache, DistinctIds) {
  auto cache = read::NewShardedLRUCache(100, 1);
  uint64_t a = cache->NewId();
  uint64_t b = cache->NewId();
  EXPECT_NE(a, b);
}

Iterator* BlockIter(const std::map<std::string, std::string>& kv) {
  // Leak-free: the merging iterator takes ownership; block kept alive via
  // cleanup.
  auto block = MakeBlock(kv);
  Iterator* it = block->NewIterator(BytewiseComparator());
  it->RegisterCleanup([block]() mutable { block.reset(); });
  return it;
}

TEST(Merger, MergesSortedRuns) {
  Iterator* children[3] = {
      BlockIter({{"a", "1"}, {"d", "4"}, {"g", "7"}}),
      BlockIter({{"b", "2"}, {"e", "5"}}),
      BlockIter({{"c", "3"}, {"f", "6"}, {"h", "8"}}),
  };
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(BytewiseComparator(), children, 3));
  std::string out;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    out += merged->key().ToString();
  }
  EXPECT_EQ("abcdefgh", out);
}

TEST(Merger, ReverseScan) {
  Iterator* children[2] = {
      BlockIter({{"a", "1"}, {"c", "3"}}),
      BlockIter({{"b", "2"}, {"d", "4"}}),
  };
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(BytewiseComparator(), children, 2));
  std::string out;
  for (merged->SeekToLast(); merged->Valid(); merged->Prev()) {
    out += merged->key().ToString();
  }
  EXPECT_EQ("dcba", out);
}

TEST(Merger, Seek) {
  Iterator* children[2] = {
      BlockIter({{"a", "1"}, {"e", "5"}}),
      BlockIter({{"c", "3"}, {"g", "7"}}),
  };
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(BytewiseComparator(), children, 2));
  merged->Seek("d");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("e", merged->key().ToString());
  merged->Seek("a");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("a", merged->key().ToString());
  merged->Seek("z");
  EXPECT_FALSE(merged->Valid());
}

TEST(Merger, DirectionSwitch) {
  Iterator* children[2] = {
      BlockIter({{"a", "1"}, {"c", "3"}}),
      BlockIter({{"b", "2"}, {"d", "4"}}),
  };
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(BytewiseComparator(), children, 2));
  merged->Seek("b");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("b", merged->key().ToString());
  merged->Next();
  EXPECT_EQ("c", merged->key().ToString());
  merged->Prev();
  EXPECT_EQ("b", merged->key().ToString());
  merged->Prev();
  EXPECT_EQ("a", merged->key().ToString());
  merged->Next();
  EXPECT_EQ("b", merged->key().ToString());
}

TEST(Merger, ZeroAndOneChild) {
  std::unique_ptr<Iterator> none(
      NewMergingIterator(BytewiseComparator(), nullptr, 0));
  none->SeekToFirst();
  EXPECT_FALSE(none->Valid());

  Iterator* one[1] = {BlockIter({{"x", "1"}})};
  std::unique_ptr<Iterator> single(
      NewMergingIterator(BytewiseComparator(), one, 1));
  single->SeekToFirst();
  ASSERT_TRUE(single->Valid());
  EXPECT_EQ("x", single->key().ToString());
}

}  // namespace
}  // namespace pipelsm
