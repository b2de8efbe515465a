// Lock-sharded SIEVE cache (src/read/cache.h): hit/miss/eviction
// semantics, pinning via shared_ptr handout, prefix invalidation, the
// never-evict-the-just-inserted-entry rule, bound obs instruments, a
// multi-threaded hammer over every shard, and the eviction policy
// itself: visited bits, the referenced hint, the hand's safety under
// unlinks, and a Zipf replay against a move-to-front LRU.
#include "src/read/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/workload/generator.h"

namespace pipelsm::read {
namespace {

std::shared_ptr<std::string> Val(const std::string& s) {
  return std::make_shared<std::string>(s);
}

std::string Get(Cache& cache, const std::string& key) {
  std::shared_ptr<std::string> v = cache.LookupAs<std::string>(key);
  return v ? *v : "<miss>";
}

TEST(ShardedCache, InsertLookupErase) {
  std::unique_ptr<Cache> cache = NewShardedLRUCache(1 << 20, 4);
  EXPECT_EQ(nullptr, cache->Lookup("a"));
  cache->Insert("a", Val("1"), 10);
  cache->Insert("b", Val("2"), 10);
  EXPECT_EQ("1", Get(*cache, "a"));
  EXPECT_EQ("2", Get(*cache, "b"));
  EXPECT_EQ(20u, cache->usage());

  cache->Insert("a", Val("1b"), 30);  // replace re-charges
  EXPECT_EQ("1b", Get(*cache, "a"));
  EXPECT_EQ(40u, cache->usage());

  cache->Erase("a");
  EXPECT_EQ(nullptr, cache->Lookup("a"));
  EXPECT_EQ("2", Get(*cache, "b"));
  EXPECT_EQ(10u, cache->usage());
  cache->Erase("never-inserted");  // no-op
}

TEST(ShardedCache, ShardCountRoundsToPowerOfTwo) {
  EXPECT_EQ(4u, NewShardedLRUCache(1 << 20, 3)->num_shards());
  EXPECT_EQ(1u, NewShardedLRUCache(1 << 20, 1)->num_shards());
  EXPECT_EQ(16u, NewShardedLRUCache(1 << 20, 16)->num_shards());
  EXPECT_GE(NewShardedLRUCache(1 << 20, 0)->num_shards(), 1u);  // auto
  EXPECT_EQ(1u << 20, NewShardedLRUCache(1 << 20, 4)->capacity());
}

TEST(ShardedCache, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is global and deterministic.
  std::unique_ptr<Cache> cache = NewShardedLRUCache(30, 1);
  cache->Insert("a", Val("1"), 10);
  cache->Insert("b", Val("2"), 10);
  cache->Insert("c", Val("3"), 10);
  EXPECT_EQ("1", Get(*cache, "a"));  // promote a over b
  cache->Insert("d", Val("4"), 10);  // evicts b (the coldest)
  EXPECT_EQ(nullptr, cache->Lookup("b"));
  EXPECT_EQ("1", Get(*cache, "a"));
  EXPECT_EQ("3", Get(*cache, "c"));
  EXPECT_EQ("4", Get(*cache, "d"));
  EXPECT_EQ(1u, cache->evictions());
}

TEST(ShardedCache, JustInsertedEntrySurvivesOverCapacityInsert) {
  std::unique_ptr<Cache> cache = NewShardedLRUCache(10, 1);
  cache->Insert("small", Val("s"), 5);
  cache->Insert("huge", Val("h"), 100);  // > capacity on its own
  // The oversized entry still serves the caller that loaded it; the
  // older entry is the victim.
  EXPECT_EQ("h", Get(*cache, "huge"));
  EXPECT_EQ(nullptr, cache->Lookup("small"));
}

TEST(ShardedCache, PinnedValueOutlivesEviction) {
  std::unique_ptr<Cache> cache = NewShardedLRUCache(10, 1);
  cache->Insert("pinned", Val("alive"), 10);
  std::shared_ptr<std::string> pin = cache->LookupAs<std::string>("pinned");
  ASSERT_NE(nullptr, pin);
  cache->Insert("other", Val("x"), 10);  // evicts "pinned" from the cache
  EXPECT_EQ(nullptr, cache->Lookup("pinned"));
  EXPECT_EQ("alive", *pin);  // the handed-out reference stays valid
}

TEST(ShardedCache, ErasePrefixDropsAcrossShards) {
  std::unique_ptr<Cache> cache = NewShardedLRUCache(1 << 20, 8);
  // Spread one "table's" blocks over many shards via distinct suffixes.
  for (int i = 0; i < 64; i++) {
    cache->Insert("tbl7/" + std::to_string(i), Val("x"), 1);
    cache->Insert("tbl8/" + std::to_string(i), Val("y"), 1);
  }
  EXPECT_EQ(64u, cache->ErasePrefix("tbl7/"));
  EXPECT_EQ(nullptr, cache->Lookup("tbl7/0"));
  EXPECT_EQ(nullptr, cache->Lookup("tbl7/63"));
  EXPECT_EQ("y", Get(*cache, "tbl8/0"));
  EXPECT_EQ(64u, cache->usage());
  EXPECT_EQ(0u, cache->ErasePrefix("tbl7/"));  // idempotent
}

TEST(ShardedCache, NewIdIsUnique) {
  std::unique_ptr<Cache> cache = NewShardedLRUCache(1 << 20, 2);
  const uint64_t a = cache->NewId();
  const uint64_t b = cache->NewId();
  EXPECT_NE(a, b);
}

TEST(ShardedCache, StatsAndBoundInstruments) {
  obs::Counter hits, misses, evictions;
  obs::Gauge usage;
  std::unique_ptr<Cache> cache = NewShardedLRUCache(20, 1);
  cache->BindStats(&hits, &misses, &evictions, &usage);

  cache->Lookup("a");  // miss
  cache->Insert("a", Val("1"), 10);
  cache->Lookup("a");                // hit
  cache->Insert("b", Val("2"), 10);  // fits
  cache->Insert("c", Val("3"), 10);  // evicts one
  EXPECT_EQ(1u, cache->hits());
  EXPECT_EQ(1u, cache->misses());
  EXPECT_EQ(1u, cache->evictions());
  EXPECT_EQ(1u, hits.value());
  EXPECT_EQ(1u, misses.value());
  EXPECT_EQ(1u, evictions.value());
  EXPECT_EQ(static_cast<int64_t>(cache->usage()), usage.value());
}

TEST(ShardedCache, ConcurrentHammer) {
  std::unique_ptr<Cache> cache = NewShardedLRUCache(64 << 10, 8);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; !stop.load() || i < 2000; i++) {
        if (i >= 2000 && stop.load()) break;
        const std::string key = "k" + std::to_string((t * 37 + i) % 512);
        if (i % 3 == 0) {
          cache->Insert(key, Val(key), 64);
        } else if (i % 7 == 0) {
          cache->Erase(key);
        } else {
          std::shared_ptr<std::string> v = cache->LookupAs<std::string>(key);
          if (v) {
            EXPECT_EQ(key, *v);  // value always matches its key
            reads.fetch_add(1);
          }
        }
      }
    });
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_LE(cache->usage(), cache->capacity());
}

// ---- The eviction policy. Single-shard, unit-charge caches make the
// queue order global and each eviction one entry. ----

std::string Key(const std::string& prefix, int i) {
  return prefix + std::to_string(i);
}

TEST(SieveCache, OneUseBurstEvictsUnvisitedBeforeVisited) {
  std::unique_ptr<Cache> cache = NewShardedLRUCache(10, 1);
  cache->Insert("hot", Val("h"), 1);
  ASSERT_EQ("h", Get(*cache, "hot"));  // visited, then never touched again
  for (int i = 0; i < 9; i++) cache->Insert(Key("warm", i), Val("w"), 1);
  // The hot entry is now the oldest and, by recency, the coldest: a
  // move-to-front LRU would evict it first. SIEVE passes over it.
  for (int i = 0; i < 9; i++) cache->Insert(Key("burst", i), Val("b"), 1);
  EXPECT_EQ(9u, cache->evictions());
  for (int i = 0; i < 9; i++) {
    EXPECT_EQ(nullptr, cache->Lookup(Key("warm", i))) << i;
  }
  EXPECT_EQ("h", Get(*cache, "hot"));
  EXPECT_EQ(10u, cache->usage());
}

TEST(SieveCache, ReferencedInsertSurvivesOnePassOfTheHand) {
  for (bool referenced : {false, true}) {
    SCOPED_TRACE(referenced ? "referenced" : "plain");
    std::unique_ptr<Cache> cache = NewShardedLRUCache(4, 1);
    cache->Insert("fresh", Val("f"), 1, referenced);  // the oldest entry
    for (int i = 0; i < 3; i++) cache->Insert(Key("old", i), Val("o"), 1);
    cache->Insert("next", Val("n"), 1);  // the hand's first eviction
    EXPECT_EQ(1u, cache->evictions());
    // A plain entry is the oldest unvisited one and goes. A referenced
    // one spends its bit, and the next-oldest entry goes instead.
    EXPECT_EQ(referenced, cache->Lookup("fresh") != nullptr);
    EXPECT_EQ(referenced, cache->Lookup("old0") == nullptr);
  }
}

// Inserts fillers until the cache evicts once, then returns the one of
// `candidates` that is gone ("" if none). Lookups, which set visited
// bits, come only after the eviction.
std::string NextVictim(Cache& cache,
                       const std::vector<std::string>& candidates) {
  const uint64_t before = cache.evictions();
  for (int i = 0; cache.evictions() == before; i++) {
    cache.Insert(Key("filler", i), Val("x"), 1);
  }
  std::string victim;
  for (const std::string& key : candidates) {
    if (cache.Lookup(key) == nullptr) victim = key;
  }
  return victim;
}

// The three ways to unlink the entry the hand rests on. Each must move
// the hand to that entry's neighbour toward the front (the newest end).
enum class Unlink { kErase, kErasePrefix, kReplace };

void UnlinkC(Cache& cache, Unlink how) {
  switch (how) {
    case Unlink::kErase:
      cache.Erase("c");
      break;
    case Unlink::kErasePrefix:
      EXPECT_EQ(1u, cache.ErasePrefix("c"));
      break;
    case Unlink::kReplace:
      cache.Insert("c", Val("c2"), 1);
      break;
  }
}

TEST(SieveCache, UnlinkingTheEntryUnderTheHandMovesTheHand) {
  for (Unlink how : {Unlink::kErase, Unlink::kErasePrefix, Unlink::kReplace}) {
    SCOPED_TRACE(static_cast<int>(how));
    // Oldest to newest: a b c d. With a visited, inserting e clears a,
    // evicts b and leaves the hand on c.
    std::unique_ptr<Cache> cache = NewShardedLRUCache(4, 1);
    for (const char* key : {"a", "b", "c", "d"}) {
      cache->Insert(key, Val(key), 1);
    }
    ASSERT_EQ("a", Get(*cache, "a"));
    cache->Insert("e", Val("e"), 1);
    ASSERT_EQ(nullptr, cache->Lookup("b"));

    UnlinkC(*cache, how);
    // The hand stepped from c to d, the next entry toward the front.
    EXPECT_EQ("d", NextVictim(*cache, {"a", "d", "e"}));
    EXPECT_EQ("a", Get(*cache, "a"));
    EXPECT_EQ("e", Get(*cache, "e"));
    EXPECT_EQ(how == Unlink::kReplace ? "c2" : "<miss>", Get(*cache, "c"));
    EXPECT_EQ(4u, cache->usage());
  }
}

TEST(SieveCache, UnlinkingTheNewestEntryUnderTheHandWrapsIt) {
  for (Unlink how : {Unlink::kErase, Unlink::kErasePrefix, Unlink::kReplace}) {
    SCOPED_TRACE(static_cast<int>(how));
    // With a visited, inserting c clears a, evicts b and leaves the hand
    // on c, the newest entry.
    std::unique_ptr<Cache> cache = NewShardedLRUCache(2, 1);
    cache->Insert("a", Val("a"), 1);
    cache->Insert("b", Val("b"), 1);
    ASSERT_EQ("a", Get(*cache, "a"));
    cache->Insert("c", Val("c"), 1);
    ASSERT_EQ(nullptr, cache->Lookup("b"));

    UnlinkC(*cache, how);
    // Nothing is newer than c, so the hand wraps to the oldest entry.
    EXPECT_EQ("a", NextVictim(*cache, {"a"}));
    EXPECT_LE(cache->usage(), cache->capacity());
  }
}

// The policy the shards ran before SIEVE: every hit moves its entry to
// the front, and the back is evicted. Unit charges, integer keys.
class MoveToFrontLru {
 public:
  explicit MoveToFrontLru(size_t capacity) : capacity_(capacity) {}

  // Returns whether `key` was a hit; a miss inserts it.
  bool Access(uint64_t key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    order_.push_front(key);
    index_[key] = order_.begin();
    if (order_.size() > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    return false;
  }

 private:
  const size_t capacity_;
  std::list<uint64_t> order_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index_;
};

TEST(SieveCache, ZipfBlockReplayBeatsMoveToFrontLru) {
  // read_zipf's block stream in miniature: Zipf(0.99) point reads over
  // 200k keys stored 32 to a block, and a cache of about half the
  // blocks. Each read misses into an insert, as Table::InternalGet does.
  constexpr uint64_t kKeys = 200000;
  constexpr uint64_t kKeysPerBlock = 32;
  constexpr size_t kCachedBlocks = 3200;
  constexpr int kWarmup = 50000;
  constexpr int kReads = 200000;
  // Seed 11 measured LRU 0.8035 and SIEVE 0.8269 (+2.3 points); the
  // margin leaves room for libm differences in the Zipf draw.
  constexpr double kMinGain = 0.015;

  std::unique_ptr<Cache> sieve = NewShardedLRUCache(kCachedBlocks, 1);
  MoveToFrontLru lru(kCachedBlocks);
  const std::shared_ptr<int> block = std::make_shared<int>(0);
  ZipfianGenerator zipf(kKeys, 0.99, 11);
  int sieve_hits = 0, lru_hits = 0;
  for (int i = 0; i < kWarmup + kReads; i++) {
    const uint64_t b = zipf.Next() / kKeysPerBlock;
    const std::string key = std::to_string(b);
    const bool sieve_hit = sieve->Lookup(key) != nullptr;
    if (!sieve_hit) sieve->Insert(key, block, 1);
    const bool lru_hit = lru.Access(b);
    if (i >= kWarmup) {
      sieve_hits += sieve_hit;
      lru_hits += lru_hit;
    }
  }
  const double sieve_ratio = static_cast<double>(sieve_hits) / kReads;
  const double lru_ratio = static_cast<double>(lru_hits) / kReads;
  RecordProperty("sieve_hit_ratio", std::to_string(sieve_ratio));
  RecordProperty("lru_hit_ratio", std::to_string(lru_ratio));
  EXPECT_GT(sieve_ratio, lru_ratio + kMinGain)
      << "sieve " << sieve_ratio << " lru " << lru_ratio;
  EXPECT_LE(sieve->usage(), kCachedBlocks);
}

}  // namespace
}  // namespace pipelsm::read
