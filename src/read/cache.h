// Read-path cache interface (docs/READ_PATH.md).
//
// One abstraction backs both hot read-path caches: the block cache
// (data blocks + filter partitions, charged by byte size) and the
// table-cache store (open Table readers, charged one unit each). The
// production implementation is lock-sharded — the key hashes to one of
// a power-of-two set of shards, each with its own mutex, SIEVE queue
// and capacity slice — so concurrent point reads on different keys
// never serialize on a single cache mutex.
//
// Eviction is SIEVE (Zhang et al., NSDI '24): each shard keeps its
// entries in insertion order, and a hit only sets the entry's visited
// bit. A hand walks from the oldest entry toward the newest, clearing
// visited bits, and evicts the first entry it finds unvisited. One-use
// entries (a scan's blocks, a cold miss) leave before entries that
// were hit again, and a hit never reorders the queue.
//
// Values are type-erased shared_ptrs: a Lookup hands out a reference
// that pins the value for as long as the caller holds it, so eviction
// never invalidates an entry a standing iterator is still reading.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/util/slice.h"

namespace pipelsm {

class JsonWriter;

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

namespace read {

class Cache {
 public:
  virtual ~Cache() = default;

  // Returns the cached value for `key`, marking it visited, or nullptr.
  virtual std::shared_ptr<void> Lookup(const Slice& key) = 0;

  // Inserts (replacing any existing entry for `key`) and evicts
  // unvisited entries until usage fits capacity again. The
  // just-inserted entry is never the eviction victim, so an
  // over-capacity value still serves the caller that loaded it.
  // `referenced` enters the entry already visited, so it survives one
  // pass of the hand: for a value written now that readers will want
  // soon, which no read has touched yet.
  virtual void Insert(const Slice& key, std::shared_ptr<void> value,
                      size_t charge, bool referenced = false) = 0;

  // Drops `key` if present. In-flight references stay valid.
  virtual void Erase(const Slice& key) = 0;

  // Drops every entry whose key starts with `prefix`; returns the count.
  // Used by obsolete-file GC to purge a dropped table's blocks (keys are
  // cache-id-prefixed). Scans all shards — callers run it off the hot
  // path (per deleted file, not per read).
  virtual size_t ErasePrefix(const Slice& prefix) = 0;

  // Returns a new numeric id. Clients that share this cache partition
  // the key space by prefixing their keys with an id.
  virtual uint64_t NewId() = 0;

  virtual size_t usage() const = 0;
  virtual size_t capacity() const = 0;
  virtual size_t num_shards() const = 0;

  virtual uint64_t hits() const = 0;
  virtual uint64_t misses() const = 0;
  virtual uint64_t evictions() const = 0;

  // Makes the given obs instruments the cache's stats: each hit, miss,
  // eviction and usage change is counted once, there, and the accessors
  // above read them back. Counts so far carry over; a nullptr keeps the
  // cache's own instrument for that stat. Not thread-safe against
  // concurrent cache operations — bind before the cache goes hot.
  virtual void BindStats(obs::Counter* hits, obs::Counter* misses,
                         obs::Counter* evictions, obs::Gauge* usage) = 0;

  // Typed convenience over Lookup().
  template <typename T>
  std::shared_ptr<T> LookupAs(const Slice& key) {
    return std::static_pointer_cast<T>(Lookup(key));
  }
};

// A lock-sharded SIEVE cache holding up to `capacity` total charge.
// `num_shards` is rounded up to a power of two; 0 picks a default from
// the hardware concurrency. `num_shards == 1` degenerates to a single
// mutex — the bench baseline. The name is historical: the shards were
// LRU lists before they were SIEVE queues, and the benchmark harness
// still calls it by this name.
std::unique_ptr<Cache> NewShardedLRUCache(size_t capacity,
                                          size_t num_shards = 0);

// Binds a block cache's stats to the five cache.block.* instruments in
// `registry` (docs/READ_PATH.md). The cache's owner calls it once: a DB
// for its own cache, a ShardedDB for the fleet cache its shards share.
void BindBlockCacheMetrics(Cache* cache, obs::MetricsRegistry* registry);

// Writes one section of the "pipelsm.cache" property:
// {"hits":..,"misses":..,"evictions":..,"usage":..,"capacity":..,"shards":..}
void WriteCacheStats(const Cache& cache, JsonWriter* w);

}  // namespace read
}  // namespace pipelsm
