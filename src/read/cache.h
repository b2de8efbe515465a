// Read-path cache interface (docs/READ_PATH.md).
//
// One abstraction backs both hot read-path caches: the block cache
// (data blocks + filter partitions, charged by byte size) and the
// table-cache store (open Table readers, charged one unit each). The
// production implementation is a lock-sharded LRU — the key hashes to
// one of a power-of-two set of shards, each with its own mutex, LRU
// list, and capacity slice — so concurrent point reads on different
// keys never serialize on a single cache mutex.
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

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

namespace read {

class Cache {
 public:
  virtual ~Cache() = default;

  // Returns the cached value for `key`, promoting it to MRU, or nullptr.
  virtual std::shared_ptr<void> Lookup(const Slice& key) = 0;

  // Inserts (replacing any existing entry for `key`) and evicts LRU
  // entries until usage fits capacity again. The just-inserted entry is
  // never the eviction victim, so an over-capacity value still serves
  // the caller that loaded it.
  virtual void Insert(const Slice& key, std::shared_ptr<void> value,
                      size_t charge) = 0;

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

// A lock-sharded LRU cache holding up to `capacity` total charge.
// `num_shards` is rounded up to a power of two; 0 picks a default from
// the hardware concurrency. `num_shards == 1` degenerates to a single
// mutex — the bench baseline.
std::unique_ptr<Cache> NewShardedLRUCache(size_t capacity,
                                          size_t num_shards = 0);

}  // namespace read
}  // namespace pipelsm
