#include "src/read/cache.h"

#include <atomic>
#include <cassert>
#include <cstring>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/json_writer.h"

namespace pipelsm {
namespace read {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

size_t DefaultShardCount() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 8;
  size_t shards = RoundUpToPowerOfTwo(hw);
  return shards > 16 ? 16 : shards;
}

class ShardedSieveCache final : public Cache {
 public:
  ShardedSieveCache(size_t capacity, size_t num_shards)
      : capacity_(capacity),
        num_shards_(RoundUpToPowerOfTwo(
            num_shards == 0 ? DefaultShardCount() : num_shards)),
        shard_mask_(num_shards_ - 1),
        shards_(num_shards_) {
    // The remainder of an uneven split lands in shard 0 so the shard
    // capacities always sum to `capacity`.
    const size_t per_shard = capacity_ / num_shards_;
    for (auto& shard : shards_) shard.capacity = per_shard;
    shards_[0].capacity += capacity_ - per_shard * num_shards_;
  }

  std::shared_ptr<void> Lookup(const Slice& key) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it == shard.index.end()) {
      miss_counter_->Add();
      return nullptr;
    }
    it->second->visited = true;
    hit_counter_->Add();
    return it->second->value;
  }

  void Insert(const Slice& key, std::shared_ptr<void> value, size_t charge,
              bool referenced) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it != shard.index.end()) UnlinkLocked(shard, it->second);
    shard.queue.push_front(
        Entry{key.ToString(), std::move(value), charge, referenced});
    const auto inserted = shard.queue.begin();
    shard.index[std::string_view(inserted->key)] = inserted;
    AdjustUsage(shard, static_cast<int64_t>(charge));
    // Evict until this shard fits its capacity slice, but never the
    // entry just inserted: an over-capacity value must still serve the
    // caller that paid to load it.
    while (shard.usage > shard.capacity && shard.queue.size() > 1) {
      EvictLocked(shard, inserted);
    }
  }

  void Erase(const Slice& key) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it != shard.index.end()) UnlinkLocked(shard, it->second);
  }

  size_t ErasePrefix(const Slice& prefix) override {
    size_t erased = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.queue.begin(); it != shard.queue.end();) {
        const auto next = std::next(it);
        if (it->key.size() >= prefix.size() &&
            memcmp(it->key.data(), prefix.data(), prefix.size()) == 0) {
          UnlinkLocked(shard, it);
          erased++;
        }
        it = next;
      }
    }
    return erased;
  }

  uint64_t NewId() override {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t usage() const override {
    return static_cast<size_t>(usage_gauge_->value());
  }
  size_t capacity() const override { return capacity_; }
  size_t num_shards() const override { return num_shards_; }

  uint64_t hits() const override { return hit_counter_->value(); }
  uint64_t misses() const override { return miss_counter_->value(); }
  uint64_t evictions() const override { return eviction_counter_->value(); }

  void BindStats(obs::Counter* hits, obs::Counter* misses,
                 obs::Counter* evictions, obs::Gauge* usage) override {
    auto rebind = [](obs::Counter** from, obs::Counter* to) {
      if (to == nullptr) return;
      to->Add((*from)->value());
      *from = to;
    };
    rebind(&hit_counter_, hits);
    rebind(&miss_counter_, misses);
    rebind(&eviction_counter_, evictions);
    if (usage != nullptr) {
      usage->Set(usage_gauge_->value());
      usage_gauge_ = usage;
    }
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<void> value;
    size_t charge;
    bool visited;  // set by a hit, cleared by the hand passing over
  };

  using Queue = std::list<Entry>;

  struct Shard {
    std::mutex mu;
    Queue queue;  // insertion order: front = newest; never reordered
    // Views point into the owning Entry's key string; list nodes are
    // stable so the views live as long as their entries.
    std::unordered_map<std::string_view, Queue::iterator> index;
    // The next eviction candidate. It walks from the back toward the
    // front and wraps; queue.end() means "start again at the back".
    Queue::iterator hand = queue.end();
    size_t usage = 0;   // guarded by mu
    size_t capacity = 0;
  };

  static std::string_view KeyView(const Slice& key) {
    return std::string_view(key.data(), key.size());
  }

  Shard& ShardFor(const Slice& key) {
    size_t h = std::hash<std::string_view>()(KeyView(key));
    return shards_[h & shard_mask_];
  }

  void AdjustUsage(Shard& shard, int64_t delta) {
    shard.usage = static_cast<size_t>(
        static_cast<int64_t>(shard.usage) + delta);
    usage_gauge_->Add(delta);
  }

  // Drops `it` from the shard. A hand resting on it steps one entry
  // toward the front first, so the hand never dangles.
  void UnlinkLocked(Shard& shard, Queue::iterator it) {
    if (shard.hand == it) {
      shard.hand = it == shard.queue.begin() ? shard.queue.end()
                                             : std::prev(it);
    }
    AdjustUsage(shard, -static_cast<int64_t>(it->charge));
    shard.index.erase(std::string_view(it->key));
    shard.queue.erase(it);
  }

  // SIEVE: the hand clears visited bits until it finds an unvisited
  // entry, evicts that one and rests on its neighbour toward the front.
  // `keep` is skipped with its bit intact. Needs queue.size() > 1; the
  // walk ends within two passes, since the first clears every bit but
  // keep's.
  void EvictLocked(Shard& shard, Queue::iterator keep) {
    Queue& queue = shard.queue;
    auto it = shard.hand == queue.end() ? std::prev(queue.end()) : shard.hand;
    while (it == keep || it->visited) {
      if (it != keep) it->visited = false;
      it = it == queue.begin() ? std::prev(queue.end()) : std::prev(it);
    }
    shard.hand = it;
    UnlinkLocked(shard, it);
    eviction_counter_->Add();
  }

  const size_t capacity_;
  const size_t num_shards_;
  const size_t shard_mask_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> next_id_{1};
  // Each stat is counted once, in the instrument these point at: the
  // cache's own until BindStats re-points them into a registry.
  obs::Counter own_hits_, own_misses_, own_evictions_;
  obs::Gauge own_usage_;
  obs::Counter* hit_counter_ = &own_hits_;
  obs::Counter* miss_counter_ = &own_misses_;
  obs::Counter* eviction_counter_ = &own_evictions_;
  obs::Gauge* usage_gauge_ = &own_usage_;
};

}  // namespace

std::unique_ptr<Cache> NewShardedLRUCache(size_t capacity,
                                          size_t num_shards) {
  return std::make_unique<ShardedSieveCache>(capacity, num_shards);
}

void BindBlockCacheMetrics(Cache* cache, obs::MetricsRegistry* registry) {
  cache->BindStats(
      registry->RegisterCounter("cache.block.hits", "block cache hits"),
      registry->RegisterCounter("cache.block.misses", "block cache misses"),
      registry->RegisterCounter("cache.block.evictions",
                                "block cache evictions"),
      registry->RegisterGauge("cache.block.usage_bytes",
                              "block cache bytes in use"));
  registry->RegisterGauge("cache.block.capacity_bytes", "block cache capacity")
      ->Set(static_cast<int64_t>(cache->capacity()));
}

void WriteCacheStats(const Cache& cache, JsonWriter* w) {
  w->BeginObject().Key("hits").Uint(cache.hits());
  w->Key("misses").Uint(cache.misses());
  w->Key("evictions").Uint(cache.evictions());
  w->Key("usage").Uint(cache.usage()).Key("capacity").Uint(cache.capacity());
  w->Key("shards").Uint(cache.num_shards()).EndObject();
}

}  // namespace read
}  // namespace pipelsm
