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

class ShardedLRUCache final : public Cache {
 public:
  ShardedLRUCache(size_t capacity, size_t num_shards)
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
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hit_counter_->Add();
    return it->second->value;
  }

  void Insert(const Slice& key, std::shared_ptr<void> value,
              size_t charge) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it != shard.index.end()) {
      AdjustUsage(shard, -static_cast<int64_t>(it->second->charge));
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.lru.push_front(Entry{key.ToString(), std::move(value), charge});
    shard.index[std::string_view(shard.lru.front().key)] = shard.lru.begin();
    AdjustUsage(shard, static_cast<int64_t>(charge));
    // Evict from the cold end until this shard fits its capacity slice,
    // but never the entry just inserted: an over-capacity value must
    // still serve the caller that paid to load it.
    while (shard.usage > shard.capacity && shard.lru.size() > 1) {
      EvictLocked(shard, std::prev(shard.lru.end()));
    }
  }

  void Erase(const Slice& key) override {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(KeyView(key));
    if (it == shard.index.end()) return;
    AdjustUsage(shard, -static_cast<int64_t>(it->second->charge));
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }

  size_t ErasePrefix(const Slice& prefix) override {
    size_t erased = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->key.size() >= prefix.size() &&
            memcmp(it->key.data(), prefix.data(), prefix.size()) == 0) {
          AdjustUsage(shard, -static_cast<int64_t>(it->charge));
          shard.index.erase(std::string_view(it->key));
          it = shard.lru.erase(it);
          erased++;
        } else {
          ++it;
        }
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
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = MRU
    // Views point into the owning Entry's key string; list nodes are
    // stable so the views survive splices.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
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

  void EvictLocked(Shard& shard, std::list<Entry>::iterator victim) {
    AdjustUsage(shard, -static_cast<int64_t>(victim->charge));
    shard.index.erase(std::string_view(victim->key));
    shard.lru.erase(victim);
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
  return std::make_unique<ShardedLRUCache>(capacity, num_shards);
}

}  // namespace read
}  // namespace pipelsm
