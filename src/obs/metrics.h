// Metrics registry: named Counter / Gauge / Histogram instruments with a
// lock-cheap update path (plain relaxed atomics) and snapshot-to-text /
// snapshot-to-JSON export.
//
// The paper's bottleneck argument (Eq. 1 vs Eq. 2) is about *which* stage
// of the compaction pipeline limits bandwidth; this registry is where the
// executors publish the stall/occupancy counters that answer it at run
// time (see docs/OBSERVABILITY.md for every registered name).
//
// Concurrency contract: Register* serializes on a mutex and is idempotent
// per (name, kind) — calling it again returns the same instrument, so
// executors re-register on every run instead of threading instrument
// pointers around. Updates on the returned instruments are wait-free
// (Counter/Gauge) or take a short per-instrument mutex (Histogram).
// Instrument pointers remain valid for the registry's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/histogram.h"

namespace pipelsm::obs {

// Monotonically increasing event/total counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time value; UpdateMax keeps a high-watermark across threads.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Distribution instrument over util/histogram's exponential buckets.
class HistogramMetric {
 public:
  void Observe(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Add(v);
  }

  Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }

 private:
  mutable std::mutex mu_;
  Histogram histogram_;
};

// One instrument's point-in-time state, as captured by
// MetricsRegistry::Snapshot(). The Prometheus exposition consumes these
// instead of reaching into the registry, so a snapshot is coherent per
// instrument and the exporter never holds the registry mutex while
// formatting.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;   // kind == kCounter
  int64_t gauge = 0;      // kind == kGauge
  Histogram histogram;    // kind == kHistogram
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Each returns the instrument registered under `name`, creating it on
  // first use. Returns nullptr if `name` is already registered as a
  // different kind (a naming bug — callers may assert on it).
  Counter* RegisterCounter(const std::string& name, const std::string& help);
  Gauge* RegisterGauge(const std::string& name, const std::string& help);
  HistogramMetric* RegisterHistogram(const std::string& name,
                                     const std::string& help);

  // One "name value" line per instrument, sorted by name.
  std::string ToString() const;

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,avg,p50,
  // p95,p99,max}}} — the payload of DB::GetProperty("pipelsm.metrics").
  std::string ToJson() const;

  // Every instrument's current value, sorted by name (the registry's
  // iteration order). Counter/gauge reads are relaxed-atomic; each
  // histogram is copied under its own mutex.
  std::vector<MetricSample> Snapshot() const;

  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    size_t index;  // into the deque for its kind
    std::string help;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  // Deques: growth never invalidates handed-out instrument pointers.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<HistogramMetric> histograms_;
};

}  // namespace pipelsm::obs
