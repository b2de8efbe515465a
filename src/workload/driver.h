// Workload driver: runs insert-only (and read) workloads against a DB and
// reports the paper's system-level metrics — IOPS (operations/second,
// Figs 10/12 (a)(d)), write-stall time, and the DB's aggregate compaction
// profile (compaction bandwidth, Figs 10/12 (b)(e)).
#pragma once

#include <cstdint>
#include <string>

#include "src/db/db.h"
#include "src/util/histogram.h"
#include "src/workload/generator.h"

namespace pipelsm {

struct FillResult {
  uint64_t entries = 0;
  double seconds = 0;
  double ops_per_sec = 0;        // the paper's "IOPS"
  Histogram latency_micros;      // per-op latency distribution
  CompactionMetrics compaction;  // DB compaction counters at finish
  // Compaction bandwidth (bytes of compaction input / compaction wall
  // time). Zero if no major compaction ran.
  double compaction_bandwidth = 0;
};

struct FillOptions {
  uint64_t num_entries = 100000;
  size_t key_size = 16;     // paper §IV-A
  size_t value_size = 100;  // paper §IV-A
  KeyOrder order = KeyOrder::kRandom;
  uint32_t seed = 301;
  double value_compressibility = 0.5;  // see WorkloadGenerator
  bool wait_for_compactions = true;    // drain before measuring bandwidth
  uint64_t batch_size = 1;             // entries per WriteBatch
  bool sync = false;                   // WriteOptions::sync of each batch
};

// Inserts `num_entries` key-value pairs and gathers metrics.
Status RunFill(DB* db, const FillOptions& options, FillResult* result);

}  // namespace pipelsm
