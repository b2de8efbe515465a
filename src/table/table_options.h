// Knobs shared by the table builder/reader. The DB layer derives these
// from its own Options so the table layer stays independent.
#pragma once

#include <cstddef>

#include "src/compress/codec.h"
#include "src/table/comparator.h"

namespace pipelsm {

class FilterPolicy;
namespace read {
class Cache;
}  // namespace read

struct TableOptions {
  const Comparator* comparator = BytewiseComparator();
  const FilterPolicy* filter_policy = nullptr;  // optional bloom filters
  read::Cache* block_cache = nullptr;           // optional shared cache

  // Target payload size of one bloom-filter partition (docs/READ_PATH.md);
  // a point read loads only the partition covering the probed offset.
  size_t filter_partition_bytes = 4096;

  // Uncompressed data-block size target. The paper's default is 4 KB.
  size_t block_size = 4 * 1024;

  // S5 codec for data blocks.
  CompressionType compression = CompressionType::kLzCompression;
};

// Per-read overrides (derived from the DB's ReadOptions).
struct TableReadOptions {
  bool fill_cache = true;  // insert fetched blocks into the cache
};

}  // namespace pipelsm
