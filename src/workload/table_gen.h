// Standalone compaction-input builder: constructs the "upper component /
// lower component" table pairs the executor-level benches and tests feed
// straight into the CompactionExecutor, under any procedure, without
// going through a DB.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/compaction/types.h"
#include "src/db/dbformat.h"
#include "src/env/env.h"
#include "src/table/table.h"
#include "src/workload/generator.h"

namespace pipelsm {

struct TableGenOptions {
  Env* env = nullptr;
  const InternalKeyComparator* icmp = nullptr;
  std::string dir = "/tablegen";

  size_t key_size = 16;          // paper default
  size_t value_size = 100;       // paper default
  size_t block_size = 4 * 1024;  // paper default
  CompressionType compression = CompressionType::kLzCompression;

  // Bytes of user data per generated table.
  uint64_t upper_bytes = 4 * 1024 * 1024;  // paper Fig 11(a): 4 MB input
  uint64_t lower_bytes = 8 * 1024 * 1024;  // lower component, same range
  int lower_tables = 4;                    // split lower across N files
  // Split upper across N files that each take every N-th upper key, so
  // all N span the whole key range (like overlapping level-0 tables).
  int upper_tables = 1;
  uint32_t seed = 301;
};

// Result of GenerateCompactionInputs: open tables, upper first.
struct CompactionInputs {
  std::vector<std::shared_ptr<Table>> tables;
  uint64_t total_bytes = 0;     // sum of file sizes
  uint64_t total_entries = 0;
};

// Builds `upper_tables` upper-component tables and `lower_tables`
// lower-component tables over interleaved key spaces (upper keys rewrite
// ~half the lower keys, so the merge actually drops shadowed versions).
Status GenerateCompactionInputs(const TableGenOptions& options,
                                CompactionInputs* out);

// A no-op sink that discards output metadata (bandwidth-only benches) but
// still writes real files through the Env.
class CountingSink : public CompactionSink {
 public:
  CountingSink(Env* env, std::string dir) : env_(env), dir_(std::move(dir)) {}

  Status NewOutputFile(uint64_t* file_number,
                       std::unique_ptr<WritableFile>* file) override;
  Status OutputFinished(const OutputMeta& meta) override;

  const std::vector<OutputMeta>& outputs() const { return outputs_; }
  uint64_t total_output_bytes() const { return total_bytes_; }

 private:
  Env* const env_;
  const std::string dir_;
  uint64_t next_number_ = 1000000;  // clear of generated input numbers
  std::vector<OutputMeta> outputs_;
  uint64_t total_bytes_ = 0;
};

}  // namespace pipelsm
