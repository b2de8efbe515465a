// TableCache: cache of open SSTable readers, keyed by file number.
//
// Backed by the same lock-sharded LRU store as the block cache
// (src/read/cache.h), charged one unit per open table so capacity =
// max_open_tables. Lookups on different files take different shard
// mutexes; a returned shared_ptr pins the reader across eviction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/db/options.h"
#include "src/read/cache.h"
#include "src/table/iterator.h"
#include "src/table/table.h"
#include "src/table/table_options.h"
#include "src/util/status.h"

namespace pipelsm {

class Env;

class TableCache {
 public:
  TableCache(std::string dbname, const TableOptions& table_options, Env* env,
             int max_open_tables, size_t shards = 0);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  // Returns an iterator over file `file_number` (of length `file_size`).
  // If tableptr is non-null, sets it to the underlying Table (owned by the
  // cache; valid while the iterator is live).
  Iterator* NewIterator(const TableReadOptions& read_options,
                        uint64_t file_number, uint64_t file_size,
                        Table** tableptr = nullptr);

  // Point lookup routed through Table::InternalGet.
  Status Get(const TableReadOptions& read_options, uint64_t file_number,
             uint64_t file_size, const Slice& k,
             const std::function<void(const Slice&, const Slice&)>& handle);

  // Pin the open table (compaction executors hold inputs open this way).
  Status GetTable(uint64_t file_number, uint64_t file_size,
                  std::shared_ptr<Table>* table);

  // Drop any cached reader for the (deleted) file, and purge the file's
  // blocks + filter partitions from the shared block cache so dead
  // entries stop occupying capacity.
  void Evict(uint64_t file_number);

  // The backing store (for stats export).
  read::Cache* store() { return store_.get(); }

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size,
                   std::shared_ptr<Table>* table);

  const std::string dbname_;
  const TableOptions table_options_;
  Env* const env_;
  std::unique_ptr<read::Cache> store_;
};

}  // namespace pipelsm
