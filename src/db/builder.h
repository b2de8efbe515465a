// BuildTable: memtable -> level-0 SSTable (minor compaction / dump).
#pragma once

#include <cstdint>
#include <string>

#include "src/db/options.h"
#include "src/obs/event_listener.h"
#include "src/util/status.h"

namespace pipelsm {

class Env;
class Iterator;
struct FileMetaData;
class TableCache;
class TableOptions;

// Builds a table file from *iter (which yields internal keys). On success
// (non-empty input) fills *meta and leaves the file in the table cache;
// on empty input or error the file is removed.
//
// When `info` is non-null, OnFlushBegin fires on `listeners` before the
// first block is built and OnFlushCompleted after the dump finished (or
// failed), with output size / entry count / wall micros / status filled
// in. The caller pre-fills info->job_id; the builder sets the rest.
Status BuildTable(const std::string& dbname, Env* env,
                  const TableOptions& table_options, TableCache* table_cache,
                  Iterator* iter, FileMetaData* meta,
                  const obs::EventListeners* listeners = nullptr,
                  obs::FlushJobInfo* info = nullptr);

}  // namespace pipelsm
