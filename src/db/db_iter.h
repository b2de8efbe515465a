// DBIter: wraps an internal-key iterator (memtables + tables merged) into
// the user-facing view at a fixed sequence number — newest live version of
// each user key, tombstones hidden, value-log pointers resolved.
#pragma once

#include <cstdint>

#include "src/db/dbformat.h"
#include "src/table/iterator.h"

namespace pipelsm {

namespace vlog {
class VlogManager;
}

// Return a new iterator that converts internal keys (yielded by
// "*internal_iter", whose ownership is taken) that were live at the
// specified `sequence` number into appropriate user keys. When `vlog` is
// non-null, kTypeValuePointer entries are resolved through it at each
// yield point so value() always returns the user value; with a null
// `vlog` a pointer entry surfaces as a Corruption status. `fill_cache`
// (ReadOptions::fill_cache) lets resolved values enter the value cache.
Iterator* NewDBIterator(const Comparator* user_key_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        vlog::VlogManager* vlog = nullptr,
                        bool fill_cache = true);

}  // namespace pipelsm
