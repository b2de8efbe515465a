// Merging iterator: the sorted union of n child iterators, the read
// path's k-way merge (its multi-level view). Compaction's S4 (SORT)
// merges with MergeHeap over RunCursors instead (src/compaction/steps.cc).
#pragma once

#include "src/table/iterator.h"

namespace pipelsm {

class Comparator;

// Takes ownership of children[0..n-1]. Duplicate keys appear in child
// order (callers that need precedence — e.g. internal keys with sequence
// numbers — encode it in the key).
Iterator* NewMergingIterator(const Comparator* comparator, Iterator** children,
                             int n);

}  // namespace pipelsm
