// Comparator: total order over keys.
#pragma once

#include "src/util/slice.h"

namespace pipelsm {

class Comparator {
 public:
  virtual ~Comparator() = default;

  // Three-way comparison: <0 iff a < b, 0 iff equal, >0 iff a > b.
  virtual int Compare(const Slice& a, const Slice& b) const = 0;

  // Name of the comparator; persisted implicitly via file formats that
  // depend on the ordering. Changing the order under a name corrupts data.
  virtual const char* Name() const = 0;
};

// Lexicographic byte order. Singleton; never deleted.
const Comparator* BytewiseComparator();

}  // namespace pipelsm
