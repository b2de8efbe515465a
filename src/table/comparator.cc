#include "src/table/comparator.h"

namespace pipelsm {

namespace {

class BytewiseComparatorImpl final : public Comparator {
 public:
  const char* Name() const override { return "pipelsm.BytewiseComparator"; }

  int Compare(const Slice& a, const Slice& b) const override {
    return a.compare(b);
  }
};

}  // namespace

const Comparator* BytewiseComparator() {
  static BytewiseComparatorImpl impl;
  return &impl;
}

}  // namespace pipelsm
