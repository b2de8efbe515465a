#include "src/table/block.h"

#include <cassert>
#include <cstring>
#include <string>
#include <vector>

#include "src/table/comparator.h"
#include "src/util/coding.h"

namespace pipelsm {

inline uint32_t Block::NumRestarts() const {
  assert(size_ >= sizeof(uint32_t));
  return DecodeFixed32(data_ + size_ - sizeof(uint32_t));
}

Block::Block(const BlockContents& contents)
    : data_(contents.data.data()),
      size_(contents.data.size()),
      owned_(contents.heap_allocated) {
  if (size_ < sizeof(uint32_t)) {
    size_ = 0;  // Error marker
  } else {
    size_t max_restarts_allowed = (size_ - sizeof(uint32_t)) / sizeof(uint32_t);
    if (NumRestarts() > max_restarts_allowed) {
      // The size is too small for NumRestarts().
      size_ = 0;
    } else {
      restart_offset_ =
          static_cast<uint32_t>(size_ - (1 + NumRestarts()) * sizeof(uint32_t));
    }
  }
}

Block::~Block() {
  if (owned_) {
    delete[] data_;
  }
}

// Helper: decode the next block entry starting at "p", falling within
// the range [p, limit). Stores shared/non_shared/value_length and returns a
// pointer just past the three varints, or nullptr on malformed data.
static inline const char* DecodeEntry(const char* p, const char* limit,
                                      uint32_t* shared, uint32_t* non_shared,
                                      uint32_t* value_length) {
  if (limit - p < 3) return nullptr;
  *shared = static_cast<uint8_t>(p[0]);
  *non_shared = static_cast<uint8_t>(p[1]);
  *value_length = static_cast<uint8_t>(p[2]);
  if ((*shared | *non_shared | *value_length) < 128) {
    // Fast path: all three values are encoded in one byte each.
    p += 3;
  } else {
    if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) return nullptr;
  }

  // Summed in 64 bits: two lying 32-bit lengths must not wrap to a small
  // total that fits.
  if (static_cast<uint64_t>(limit - p) <
      uint64_t{*non_shared} + uint64_t{*value_length}) {
    return nullptr;
  }
  return p;
}

class Block::Iter final : public Iterator {
 public:
  Iter(const Comparator* comparator, const char* data, uint32_t restarts,
       uint32_t num_restarts)
      : comparator_(comparator),
        data_(data),
        restarts_(restarts),
        num_restarts_(num_restarts),
        current_(restarts_),
        restart_index_(num_restarts_) {
    assert(num_restarts_ > 0);
  }

  bool Valid() const override { return current_ < restarts_; }
  Status status() const override { return status_; }
  Slice key() const override {
    assert(Valid());
    return key_;
  }
  Slice value() const override {
    assert(Valid());
    return value_;
  }

  void Next() override {
    assert(Valid());
    ParseNextKey();
  }

  void Prev() override {
    assert(Valid());

    // Scan backwards to a restart point before current_.
    const uint32_t original = current_;
    while (GetRestartPoint(restart_index_) >= original) {
      if (restart_index_ == 0) {
        // No more entries.
        current_ = restarts_;
        restart_index_ = num_restarts_;
        return;
      }
      restart_index_--;
    }

    if (!SeekToRestartPoint(restart_index_)) return;
    do {
      // Loop until end of current entry hits the start of original entry.
    } while (ParseNextKey() && NextEntryOffset() < original);
  }

  void Seek(const Slice& target) override {
    // Binary search in restart array to find the last restart point with a
    // key < target.
    uint32_t left = 0;
    uint32_t right = num_restarts_ - 1;
    while (left < right) {
      uint32_t mid = (left + right + 1) / 2;
      uint32_t region_offset = GetRestartPoint(mid);
      uint32_t shared, non_shared, value_length;
      const char* key_ptr =
          region_offset >= restarts_
              ? nullptr
              : DecodeEntry(data_ + region_offset, data_ + restarts_, &shared,
                            &non_shared, &value_length);
      if (key_ptr == nullptr || (shared != 0)) {
        CorruptionError();
        return;
      }
      Slice mid_key(key_ptr, non_shared);
      if (comparator_->Compare(mid_key, target) < 0) {
        // Key at "mid" is smaller than "target". Blocks before "mid" are
        // uninteresting.
        left = mid;
      } else {
        right = mid - 1;
      }
    }

    // Linear search within restart block for first key >= target.
    if (!SeekToRestartPoint(left)) return;
    while (true) {
      if (!ParseNextKey()) {
        return;
      }
      if (comparator_->Compare(key_, target) >= 0) {
        return;
      }
    }
  }

  void SeekToFirst() override {
    if (SeekToRestartPoint(0)) ParseNextKey();
  }

  void SeekToLast() override {
    if (!SeekToRestartPoint(num_restarts_ - 1)) return;
    while (ParseNextKey() && NextEntryOffset() < restarts_) {
      // Keep skipping.
    }
  }

 private:
  const Comparator* const comparator_;
  const char* const data_;       // underlying block contents
  const uint32_t restarts_;      // offset of restart array
  const uint32_t num_restarts_;

  // current_ is offset in data_ of current entry; >= restarts_ if !Valid.
  uint32_t current_;
  uint32_t restart_index_;  // index of restart block in which current_ falls
  std::string key_;
  Slice value_;
  Status status_;

  // Return the offset in data_ just past the end of the current entry.
  inline uint32_t NextEntryOffset() const {
    return static_cast<uint32_t>((value_.data() + value_.size()) - data_);
  }

  uint32_t GetRestartPoint(uint32_t index) const {
    assert(index < num_restarts_);
    return DecodeFixed32(data_ + restarts_ + index * sizeof(uint32_t));
  }

  // False, with the iterator in the Corruption state, if the restart
  // point lies past the entries.
  bool SeekToRestartPoint(uint32_t index) {
    key_.clear();
    restart_index_ = index;
    // ParseNextKey() starts at the end of value_, so set value_ accordingly.
    uint32_t offset = GetRestartPoint(index);
    if (offset > restarts_) {
      CorruptionError();
      return false;
    }
    value_ = Slice(data_ + offset, 0);
    return true;
  }

  void CorruptionError() {
    current_ = restarts_;
    restart_index_ = num_restarts_;
    status_ = Status::Corruption("bad entry in block");
    key_.clear();
    value_.clear();
  }

  bool ParseNextKey() {
    current_ = NextEntryOffset();
    const char* p = data_ + current_;
    const char* limit = data_ + restarts_;  // Restarts come right after data
    if (p >= limit) {
      // No more entries; mark as invalid.
      current_ = restarts_;
      restart_index_ = num_restarts_;
      return false;
    }

    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_.size() < shared) {
      CorruptionError();
      return false;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_length);
    while (restart_index_ + 1 < num_restarts_ &&
           GetRestartPoint(restart_index_ + 1) < current_) {
      ++restart_index_;
    }
    return true;
  }
};

Iterator* Block::NewIterator(const Comparator* comparator) {
  if (size_ < sizeof(uint32_t)) {
    return NewErrorIterator(Status::Corruption("bad block contents"));
  }
  const uint32_t num_restarts = NumRestarts();
  if (num_restarts == 0) {
    return NewEmptyIterator();
  }
  return new Iter(comparator, data_, restart_offset_, num_restarts);
}

}  // namespace pipelsm
