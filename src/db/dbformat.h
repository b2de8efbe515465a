// Internal key format shared by the memtable, tables and compaction:
//
//   internal_key := user_key | fixed64( sequence << 8 | value_type )
//
// Ordering: ascending user key, then *descending* sequence, then
// descending type — so the newest version of a user key is seen first.
#pragma once

#include <cstdint>
#include <string>

#include "src/table/comparator.h"
#include "src/table/filter_policy.h"
#include "src/util/coding.h"
#include "src/util/slice.h"
#include "src/util/string_util.h"

namespace pipelsm {

// Grouping of constants. The paper's LevelDB substrate uses 7 levels with
// exponentially growing size thresholds.
namespace config {
static const int kNumLevels = 7;

// Level-0 compaction is started when we hit this many files.
static const int kL0_CompactionTrigger = 4;

// Soft limit on number of level-0 files. We slow down writes at this point.
static const int kL0_SlowdownWritesTrigger = 8;

// Maximum number of level-0 files. We stop writes at this point.
static const int kL0_StopWritesTrigger = 12;
}  // namespace config

enum ValueType : uint8_t {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
  // Key-value separation (docs/VALUE_LOG.md): the entry's "value" bytes
  // are an encoded vlog::ValueLocation pointing into the value log, not
  // the user value itself. Compaction moves these 20-byte pointers
  // around opaquely; Get/iterators resolve them on read.
  kTypeValuePointer = 0x2,
};

// kValueTypeForSeek defines the ValueType that should be passed when
// constructing a ParsedInternalKey object for seeking to a particular
// sequence number (since we sort sequence numbers in decreasing order
// and the value type is embedded as the low 8 bits in the sequence
// number in internal keys, we need to use the highest-numbered
// ValueType, not the lowest).
static const ValueType kValueTypeForSeek = kTypeValuePointer;

typedef uint64_t SequenceNumber;

// We leave eight bits empty at the bottom so a type and sequence#
// can be packed together into 64-bits.
static const SequenceNumber kMaxSequenceNumber = ((0x1ull << 56) - 1);

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence;
  ValueType type;

  ParsedInternalKey() {}
  ParsedInternalKey(const Slice& u, const SequenceNumber& seq, ValueType t)
      : user_key(u), sequence(seq), type(t) {}
  std::string DebugString() const;
};

// Return the length of the encoding of "key".
inline size_t InternalKeyEncodingLength(const ParsedInternalKey& key) {
  return key.user_key.size() + 8;
}

inline uint64_t PackSequenceAndType(uint64_t seq, ValueType t) {
  return (seq << 8) | t;
}

// Append the serialization of "key" to *result.
void AppendInternalKey(std::string* result, const ParsedInternalKey& key);

// Attempt to parse an internal key from "internal_key". On success,
// stores the parsed data in "*result" and returns true.
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

// Returns the user key portion of an internal key.
inline Slice ExtractUserKey(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return Slice(internal_key.data(), internal_key.size() - 8);
}

inline uint64_t ExtractSequenceAndType(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return DecodeFixed64(internal_key.data() + internal_key.size() - 8);
}

// A comparator for internal keys that uses a specified comparator for
// the user key portion and breaks ties by decreasing sequence number.
class InternalKeyComparator final : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* c) : user_comparator_(c) {}
  const char* Name() const override;
  int Compare(const Slice& a, const Slice& b) const override;

  const Comparator* user_comparator() const { return user_comparator_; }

  int Compare(const class InternalKey& a, const class InternalKey& b) const;

 private:
  const Comparator* user_comparator_;
};

// Filter policy wrapper that converts from internal keys to user keys.
class InternalFilterPolicy final : public FilterPolicy {
 public:
  explicit InternalFilterPolicy(const FilterPolicy* p) : user_policy_(p) {}
  const char* Name() const override;
  void CreateFilter(const Slice* keys, size_t n,
                    std::string* dst) const override;
  bool KeyMayMatch(const Slice& key, const Slice& filter) const override;

 private:
  const FilterPolicy* const user_policy_;
};

// A helper class that wraps an encoded InternalKey in a std::string.
class InternalKey {
 public:
  InternalKey() {}  // Leave rep_ as empty to indicate it is invalid
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, ParsedInternalKey(user_key, s, t));
  }

  bool DecodeFrom(const Slice& s) {
    rep_.assign(s.data(), s.size());
    return !rep_.empty();
  }

  Slice Encode() const {
    assert(!rep_.empty());
    return rep_;
  }

  Slice user_key() const { return ExtractUserKey(rep_); }

  void Clear() { rep_.clear(); }

  std::string DebugString() const;

 private:
  std::string rep_;
};

inline int InternalKeyComparator::Compare(const InternalKey& a,
                                          const InternalKey& b) const {
  return Compare(a.Encode(), b.Encode());
}

// A helper class useful for DB::Get(): an internal key buffer with the
// memtable lookup format prefix.
class LookupKey {
 public:
  // Initialize *this for looking up user_key at snapshot `sequence`.
  LookupKey(const Slice& user_key, SequenceNumber sequence);
  ~LookupKey();

  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  // Return a key suitable for lookup in a MemTable.
  Slice memtable_key() const { return Slice(start_, end_ - start_); }

  // Return an internal key (suitable for passing to an internal iterator).
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }

  // Return the user key.
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  // We construct a char array of the form:
  //    klength  varint32               <-- start_
  //    userkey  char[klength]          <-- kstart_
  //    tag      uint64
  //                                    <-- end_
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];  // Avoid allocation for short keys
};

}  // namespace pipelsm
