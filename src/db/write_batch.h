// WriteBatch: an ordered group of updates applied atomically.
//
// Wire format (also the WAL record payload):
//   sequence: fixed64
//   count: fixed32
//   data: record[count]
// record :=
//   kTypeValue        varstring varstring |
//   kTypeValuePointer varstring varstring |
//   kTypeDeletion     varstring
//
// kTypeValuePointer records carry an encoded vlog::ValueLocation instead
// of the user value (key-value separation, docs/VALUE_LOG.md). They are
// produced internally by the DB write path and value-log GC — user
// batches only ever contain Put/Delete.
#pragma once

#include <string>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

class MemTable;

class WriteBatch {
 public:
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(const Slice& key, const Slice& value) = 0;
    virtual void Delete(const Slice& key) = 0;
    // `location` is an encoded vlog::ValueLocation. Handlers that can
    // never see separated batches (user-batch-only paths) still must
    // route it explicitly — silently treating a pointer as a value
    // would hand raw location bytes to readers.
    virtual void PutPointer(const Slice& key, const Slice& location) = 0;
  };

  WriteBatch();
  WriteBatch(const WriteBatch&) = default;
  WriteBatch& operator=(const WriteBatch&) = default;
  ~WriteBatch() = default;

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  // Internal (write path / vlog GC): record a key whose value lives in
  // the value log. `location` is an encoded vlog::ValueLocation.
  void PutPointer(const Slice& key, const Slice& location);
  void Clear();

  // The size of the database changes caused by this batch.
  size_t ApproximateSize() const { return rep_.size(); }

  // Copies the operations in "source" to this batch.
  void Append(const WriteBatch& source);

  // Replays the operations into the handler, in insertion order.
  Status Iterate(Handler* handler) const;

 private:
  friend class WriteBatchInternal;

  std::string rep_;
};

// Internal plumbing shared by the DB write path and WAL recovery.
class WriteBatchInternal {
 public:
  static int Count(const WriteBatch* batch);
  static void SetCount(WriteBatch* batch, int n);
  static uint64_t Sequence(const WriteBatch* batch);
  static void SetSequence(WriteBatch* batch, uint64_t seq);
  static Slice Contents(const WriteBatch* batch) { return Slice(batch->rep_); }
  static size_t ByteSize(const WriteBatch* batch) { return batch->rep_.size(); }
  static void SetContents(WriteBatch* batch, const Slice& contents);
  // Decodes every record without applying any: OK iff the whole batch is
  // well formed, its count is right, and its sequence numbers start past
  // 0 and fit in a SequenceNumber. WAL replay checks each record with it
  // before any of the record reaches the memtable.
  static Status Validate(const WriteBatch* batch);
  static Status InsertInto(const WriteBatch* batch, MemTable* memtable);
  static void Append(WriteBatch* dst, const WriteBatch* src);
};

}  // namespace pipelsm
