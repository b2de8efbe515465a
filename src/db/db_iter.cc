#include "src/db/db_iter.h"

#include <memory>
#include <string>

#include "src/util/coding.h"
#include "src/vlog/vlog.h"

namespace pipelsm {

namespace {

// Memtables and sstables that make the DB representation contain (userkey,
// seq, type) => uservalue entries. DBIter combines multiple entries for
// the same userkey found in the DB representation into a single entry
// while accounting for sequence numbers, deletion markers, overwrites,
// etc.
class DBIter final : public Iterator {
 public:
  // Which direction is the iterator currently moving?
  // (1) When moving forward, the internal iterator is positioned at the
  //     exact entry that yields this->key(), this->value()
  // (2) When moving backwards, the internal iterator is positioned just
  //     before all entries whose user key == this->key().
  enum Direction { kForward, kReverse };

  DBIter(const Comparator* cmp, Iterator* iter, SequenceNumber s,
         vlog::VlogManager* vlog, bool fill_cache)
      : user_comparator_(cmp),
        iter_(iter),
        sequence_(s),
        vlog_(vlog),
        fill_cache_(fill_cache),
        direction_(kForward),
        valid_(false) {}

  ~DBIter() override = default;

  DBIter(const DBIter&) = delete;
  DBIter& operator=(const DBIter&) = delete;

  bool Valid() const override { return valid_; }
  Slice key() const override {
    assert(valid_);
    return (direction_ == kForward) ? ExtractUserKey(iter_->key())
                                    : saved_key_;
  }
  Slice value() const override {
    assert(valid_);
    if (direction_ == kForward) {
      // A kTypeValuePointer entry was resolved through the value log at
      // the yield point; hand out the resolved bytes instead of the raw
      // encoded location.
      return resolved_ ? Slice(resolved_value_) : iter_->value();
    }
    return saved_value_;
  }
  Status status() const override {
    if (status_.ok()) {
      return iter_->status();
    }
    return status_;
  }

  void Next() override;
  void Prev() override;
  void Seek(const Slice& target) override;
  void SeekToFirst() override;
  void SeekToLast() override;

 private:
  void FindNextUserEntry(bool skipping, std::string* skip);
  void FindPrevUserEntry();
  bool ParseKey(ParsedInternalKey* key);

  inline void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  inline void ClearSavedValue() {
    if (saved_value_.capacity() > 1048576) {
      std::string empty;
      std::swap(empty, saved_value_);
    } else {
      saved_value_.clear();
    }
  }

  const Comparator* const user_comparator_;
  std::unique_ptr<Iterator> iter_;
  SequenceNumber const sequence_;
  vlog::VlogManager* const vlog_;  // null = key-value separation off
  const bool fill_cache_;          // ReadOptions::fill_cache
  Status status_;
  std::string saved_key_;    // == current key when direction_==kReverse
  std::string saved_value_;  // == current value when direction_==kReverse
  std::string resolved_value_;  // forward: resolved pointer value
  Direction direction_;
  bool valid_;
  bool resolved_ = false;  // forward position is a resolved pointer
};

inline bool DBIter::ParseKey(ParsedInternalKey* ikey) {
  Slice k = iter_->key();
  if (!ParseInternalKey(k, ikey)) {
    status_ = Status::Corruption("corrupted internal key in DBIter");
    return false;
  }
  return true;
}

void DBIter::Next() {
  assert(valid_);

  if (direction_ == kReverse) {  // Switch directions?
    direction_ = kForward;
    // iter_ is pointing just before the entries for this->key(), so
    // advance into the range of entries for this->key() and then use the
    // normal skipping code below.
    if (!iter_->Valid()) {
      iter_->SeekToFirst();
    } else {
      iter_->Next();
    }
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
    // saved_key_ already contains the key to skip past.
  } else {
    // Store in saved_key_ the current key so we skip it below.
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);

    // iter_ is pointing to current key. We can now safely move to the
    // next to avoid checking current key.
    iter_->Next();
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
  }

  FindNextUserEntry(true, &saved_key_);
}

void DBIter::FindNextUserEntry(bool skipping, std::string* skip) {
  // Loop until we hit an acceptable entry to yield.
  assert(iter_->Valid());
  assert(direction_ == kForward);
  resolved_ = false;
  do {
    ParsedInternalKey ikey;
    if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
      switch (ikey.type) {
        case kTypeDeletion:
          // Arrange to skip all upcoming entries for this key since they
          // are hidden by this deletion.
          SaveKey(ikey.user_key, skip);
          skipping = true;
          break;
        case kTypeValue:
        case kTypeValuePointer:
          if (skipping &&
              user_comparator_->Compare(ikey.user_key, *skip) <= 0) {
            // Entry hidden.
          } else {
            if (ikey.type == kTypeValuePointer) {
              Status s = vlog::ResolvePointer(vlog_, iter_->value(),
                                              &resolved_value_, fill_cache_);
              if (!s.ok()) {
                status_ = s;
                saved_key_.clear();
                valid_ = false;
                return;
              }
              resolved_ = true;
            }
            valid_ = true;
            saved_key_.clear();
            return;
          }
          break;
      }
    }
    iter_->Next();
  } while (iter_->Valid());
  saved_key_.clear();
  valid_ = false;
}

void DBIter::Prev() {
  assert(valid_);

  if (direction_ == kForward) {  // Switch directions?
    // iter_ is pointing at the current entry. Scan backwards until the
    // key changes so we can use the normal reverse scanning code.
    assert(iter_->Valid());  // Otherwise valid_ would have been false
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
    while (true) {
      iter_->Prev();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        ClearSavedValue();
        return;
      }
      if (user_comparator_->Compare(ExtractUserKey(iter_->key()),
                                    saved_key_) < 0) {
        break;
      }
    }
    direction_ = kReverse;
  }

  FindPrevUserEntry();
}

void DBIter::FindPrevUserEntry() {
  assert(direction_ == kReverse);

  ValueType value_type = kTypeDeletion;
  if (iter_->Valid()) {
    do {
      ParsedInternalKey ikey;
      if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
        if ((value_type != kTypeDeletion) &&
            user_comparator_->Compare(ikey.user_key, saved_key_) < 0) {
          // We encountered a non-deleted value in entries for previous
          // keys.
          break;
        }
        value_type = ikey.type;
        if (value_type == kTypeDeletion) {
          saved_key_.clear();
          ClearSavedValue();
        } else {
          Slice raw_value = iter_->value();
          if (saved_value_.capacity() > raw_value.size() + 1048576) {
            std::string empty;
            std::swap(empty, saved_value_);
          }
          SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
          saved_value_.assign(raw_value.data(), raw_value.size());
        }
      }
      iter_->Prev();
    } while (iter_->Valid());
  }

  if (value_type == kTypeDeletion) {
    // End
    valid_ = false;
    saved_key_.clear();
    ClearSavedValue();
    direction_ = kForward;
  } else {
    if (value_type == kTypeValuePointer) {
      // saved_value_ holds the raw encoded location; resolve it in place.
      Status s = vlog::ResolvePointer(vlog_, saved_value_, &saved_value_,
                                      fill_cache_);
      if (!s.ok()) {
        status_ = s;
        valid_ = false;
        saved_key_.clear();
        ClearSavedValue();
        direction_ = kForward;
        return;
      }
    }
    valid_ = true;
  }
}

void DBIter::Seek(const Slice& target) {
  direction_ = kForward;
  ClearSavedValue();
  saved_key_.clear();
  AppendInternalKey(&saved_key_,
                    ParsedInternalKey(target, sequence_, kValueTypeForSeek));
  iter_->Seek(saved_key_);
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
}

void DBIter::SeekToFirst() {
  direction_ = kForward;
  ClearSavedValue();
  iter_->SeekToFirst();
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
}

void DBIter::SeekToLast() {
  direction_ = kReverse;
  ClearSavedValue();
  iter_->SeekToLast();
  FindPrevUserEntry();
}

}  // anonymous namespace

Iterator* NewDBIterator(const Comparator* user_key_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        vlog::VlogManager* vlog, bool fill_cache) {
  return new DBIter(user_key_comparator, internal_iter, sequence, vlog,
                    fill_cache);
}

}  // namespace pipelsm
