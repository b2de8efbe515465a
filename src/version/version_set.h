// Version / VersionSet: the leveled file-metadata tree and its MANIFEST
// persistence.
//
// A Version is an immutable snapshot of which SSTables form each level.
// VersionSet chains versions; LogAndApply applies a VersionEdit, persists
// it to the MANIFEST and installs the result as current. Every compaction
// decision belongs to the CompactionPicker (src/compaction/picker.h),
// whose run caps come from the Options::compaction_style preset: leveled
// size-ratio (the paper's LevelDB substrate), tiered, or lazy-leveling.
// Presets with more than one run per upper level install overlapping
// sorted runs in levels > 0; the read and overlap-query paths then treat
// every level like level-0, relying on newest-first file-number order
// for correctness.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/compaction/picker.h"
#include "src/db/dbformat.h"
#include "src/db/options.h"
#include "src/db/table_cache.h"
#include "src/version/version_edit.h"

namespace pipelsm {

namespace log {
class Writer;
}

class Iterator;
class TableCache;
class Version;
class VersionSet;

// Sum of file_size over `files`.
int64_t TotalFileSize(const std::vector<FileMetaData*>& files);

// Return the smallest index i such that files[i]->largest >= key.
// Return files.size() if there is no such file.
// REQUIRES: "files" contains a sorted list of non-overlapping files.
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key);

// Returns true iff some file in "files" overlaps the user key range
// [*smallest,*largest]. smallest==nullptr represents a key smaller than
// all keys; largest==nullptr represents a key larger than all keys.
// REQUIRES: if disjoint_sorted_files, files[] contains disjoint sorted
// ranges.
bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key);

class Version {
 public:
  // Append to *iters a sequence of iterators that will yield the contents
  // of this Version when merged together.
  void AddIterators(const TableReadOptions& read_options,
                    std::vector<Iterator*>* iters);

  // Lookup the value for key. On hit stores it in *val. When the entry
  // is a value-log pointer (kTypeValuePointer), *val receives the raw
  // encoded vlog::ValueLocation and *is_pointer (if non-null) is set;
  // the caller resolves it against the value log.
  Status Get(const TableReadOptions& read_options, const LookupKey& key,
             std::string* val, bool* is_pointer = nullptr);

  // Reference count management (so Versions do not disappear out from
  // under live iterators).
  void Ref();
  void Unref();

  // Fills *inputs with all files in "level" that overlap
  // [begin,end] (nullptr means unbounded).
  void GetOverlappingInputs(int level, const InternalKey* begin,
                            const InternalKey* end,
                            std::vector<FileMetaData*>* inputs) const;

  const std::vector<FileMetaData*>& files(int level) const {
    return files_[level];
  }

  // The level to compact next and its score, as the picker scored this
  // version on install.
  const CompactionPicker::Score& compaction() const { return compaction_; }

  std::string DebugString() const;

 private:
  friend class VersionSet;

  class LevelFileNumIterator;

  explicit Version(VersionSet* vset)
      : vset_(vset), next_(this), prev_(this), refs_(0) {}

  ~Version();

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  Iterator* NewConcatenatingIterator(const TableReadOptions& read_options,
                                     int level) const;

  VersionSet* vset_;  // VersionSet to which this Version belongs
  Version* next_;     // Next version in linked list
  Version* prev_;     // Previous version in linked list
  int refs_;          // Number of live refs to this version

  // List of files per level
  std::vector<FileMetaData*> files_[config::kNumLevels];

  CompactionPicker::Score compaction_;  // filled by VersionSet::Finalize()
};

class VersionSet {
 public:
  // MANIFEST write failures are reported to `info_log` (the DB's LOG;
  // may be null).
  VersionSet(std::string dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator* cmp,
             obs::Logger* info_log = nullptr);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  // Apply *edit to the current version to form a new descriptor that is
  // both saved to persistent state and installed as the new current
  // version. `mu` is the DB mutex, released during actual file writes.
  Status LogAndApply(VersionEdit* edit, std::mutex* mu);

  // Recover the last saved descriptor from persistent storage.
  Status Recover();

  Version* current() const { return current_; }

  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  // Allocate and return a new file number.
  uint64_t NewFileNumber() { return next_file_number_++; }

  // Arrange for NewFileNumber() to return numbers past "number" (files
  // found on disk that no MANIFEST record accounts for).
  void MarkFileNumberUsed(uint64_t number) {
    if (next_file_number_ <= number) {
      next_file_number_ = number + 1;
    }
  }

  // Arrange to reuse "file_number" unless a newer file number has already
  // been allocated (for abandoned compaction outputs).
  void ReuseFileNumber(uint64_t file_number) {
    if (next_file_number_ == file_number + 1) {
      next_file_number_ = file_number;
    }
  }

  int NumLevelFiles(int level) const;
  int64_t NumLevelBytes(int level) const;

  uint64_t LastSequence() const { return last_sequence_; }
  void SetLastSequence(uint64_t s) {
    assert(s >= last_sequence_);
    last_sequence_ = s;
  }

  uint64_t LogNumber() const { return log_number_; }

  // The compaction policy: DBImpl asks it for jobs and flush levels.
  const CompactionPicker& picker() const { return picker_; }

  // Key at which the next size compaction of `level` picks its first
  // file (empty: the level's first file). The picker advances it.
  const std::string& compact_pointer(int level) const {
    return compact_pointer_[level];
  }
  void SetCompactPointer(int level, const InternalKey& key) {
    compact_pointer_[level] = key.Encode().ToString();
  }

  bool NeedsCompaction() const { return current_->compaction_.score >= 1; }

  // Add all files listed in any live version to *live.
  void AddLiveFiles(std::set<uint64_t>* live);

  TableCache* table_cache() const { return table_cache_; }
  const InternalKeyComparator* icmp() const { return &icmp_; }
  const Options* options() const { return options_; }
  const std::string& dbname() const { return dbname_; }

  // One-line summary of files per level, e.g. "files[ 2 4 0 0 0 0 0 ]".
  std::string LevelSummary() const;

  // Approximate byte offset of `key` within the version's total data
  // (sums whole files below the key plus a within-file offset from the
  // containing table's index).
  uint64_t ApproximateOffsetOf(Version* v, const InternalKey& key);

 private:
  class Builder;

  friend class Version;

  // Stores the picker's score of `v` in it.
  void Finalize(Version* v);

  // Save current contents to *log.
  Status WriteSnapshot(log::Writer* log);

  void AppendVersion(Version* v);

  const std::string dbname_;
  const Options* const options_;
  TableCache* const table_cache_;
  const InternalKeyComparator icmp_;
  obs::Logger* const info_log_;
  const CompactionPicker picker_;
  uint64_t next_file_number_ = 2;
  uint64_t manifest_file_number_ = 0;
  uint64_t last_sequence_ = 0;
  uint64_t log_number_ = 0;

  // Opened lazily.
  std::unique_ptr<WritableFile> descriptor_file_;
  std::unique_ptr<log::Writer> descriptor_log_;

  Version dummy_versions_;  // Head of circular doubly-linked list of versions
  Version* current_;        // == dummy_versions_.prev_

  // compact_pointer(level): round-robin through the key space, as in
  // LevelDB.
  std::string compact_pointer_[config::kNumLevels];
};

// Writes `edit` as the one record of MANIFEST-`manifest_number`, syncs it
// and points CURRENT at it. On failure the new MANIFEST is removed, so a
// retry starts clean. A new DB and RepairDB both start from this.
Status CreateManifest(Env* env, const std::string& dbname,
                      uint64_t manifest_number, const VersionEdit& edit);

}  // namespace pipelsm
