// Version / VersionSet: the leveled file-metadata tree, its MANIFEST
// persistence and compaction picking.
//
// A Version is an immutable snapshot of which SSTables form each level.
// VersionSet chains versions; LogAndApply applies a VersionEdit, persists
// it to the MANIFEST and installs the result as current. Compaction
// picking is delegated to the CompactionPicker selected by
// Options::compaction_style (src/compaction/picker.h): leveled size-ratio
// (the paper's LevelDB substrate), tiered, or lazy-leveling. Non-leveled
// styles install overlapping sorted runs in levels > 0; the read and
// overlap-query paths then treat every level like level-0, relying on
// newest-first file-number order for correctness.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/db/dbformat.h"
#include "src/db/options.h"
#include "src/db/table_cache.h"
#include "src/version/version_edit.h"

namespace pipelsm {

namespace log {
class Writer;
}

class Compaction;
class CompactionPicker;
class Iterator;
class TableCache;
class Version;
class VersionSet;

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
                            std::vector<FileMetaData*>* inputs);

  // Returns true iff some file in the specified level overlaps some part
  // of [*smallest_user_key,*largest_user_key].
  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }

  const std::vector<FileMetaData*>& files(int level) const {
    return files_[level];
  }

  std::string DebugString() const;

 private:
  friend class Compaction;
  friend class CompactionPicker;
  friend class VersionSet;

  class LevelFileNumIterator;

  explicit Version(VersionSet* vset)
      : vset_(vset), next_(this), prev_(this), refs_(0),
        compaction_score_(-1), compaction_level_(-1) {}

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

  // Level that should be compacted next and its compaction score.
  // Score < 1 means compaction is not strictly needed. Filled by
  // VersionSet::Finalize().
  double compaction_score_;
  int compaction_level_;
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

  // Pick level and inputs for a new compaction (nullptr if none needed).
  // Caller owns the result.
  Compaction* PickCompaction();

  // Return a compaction object for compacting the range [begin,end] in
  // the specified level (manual compactions). Caller owns the result.
  Compaction* CompactRange(int level, const InternalKey* begin,
                           const InternalKey* end);

  bool NeedsCompaction() const {
    Version* v = current_;
    return v->compaction_score_ >= 1;
  }

  // Add all files listed in any live version to *live.
  void AddLiveFiles(std::set<uint64_t>* live);

  TableCache* table_cache() const { return table_cache_; }
  const InternalKeyComparator* icmp() const { return &icmp_; }
  const Options* options() const { return options_; }
  const std::string& dbname() const { return dbname_; }

  // The policy object picked by Options::compaction_style.
  CompactionPicker* picker() const { return picker_.get(); }

  // True when the active picker installs overlapping runs in levels > 0;
  // gates the L0-style read/overlap handling for all levels.
  bool overlapping_levels() const { return overlapping_levels_; }

  // One-line summary of files per level, e.g. "files[ 2 4 0 0 0 0 0 ]".
  std::string LevelSummary() const;

  // Approximate byte offset of `key` within the version's total data
  // (sums whole files below the key plus a within-file offset from the
  // containing table's index).
  uint64_t ApproximateOffsetOf(Version* v, const InternalKey& key);

 private:
  class Builder;

  friend class Compaction;
  friend class CompactionPicker;
  friend class Version;

  void Finalize(Version* v);

  void GetRange(const std::vector<FileMetaData*>& inputs, InternalKey* smallest,
                InternalKey* largest);

  void GetRange2(const std::vector<FileMetaData*>& inputs1,
                 const std::vector<FileMetaData*>& inputs2,
                 InternalKey* smallest, InternalKey* largest);

  void SetupOtherInputs(Compaction* c);

  // Save current contents to *log.
  Status WriteSnapshot(log::Writer* log);

  void AppendVersion(Version* v);

  double MaxBytesForLevel(int level) const;
  uint64_t MaxFileSizeForLevel(int level) const;

  const std::string dbname_;
  const Options* const options_;
  TableCache* const table_cache_;
  const InternalKeyComparator icmp_;
  obs::Logger* const info_log_;
  const std::unique_ptr<CompactionPicker> picker_;
  const bool overlapping_levels_;
  uint64_t next_file_number_ = 2;
  uint64_t manifest_file_number_ = 0;
  uint64_t last_sequence_ = 0;
  uint64_t log_number_ = 0;

  // Opened lazily.
  std::unique_ptr<WritableFile> descriptor_file_;
  std::unique_ptr<log::Writer> descriptor_log_;

  Version dummy_versions_;  // Head of circular doubly-linked list of versions
  Version* current_;        // == dummy_versions_.prev_

  // Per-level key at which the next size compaction should pick its first
  // file (round-robin through the key space, as in LevelDB).
  std::string compact_pointer_[config::kNumLevels];
};

// A Compaction encapsulates information about a picked compaction.
class Compaction {
 public:
  ~Compaction();

  // Return the level that is being compacted (the source of inputs_[0]).
  int level() const { return level_; }

  // Level the merged output files are installed at. level_ + 1 for
  // leveled and tiered pushes; level_ for a tiered last-level self-merge.
  int output_level() const { return output_level_; }

  // Predicted bytes-written amplification of this job: total input bytes
  // divided by the bytes entering from the source level (~1 for tiered
  // pushes, (src+overlap)/src for leveled spills). Filled by the picker;
  // reported through admission requests, CompactionJobInfo and the
  // pipelsm.compaction property.
  double predicted_write_amp() const { return predicted_write_amp_; }

  // Return the object that holds the edits to the descriptor done by this
  // compaction.
  VersionEdit* edit() { return &edit_; }

  // "which" must be either 0 or 1.
  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }

  // Return the ith input file ("which" 0 = source level, 1 = output
  // level residents).
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }

  const std::vector<FileMetaData*>& inputs(int which) const {
    return inputs_[which];
  }

  // Maximum size of files to build during this compaction.
  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  // Is this a trivial compaction that can be implemented by just moving a
  // single input file to the output level (no merging or splitting)?
  bool IsTrivialMove() const;

  // Add all inputs to this compaction as delete operations to *edit.
  void AddInputDeletions(VersionEdit* edit);

  // Drop-deletion eligibility, asked by the sub-task planner: true iff no
  // level below the output level holds any key in
  // [*lo_user_key, *hi_user_key] (nullptr = unbounded). Conservative and
  // safe to evaluate per planned sub-range.
  bool RangeIsBaseLevel(const Slice* lo_user_key,
                        const Slice* hi_user_key) const;

  // Release the input version for the compaction, once it is done.
  void ReleaseInputs();

  // Total bytes across all inputs.
  uint64_t TotalInputBytes() const;

 private:
  friend class CompactionPicker;
  friend class VersionSet;

  Compaction(const Options* options, int level, int output_level);

  // True iff `f` is one of this compaction's input files (by number).
  bool IsInputFile(const FileMetaData* f) const;

  int level_;
  int output_level_;
  double predicted_write_amp_ = 1.0;
  uint64_t max_output_file_size_;
  Version* input_version_;
  VersionEdit edit_;

  // inputs_[0] comes from level_; inputs_[1] holds the resident files of
  // output_level_ merged in (empty for tiered pushes and self-merges).
  std::vector<FileMetaData*> inputs_[2];
};

}  // namespace pipelsm
