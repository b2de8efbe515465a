#include "src/version/version_set.h"

#include <algorithm>
#include <cstdio>

#include "src/db/filename.h"
#include "src/env/env.h"
#include "src/obs/logger.h"
#include "src/table/merger.h"
#include "src/table/two_level_iterator.h"
#include "src/util/coding.h"
#include "src/util/string_util.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace pipelsm {

static int64_t TotalFileSize(const std::vector<FileMetaData*>& files) {
  int64_t sum = 0;
  for (const FileMetaData* f : files) {
    sum += f->file_size;
  }
  return sum;
}

double VersionSet::MaxBytesForLevel(int level) const {
  // Result for both level-0 and level-1: 10 MB (level-0 is special-cased
  // by file count anyway); each deeper level holds 10x the one above.
  double result = 10. * 1048576.0;
  while (level > 1) {
    result *= 10;
    level--;
  }
  return result;
}

uint64_t VersionSet::MaxFileSizeForLevel(int) const {
  // We could vary per level to reduce number of files?
  return options_->max_file_size;
}

// Maximum bytes of overlaps in grandparent (i.e., level+2) before we stop
// building a single output file in a level->level+1 compaction.
static int64_t MaxGrandParentOverlapBytes(const Options* options) {
  return 10 * static_cast<int64_t>(options->max_file_size);
}

// Maximum number of bytes in all compacted files. We avoid expanding the
// lower level file set of a compaction if it would make the total
// compaction cover more than this many bytes.
static int64_t ExpandedCompactionByteSizeLimit(const Options* options) {
  return 25 * static_cast<int64_t>(options->max_file_size);
}

Version::~Version() {
  assert(refs_ == 0);

  // Remove from linked list.
  prev_->next_ = next_;
  next_->prev_ = prev_;

  // Drop references to files.
  for (int level = 0; level < config::kNumLevels; level++) {
    for (FileMetaData* f : files_[level]) {
      assert(f->refs > 0);
      f->refs--;
      if (f->refs <= 0) {
        delete f;
      }
    }
  }
}

int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      // Key at "mid.largest" is < "target". Therefore all files at or
      // before "mid" are uninteresting.
      left = mid + 1;
    } else {
      // Key at "mid.largest" is >= "target". Therefore all files after
      // "mid" are uninteresting.
      right = mid;
    }
  }
  return right;
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key,
                      const FileMetaData* f) {
  // null user_key occurs before all keys and is therefore never after *f.
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                       const FileMetaData* f) {
  // null user_key occurs after all keys and is therefore never before *f.
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files.
    for (const FileMetaData* f : files) {
      if (AfterFile(ucmp, smallest_user_key, f) ||
          BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap.
      } else {
        return true;
      }
    }
    return false;
  }

  // Binary search over file list.
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    // Find the earliest possible internal key for smallest_user_key.
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                          kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }

  if (index >= files.size()) {
    // Beyond end of all files.
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index]);
}

// An internal iterator. For a given version/level pair, yields information
// about the files in the level. For a given entry, key() is the largest
// key that occurs in the file, and value() is a 16-byte value containing
// the file number and file size, both encoded using EncodeFixed64.
class Version::LevelFileNumIterator final : public Iterator {
 public:
  LevelFileNumIterator(const InternalKeyComparator& icmp,
                       const std::vector<FileMetaData*>* flist)
      : icmp_(icmp), flist_(flist), index_(flist->size()) {  // Marks as invalid
  }
  bool Valid() const override { return index_ < flist_->size(); }
  void Seek(const Slice& target) override {
    index_ = FindFile(icmp_, *flist_, target);
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = flist_->empty() ? 0 : flist_->size() - 1;
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = flist_->size();  // Marks as invalid
    } else {
      index_--;
    }
  }
  Slice key() const override {
    assert(Valid());
    return (*flist_)[index_]->largest.Encode();
  }
  Slice value() const override {
    assert(Valid());
    EncodeFixed64(value_buf_, (*flist_)[index_]->number);
    EncodeFixed64(value_buf_ + 8, (*flist_)[index_]->file_size);
    return Slice(value_buf_, sizeof(value_buf_));
  }
  Status status() const override { return Status::OK(); }

 private:
  const InternalKeyComparator icmp_;
  const std::vector<FileMetaData*>* const flist_;
  size_t index_;

  // Backing store for value(). Holds the file number and size.
  mutable char value_buf_[16];
};

Iterator* Version::NewConcatenatingIterator(
    const TableReadOptions& read_options, int level) const {
  TableCache* cache = vset_->table_cache_;
  return NewTwoLevelIterator(
      new LevelFileNumIterator(vset_->icmp_, &files_[level]),
      [cache, read_options](const Slice& file_value) -> Iterator* {
        if (file_value.size() != 16) {
          return NewErrorIterator(
              Status::Corruption("FileReader invoked with unexpected value"));
        }
        return cache->NewIterator(read_options,
                                  DecodeFixed64(file_value.data()),
                                  DecodeFixed64(file_value.data() + 8));
      });
}

void Version::AddIterators(const TableReadOptions& read_options,
                           std::vector<Iterator*>* iters) {
  // Merge all level zero files together since they may overlap.
  for (FileMetaData* f : files_[0]) {
    iters->push_back(vset_->table_cache_->NewIterator(read_options, f->number,
                                                      f->file_size));
  }

  // For levels > 0, we can use a concatenating iterator that sequentially
  // walks through the non-overlapping files in the level, opening them
  // lazily. Under overlapping styles every level is run-stacked like
  // level-0, so each file feeds the merge individually (the merging
  // iterator resolves versions by internal key, so order is immaterial).
  for (int level = 1; level < config::kNumLevels; level++) {
    if (files_[level].empty()) continue;
    if (vset_->overlapping_levels_) {
      for (FileMetaData* f : files_[level]) {
        iters->push_back(vset_->table_cache_->NewIterator(
            read_options, f->number, f->file_size));
      }
    } else {
      iters->push_back(NewConcatenatingIterator(read_options, level));
    }
  }
}

namespace {
enum SaverState {
  kNotFound,
  kFound,
  kDeleted,
  kCorrupt,
};
struct Saver {
  SaverState state;
  const Comparator* ucmp;
  Slice user_key;
  std::string* value;
  bool is_pointer = false;
};
}  // namespace

static void SaveValue(Saver* s, const Slice& ikey, const Slice& v) {
  ParsedInternalKey parsed_key;
  if (!ParseInternalKey(ikey, &parsed_key)) {
    s->state = kCorrupt;
  } else {
    if (s->ucmp->Compare(parsed_key.user_key, s->user_key) == 0) {
      s->state = (parsed_key.type == kTypeValue ||
                  parsed_key.type == kTypeValuePointer)
                     ? kFound
                     : kDeleted;
      if (s->state == kFound) {
        s->value->assign(v.data(), v.size());
        s->is_pointer = (parsed_key.type == kTypeValuePointer);
      }
    }
  }
}

static bool NewestFirst(FileMetaData* a, FileMetaData* b) {
  return a->number > b->number;
}

Status Version::Get(const TableReadOptions& read_options, const LookupKey& k,
                    std::string* value, bool* is_pointer) {
  if (is_pointer != nullptr) *is_pointer = false;
  Slice ikey = k.internal_key();
  Slice user_key = k.user_key();
  const Comparator* ucmp = vset_->icmp_.user_comparator();

  Saver saver;
  saver.state = kNotFound;
  saver.ucmp = ucmp;
  saver.user_key = user_key;
  saver.value = value;

  // We can search level-by-level since entries never hop across levels.
  // Therefore we are guaranteed that if we find data in a smaller level,
  // later levels are irrelevant.
  std::vector<FileMetaData*> tmp;
  for (int level = 0; level < config::kNumLevels; level++) {
    size_t num_files = files_[level].size();
    if (num_files == 0) continue;

    FileMetaData* const* files = nullptr;
    if (level == 0 || vset_->overlapping_levels_) {
      // Files in this level may overlap each other (level-0 always;
      // every level under tiered/lazy styles). Find all files that
      // overlap user_key and process them newest to oldest — valid
      // because file numbers are monotone and whole-level merges only
      // ever install runs strictly newer than the residents below them.
      tmp.clear();
      tmp.reserve(num_files);
      for (FileMetaData* f : files_[level]) {
        if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
            ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
          tmp.push_back(f);
        }
      }
      if (tmp.empty()) continue;
      std::sort(tmp.begin(), tmp.end(), NewestFirst);
      files = tmp.data();
      num_files = tmp.size();
    } else {
      // Binary search to find earliest index whose largest key >= ikey.
      uint32_t index = FindFile(vset_->icmp_, files_[level], ikey);
      if (index >= num_files) {
        continue;
      }
      FileMetaData* f = files_[level][index];
      if (ucmp->Compare(user_key, f->smallest.user_key()) < 0) {
        // All of "f" is past any data for user_key.
        continue;
      }
      files = &files_[level][index];
      num_files = 1;
    }

    for (size_t i = 0; i < num_files; i++) {
      FileMetaData* f = files[i];
      Status s = vset_->table_cache_->Get(
          read_options, f->number, f->file_size, ikey,
          [&saver](const Slice& found_key, const Slice& found_value) {
            SaveValue(&saver, found_key, found_value);
          });
      if (!s.ok()) return s;
      switch (saver.state) {
        case kNotFound:
          break;  // Keep searching in other files
        case kFound:
          if (is_pointer != nullptr) *is_pointer = saver.is_pointer;
          return Status::OK();
        case kDeleted:
          return Status::NotFound(Slice());
        case kCorrupt:
          return Status::Corruption("corrupted key for ", user_key);
      }
    }
  }

  return Status::NotFound(Slice());
}

void Version::Ref() { ++refs_; }

void Version::Unref() {
  assert(this != &vset_->dummy_versions_);
  assert(refs_ >= 1);
  --refs_;
  if (refs_ == 0) {
    delete this;
  }
}

bool Version::OverlapInLevel(int level, const Slice* smallest_user_key,
                             const Slice* largest_user_key) {
  const bool disjoint = (level > 0) && !vset_->overlapping_levels_;
  return SomeFileOverlapsRange(vset_->icmp_, disjoint, files_[level],
                               smallest_user_key, largest_user_key);
}

// Store in "*inputs" all files in "level" that overlap [begin,end].
void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileMetaData*>* inputs) {
  assert(level >= 0);
  assert(level < config::kNumLevels);
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = vset_->icmp_.user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileMetaData* f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // "f" is completely before specified range; skip it.
    } else if (end != nullptr && user_cmp->Compare(file_start, user_end) > 0) {
      // "f" is completely after specified range; skip it.
    } else {
      inputs->push_back(f);
      if (level == 0 || vset_->overlapping_levels_) {
        // Files in this level may overlap each other. So check if the
        // newly added file has expanded the range. If so, restart search
        // (transitive closure: a compaction must never split a stack of
        // overlapping files, or older data could shadow newer data).
        if (begin != nullptr &&
            user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

std::string Version::DebugString() const {
  std::string r;
  for (int level = 0; level < config::kNumLevels; level++) {
    // E.g.,
    //   --- level 1 ---
    //   17:123['a' .. 'd']
    //   20:43['e' .. 'g']
    r.append("--- level ");
    AppendNumberTo(&r, level);
    r.append(" ---\n");
    for (const FileMetaData* f : files_[level]) {
      r.push_back(' ');
      AppendNumberTo(&r, f->number);
      r.push_back(':');
      AppendNumberTo(&r, f->file_size);
      r.append("[");
      r.append(f->smallest.DebugString());
      r.append(" .. ");
      r.append(f->largest.DebugString());
      r.append("]\n");
    }
  }
  return r;
}

// A helper class so we can efficiently apply a whole sequence of edits to
// a particular state without creating intermediate Versions that contain
// full copies of the intermediate state.
class VersionSet::Builder {
 private:
  // Helper to sort by v->files_[file_number].smallest
  struct BySmallestKey {
    const InternalKeyComparator* internal_comparator;

    bool operator()(FileMetaData* f1, FileMetaData* f2) const {
      int r = internal_comparator->Compare(f1->smallest, f2->smallest);
      if (r != 0) {
        return (r < 0);
      } else {
        // Break ties by file number.
        return (f1->number < f2->number);
      }
    }
  };

  typedef std::set<FileMetaData*, BySmallestKey> FileSet;
  struct LevelState {
    std::set<uint64_t> deleted_files;
    FileSet* added_files;
  };

  VersionSet* vset_;
  Version* base_;
  LevelState levels_[config::kNumLevels];

 public:
  // Initialize a builder with the files from *base and other info from
  // *vset.
  Builder(VersionSet* vset, Version* base) : vset_(vset), base_(base) {
    base_->Ref();
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < config::kNumLevels; level++) {
      levels_[level].added_files = new FileSet(cmp);
    }
  }

  ~Builder() {
    for (int level = 0; level < config::kNumLevels; level++) {
      const FileSet* added = levels_[level].added_files;
      std::vector<FileMetaData*> to_unref;
      to_unref.reserve(added->size());
      for (FileMetaData* f : *added) {
        to_unref.push_back(f);
      }
      delete added;
      for (FileMetaData* f : to_unref) {
        f->refs--;
        if (f->refs <= 0) {
          delete f;
        }
      }
    }
    base_->Unref();
  }

  // Apply all of the edits in *edit to the current state.
  void Apply(const VersionEdit* edit) {
    // Update compaction pointers.
    for (const auto& [level, key] : edit->compact_pointers_) {
      vset_->compact_pointer_[level] = key.Encode().ToString();
    }

    // Delete files.
    for (const auto& [level, number] : edit->deleted_files_) {
      levels_[level].deleted_files.insert(number);
    }

    // Add new files.
    for (const auto& [level, meta] : edit->new_files_) {
      FileMetaData* f = new FileMetaData(meta);
      f->refs = 1;
      levels_[level].deleted_files.erase(f->number);
      levels_[level].added_files->insert(f);
    }
  }

  // Save the current state in *v. Corruption if the result would put
  // overlapping files in a level > 0 under leveled style (tiered and
  // lazy styles stack whole runs in a level by design): a MANIFEST is
  // input like any other.
  Status SaveTo(Version* v) {
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < config::kNumLevels; level++) {
      // Merge the set of added files with the set of pre-existing files.
      // Drop any deleted files. Store the result in *v.
      const std::vector<FileMetaData*>& base_files = base_->files_[level];
      auto base_iter = base_files.begin();
      auto base_end = base_files.end();
      const FileSet* added_files = levels_[level].added_files;
      v->files_[level].reserve(base_files.size() + added_files->size());
      for (FileMetaData* added_file : *added_files) {
        // Add all smaller files listed in base_.
        for (auto bpos = std::upper_bound(base_iter, base_end, added_file, cmp);
             base_iter != bpos; ++base_iter) {
          MaybeAddFile(v, level, *base_iter);
        }

        MaybeAddFile(v, level, added_file);
      }

      // Add remaining base files.
      for (; base_iter != base_end; ++base_iter) {
        MaybeAddFile(v, level, *base_iter);
      }

      if (level == 0 || vset_->overlapping_levels_) continue;
      const std::vector<FileMetaData*>& files = v->files_[level];
      for (size_t i = 1; i < files.size(); i++) {
        if (vset_->icmp_.Compare(files[i - 1]->largest, files[i]->smallest) >=
            0) {
          return Status::Corruption(
              "overlapping files in level " + std::to_string(level),
              files[i - 1]->largest.DebugString() + " vs. " +
                  files[i]->smallest.DebugString());
        }
      }
    }
    return Status::OK();
  }

  void MaybeAddFile(Version* v, int level, FileMetaData* f) {
    if (levels_[level].deleted_files.count(f->number) == 0) {
      f->refs++;
      v->files_[level].push_back(f);
    }
  }
};

VersionSet::VersionSet(std::string dbname, const Options* options,
                       TableCache* table_cache,
                       const InternalKeyComparator* cmp,
                       obs::Logger* info_log)
    : dbname_(std::move(dbname)),
      options_(options),
      table_cache_(table_cache),
      icmp_(*cmp),
      info_log_(info_log),
      picker_(*options),
      overlapping_levels_(picker_.overlapping_levels()),
      dummy_versions_(this),
      current_(nullptr) {
  AppendVersion(new Version(this));
}

VersionSet::~VersionSet() {
  current_->Unref();
  assert(dummy_versions_.next_ == &dummy_versions_);  // List must be empty
}

void VersionSet::AppendVersion(Version* v) {
  // Make "v" current.
  assert(v->refs_ == 0);
  assert(v != current_);
  if (current_ != nullptr) {
    current_->Unref();
  }
  current_ = v;
  v->Ref();

  // Append to linked list.
  v->prev_ = dummy_versions_.prev_;
  v->next_ = &dummy_versions_;
  v->prev_->next_ = v;
  v->next_->prev_ = v;
}

Status VersionSet::LogAndApply(VersionEdit* edit, std::mutex* mu) {
  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_);
    assert(edit->log_number_ < next_file_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }

  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(last_sequence_);

  Version* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(edit);
    Status s = builder.SaveTo(v);
    if (!s.ok()) {
      obs::Log(info_log_, "version edit rejected: %s", s.ToString().c_str());
      delete v;
      return s;
    }
  }
  Finalize(v);

  // Initialize new descriptor log file if necessary by creating a
  // temporary file that contains a snapshot of the current version.
  std::string new_manifest_file;
  Status s;
  if (descriptor_log_ == nullptr) {
    // No reason to unlock *mu here since we only hit this path in the
    // first call to LogAndApply (when opening the database).
    assert(descriptor_file_ == nullptr);
    if (manifest_file_number_ == 0) {
      manifest_file_number_ = NewFileNumber();
    }
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    s = options_->env->NewWritableFile(new_manifest_file, &descriptor_file_);
    if (s.ok()) {
      descriptor_log_.reset(new log::Writer(descriptor_file_.get()));
      s = WriteSnapshot(descriptor_log_.get());
    }
  }

  // Unlock during expensive MANIFEST log write.
  {
    mu->unlock();

    // Write new record to MANIFEST log.
    if (s.ok()) {
      std::string record;
      edit->EncodeTo(&record);
      s = descriptor_log_->AddRecord(record);
      if (s.ok()) {
        s = descriptor_file_->Sync();
      }
      if (!s.ok()) {
        obs::Log(info_log_, "MANIFEST write: %s", s.ToString().c_str());
      }
    }

    // If we just created a new descriptor file, install it by writing a
    // new CURRENT file that points to it.
    if (s.ok() && !new_manifest_file.empty()) {
      s = SetCurrentFile(options_->env, dbname_, manifest_file_number_);
    }

    mu->lock();
  }

  // Install the new version.
  if (s.ok()) {
    AppendVersion(v);
    log_number_ = edit->log_number_;
  } else {
    delete v;
    // The manifest is now suspect: a failed AddRecord/Sync may have left
    // a torn record that would shadow every later append. Abandon it and
    // force the next LogAndApply to start a fresh manifest (full
    // snapshot + CURRENT switch). Until then ManifestFileNumber() == 0
    // keeps RemoveObsoleteFiles from collecting any descriptor.
    descriptor_log_.reset();
    descriptor_file_.reset();
    manifest_file_number_ = 0;
    if (!new_manifest_file.empty()) {
      options_->env->RemoveFile(new_manifest_file);
    }
  }

  return s;
}

Status VersionSet::Recover() {
  // Read "CURRENT" file, which contains a pointer to the current manifest
  // file.
  std::string current;
  Status s = ReadFileToString(options_->env, CurrentFileName(dbname_),
                              &current);
  if (!s.ok()) {
    return s;
  }
  if (current.empty() || current[current.size() - 1] != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current.resize(current.size() - 1);

  std::string dscname = dbname_ + "/" + current;
  std::unique_ptr<SequentialFile> file;
  s = options_->env->NewSequentialFile(dscname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent file",
                                s.ToString());
    }
    return s;
  }

  bool have_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  uint64_t next_file = 0;
  uint64_t last_sequence = 0;
  uint64_t log_number = 0;
  Builder builder(this, current_);

  {
    struct LogReporter : public log::Reader::Reporter {
      Status* status;
      void Corruption(size_t, const Status& s) override {
        if (this->status->ok()) *this->status = s;
      }
    };
    LogReporter reporter;
    reporter.status = &s;
    log::Reader reader(file.get(), &reporter);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok()) {
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (s.ok()) {
        if (edit.has_comparator_ &&
            edit.comparator_ != icmp_.user_comparator()->Name()) {
          s = Status::InvalidArgument(
              edit.comparator_ + " does not match existing comparator ",
              icmp_.user_comparator()->Name());
        }
      }

      if (s.ok()) {
        builder.Apply(&edit);
      }

      if (edit.has_log_number_) {
        log_number = edit.log_number_;
        have_log_number = true;
      }

      if (edit.has_next_file_number_) {
        next_file = edit.next_file_number_;
        have_next_file = true;
      }

      if (edit.has_last_sequence_) {
        last_sequence = edit.last_sequence_;
        have_last_sequence = true;
      }
    }
  }
  file.reset();

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no meta-nextfile entry in descriptor");
    } else if (!have_log_number) {
      s = Status::Corruption("no meta-lognumber entry in descriptor");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence-number entry in descriptor");
    }
  }

  Version* v = new Version(this);
  if (s.ok()) s = builder.SaveTo(v);
  if (!s.ok()) {
    obs::Log(info_log_, "MANIFEST %s rejected: %s", dscname.c_str(),
             s.ToString().c_str());
    delete v;
  } else {
    // Install recovered version.
    Finalize(v);
    AppendVersion(v);
    manifest_file_number_ = next_file;
    next_file_number_ = next_file + 1;
    last_sequence_ = last_sequence;
    log_number_ = log_number;
  }

  return s;
}

void VersionSet::Finalize(Version* v) {
  // Precompute the best level for the next compaction (picker.cc).
  picker_.ComputeScore(v);
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  // Save metadata.
  VersionEdit edit;
  edit.SetComparatorName(icmp_.user_comparator()->Name());

  // Save compaction pointers.
  for (int level = 0; level < config::kNumLevels; level++) {
    if (!compact_pointer_[level].empty()) {
      InternalKey key;
      key.DecodeFrom(compact_pointer_[level]);
      edit.SetCompactPointer(level, key);
    }
  }

  // Save files.
  for (int level = 0; level < config::kNumLevels; level++) {
    for (const FileMetaData* f : current_->files_[level]) {
      edit.AddFile(level, f->number, f->file_size, f->smallest, f->largest);
    }
  }

  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(record);
}

int VersionSet::NumLevelFiles(int level) const {
  assert(level >= 0);
  assert(level < config::kNumLevels);
  return static_cast<int>(current_->files_[level].size());
}

int64_t VersionSet::NumLevelBytes(int level) const {
  assert(level >= 0);
  assert(level < config::kNumLevels);
  return TotalFileSize(current_->files_[level]);
}

// Stores the minimal range that covers all entries in inputs in
// *smallest, *largest.
// REQUIRES: inputs is not empty.
void VersionSet::GetRange(const std::vector<FileMetaData*>& inputs,
                          InternalKey* smallest, InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    FileMetaData* f = inputs[i];
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_.Compare(f->smallest, *smallest) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_.Compare(f->largest, *largest) > 0) {
        *largest = f->largest;
      }
    }
  }
}

// Stores the minimal range that covers all entries in inputs1 and inputs2
// in *smallest, *largest.
// REQUIRES: inputs is not empty.
void VersionSet::GetRange2(const std::vector<FileMetaData*>& inputs1,
                           const std::vector<FileMetaData*>& inputs2,
                           InternalKey* smallest, InternalKey* largest) {
  std::vector<FileMetaData*> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  for (Version* v = dummy_versions_.next_; v != &dummy_versions_;
       v = v->next_) {
    for (int level = 0; level < config::kNumLevels; level++) {
      for (const FileMetaData* f : v->files_[level]) {
        live->insert(f->number);
      }
    }
  }
}

std::string VersionSet::LevelSummary() const {
  std::string result = "files[";
  for (int level = 0; level < config::kNumLevels; level++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), " %d",
                  static_cast<int>(current_->files_[level].size()));
    result.append(buf);
  }
  result.append(" ]");
  return result;
}

uint64_t VersionSet::ApproximateOffsetOf(Version* v, const InternalKey& ikey) {
  uint64_t result = 0;
  for (int level = 0; level < config::kNumLevels; level++) {
    for (FileMetaData* f : v->files_[level]) {
      if (icmp_.Compare(f->largest, ikey) <= 0) {
        // Entire file is before "ikey", so just add the file size.
        result += f->file_size;
      } else if (icmp_.Compare(f->smallest, ikey) > 0) {
        // Entire file is after "ikey", so ignore it. For non-overlapping
        // levels, all later files are also after "ikey".
        if (level > 0) {
          break;
        }
      } else {
        // "ikey" falls in the range for this table. Add the approximate
        // offset of "ikey" within the table.
        std::shared_ptr<Table> table;
        Status s = table_cache_->GetTable(f->number, f->file_size, &table);
        if (s.ok()) {
          result += table->ApproximateOffsetOf(ikey.Encode());
        }
      }
    }
  }
  return result;
}

Compaction* VersionSet::PickCompaction() {
  // Delegate file selection to the policy (picker.cc).
  return picker_.Pick(this);
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  InternalKey smallest, largest;
  GetRange(c->inputs_[0], &smallest, &largest);

  current_->GetOverlappingInputs(level + 1, &smallest, &largest,
                                 &c->inputs_[1]);

  // Get entire range covered by compaction.
  InternalKey all_start, all_limit;
  GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);

  // See if we can grow the number of inputs in "level" without changing
  // the number of "level+1" files we pick up.
  if (!c->inputs_[1].empty()) {
    std::vector<FileMetaData*> expanded0;
    current_->GetOverlappingInputs(level, &all_start, &all_limit, &expanded0);
    const int64_t inputs1_size = TotalFileSize(c->inputs_[1]);
    const int64_t expanded0_size = TotalFileSize(expanded0);
    if (expanded0.size() > c->inputs_[0].size() &&
        inputs1_size + expanded0_size <
            ExpandedCompactionByteSizeLimit(options_)) {
      InternalKey new_start, new_limit;
      GetRange(expanded0, &new_start, &new_limit);
      std::vector<FileMetaData*> expanded1;
      current_->GetOverlappingInputs(level + 1, &new_start, &new_limit,
                                     &expanded1);
      if (expanded1.size() == c->inputs_[1].size()) {
        smallest = new_start;
        largest = new_limit;
        c->inputs_[0] = expanded0;
        c->inputs_[1] = expanded1;
        GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
      }
    }
  }

  // Update the place where we will do the next compaction for this level.
  // We update this immediately instead of waiting for the VersionEdit to
  // be applied so that if the compaction fails, we will try a different
  // key range next time.
  compact_pointer_[level] = largest.Encode().ToString();
  c->edit_.SetCompactPointer(level, largest);
}

Compaction* VersionSet::CompactRange(int level, const InternalKey* begin,
                                     const InternalKey* end) {
  std::vector<FileMetaData*> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }

  // Avoid compacting too much in one shot in case the range is large.
  // But we cannot do this for overlapping levels (level-0, and every
  // level under tiered/lazy styles) since we must not pick one file and
  // drop another older file if the two files overlap —
  // GetOverlappingInputs already took the transitive closure there.
  if (level > 0 && !overlapping_levels_) {
    const uint64_t limit = MaxFileSizeForLevel(level);
    uint64_t total = 0;
    for (size_t i = 0; i < inputs.size(); i++) {
      uint64_t s = inputs[i]->file_size;
      total += s;
      if (total >= limit) {
        inputs.resize(i + 1);
        break;
      }
    }
  }

  Compaction* c = new Compaction(options_, level, level + 1);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

Compaction::Compaction(const Options* options, int level, int output_level)
    : level_(level),
      output_level_(output_level),
      max_output_file_size_(options->max_file_size),
      input_version_(nullptr) {}

Compaction::~Compaction() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

uint64_t Compaction::TotalInputBytes() const {
  uint64_t total = 0;
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* f : inputs_[which]) {
      total += f->file_size;
    }
  }
  return total;
}

double Compaction::predicted_write_amp() const {
  const int64_t in0 = TotalFileSize(inputs_[0]);
  if (in0 <= 0) return 1.0;
  return static_cast<double>(TotalInputBytes()) / static_cast<double>(in0);
}

bool Compaction::IsTrivialMove() const {
  const VersionSet* vset = input_version_->vset_;
  if (!(num_input_files(0) == 1 && num_input_files(1) == 0)) {
    return false;
  }
  // A self-merge (tiered last level) always rewrites; never a move.
  if (output_level_ == level_) {
    return false;
  }
  // Avoid a move if there is lots of overlapping grandparent data.
  // Otherwise, the move could create a parent file that will require a
  // very expensive merge later on.
  if (output_level_ + 1 < config::kNumLevels) {
    std::vector<FileMetaData*> grandparents;
    input_version_->GetOverlappingInputs(output_level_ + 1,
                                         &inputs_[0][0]->smallest,
                                         &inputs_[0][0]->largest,
                                         &grandparents);
    if (TotalFileSize(grandparents) >
        MaxGrandParentOverlapBytes(vset->options_)) {
      return false;
    }
  }
  return true;
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* f : inputs_[which]) {
      edit->RemoveFile(which == 0 ? level_ : output_level_, f->number);
    }
  }
}

bool Compaction::IsInputFile(const FileMetaData* f) const {
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* in : inputs_[which]) {
      if (in->number == f->number) return true;
    }
  }
  return false;
}

bool Compaction::RangeIsBaseLevel(const Slice* lo_user_key,
                                  const Slice* hi_user_key) const {
  const bool overlapping = input_version_->vset_->overlapping_levels_;
  const int first = overlapping ? output_level_ : output_level_ + 1;
  const Comparator* ucmp = input_version_->vset_->icmp_.user_comparator();
  for (int lvl = first; lvl < config::kNumLevels; lvl++) {
    for (const FileMetaData* f : input_version_->files_[lvl]) {
      // This job's own inputs at the output level do not count as data
      // "below" the output — they are being rewritten right now.
      if (overlapping && IsInputFile(f)) continue;
      if (AfterFile(ucmp, lo_user_key, f) ||
          BeforeFile(ucmp, hi_user_key, f)) {
        continue;  // resident file entirely outside [lo,hi]
      }
      return false;
    }
  }
  return true;
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

Status CreateManifest(Env* env, const std::string& dbname,
                      uint64_t manifest_number, const VersionEdit& edit) {
  const std::string manifest = DescriptorFileName(dbname, manifest_number);
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(manifest, &file);
  if (!s.ok()) return s;
  {
    log::Writer log(file.get());
    std::string record;
    edit.EncodeTo(&record);
    s = log.AddRecord(record);
  }
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (s.ok()) s = SetCurrentFile(env, dbname, manifest_number);
  if (!s.ok()) env->RemoveFile(manifest);
  return s;
}

}  // namespace pipelsm
