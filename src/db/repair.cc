#include "src/db/repair.h"

#include <memory>
#include <vector>

#include "src/db/dbformat.h"
#include "src/db/filename.h"
#include "src/db/table_cache.h"
#include "src/obs/logger.h"
#include "src/table/table.h"
#include "src/version/version_edit.h"
#include "src/version/version_set.h"

namespace pipelsm {

namespace {

class Repairer {
 public:
  Repairer(const std::string& dbname, const Options& options)
      : dbname_(dbname),
        env_(options.env != nullptr ? options.env : Env::Posix()),
        icmp_(options.comparator != nullptr ? options.comparator
                                            : BytewiseComparator()),
        options_(options),
        next_file_number_(1) {
    table_options_.comparator = &icmp_;
    table_cache_.reset(new TableCache(dbname_, table_options_, env_, 100));
  }

  Status Run() {
    Status status = FindFiles();
    if (status.ok()) {
      // Messages go to the caller's sink, or to the repaired DB's own LOG
      // (which the next open rotates to LOG.old).
      info_log_ = options_.info_log;
      if (info_log_ == nullptr &&
          OpenInfoLog(env_, dbname_, &owned_info_log_).ok()) {
        info_log_ = owned_info_log_.get();
      }
      CheckLogFiles();
      ExtractMetaData();
      status = WriteDescriptor();
    }
    if (status.ok()) {
      uint64_t bytes = 0;
      for (const TableInfo& t : tables_) {
        bytes += t.meta.file_size;
      }
      obs::Log(info_log_,
               "repair: recovered %d tables (%.1f MB), max sequence %llu",
               static_cast<int>(tables_.size()), bytes / 1048576.0,
               static_cast<unsigned long long>(max_sequence_));
    }
    return status;
  }

 private:
  struct TableInfo {
    FileMetaData meta;
    SequenceNumber max_sequence = 0;
  };

  Status FindFiles() {
    std::vector<std::string> filenames;
    Status status = env_->GetChildren(dbname_, &filenames);
    if (!status.ok()) return status;
    if (filenames.empty()) {
      return Status::IOError(dbname_, "repair found no files");
    }

    uint64_t number;
    FileType type;
    for (const std::string& filename : filenames) {
      if (ParseFileName(filename, &number, &type)) {
        // Past every file, stale MANIFESTs too, so the new MANIFEST
        // overwrites none of the files it replaces.
        if (number + 1 > next_file_number_) {
          next_file_number_ = number + 1;
        }
        if (type == kDescriptorFile) {
          manifests_.push_back(filename);
        } else if (type == kLogFile) {
          logs_.push_back(number);
        } else if (type == kTableFile) {
          table_numbers_.push_back(number);
        }
        // kTempFile / kCurrentFile are regenerated or ignored.
        // kVlogFile segments stay in place: bumping next_file_number_
        // past them (above) prevents number reuse, and the next open
        // re-adopts them so rebuilt pointer entries keep resolving.
      }
    }
    return Status::OK();
  }

  // The logs stay for the next DB::Open to replay (the new MANIFEST's log
  // number is 0); only a log that cannot be opened, which would fail that
  // open, is reported and removed here.
  void CheckLogFiles() {
    for (uint64_t log_number : logs_) {
      const std::string logname = LogFileName(dbname_, log_number);
      std::unique_ptr<SequentialFile> file;
      Status status = env_->NewSequentialFile(logname, &file);
      if (!status.ok()) {
        obs::Log(info_log_, "repair: log #%llu ignored: %s",
                 static_cast<unsigned long long>(log_number),
                 status.ToString().c_str());
        env_->RemoveFile(logname);
      }
    }
  }

  void ExtractMetaData() {
    for (uint64_t number : table_numbers_) {
      TableInfo t;
      t.meta.number = number;
      Status status = ScanTable(&t);
      if (status.ok()) {
        tables_.push_back(t);
      } else {
        // Unreadable: drop it (repair is best-effort).
        obs::Log(info_log_, "repair: table #%llu dropped: %s",
                 static_cast<unsigned long long>(number),
                 status.ToString().c_str());
        env_->RemoveFile(TableFileName(dbname_, number));
        table_cache_->Evict(number);
      }
    }
  }

  Status ScanTable(TableInfo* t) {
    std::string fname = TableFileName(dbname_, t->meta.number);
    Status status = env_->GetFileSize(fname, &t->meta.file_size);
    if (!status.ok()) return status;

    // Walk every entry, validating as we go; the first corruption aborts
    // the table (a partial table would need block-level salvage, which
    // the trailer CRCs make detectable but which we do not attempt).
    std::shared_ptr<Table> table;
    status = table_cache_->GetTable(t->meta.number, t->meta.file_size, &table);
    if (!status.ok()) return status;

    std::unique_ptr<Iterator> iter(table->NewIterator(TableReadOptions()));
    int counter = 0;
    bool empty = true;
    ParsedInternalKey parsed;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      Slice key = iter->key();
      if (!ParseInternalKey(key, &parsed)) {
        return Status::Corruption("unparsable key in table");
      }
      counter++;
      if (empty) {
        empty = false;
        t->meta.smallest.DecodeFrom(key);
      }
      t->meta.largest.DecodeFrom(key);
      if (parsed.sequence > t->max_sequence) {
        t->max_sequence = parsed.sequence;
      }
    }
    if (!iter->status().ok()) {
      return iter->status();
    }
    if (empty) {
      return Status::Corruption("table has no entries");
    }
    if (t->max_sequence > max_sequence_) {
      max_sequence_ = t->max_sequence;
    }
    obs::Log(info_log_, "repair: table #%llu: %d entries",
             static_cast<unsigned long long>(t->meta.number), counter);
    return Status::OK();
  }

  Status WriteDescriptor() {
    VersionEdit edit;
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    edit.SetLogNumber(0);
    edit.SetNextFile(next_file_number_);
    edit.SetLastSequence(max_sequence_);
    for (const TableInfo& t : tables_) {
      // Everything goes to level 0 (overlap allowed; compaction re-sorts).
      edit.AddFile(0, t.meta.number, t.meta.file_size, t.meta.smallest,
                   t.meta.largest);
    }

    Status status = CreateManifest(env_, dbname_, next_file_number_, edit);
    if (!status.ok()) return status;

    // CURRENT names the new MANIFEST, so the stale ones can go.
    for (const std::string& old : manifests_) {
      env_->RemoveFile(dbname_ + "/" + old);
    }
    return Status::OK();
  }

  const std::string dbname_;
  Env* const env_;
  InternalKeyComparator icmp_;
  const Options options_;
  TableOptions table_options_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<obs::Logger> owned_info_log_;
  obs::Logger* info_log_ = nullptr;

  std::vector<std::string> manifests_;
  std::vector<uint64_t> table_numbers_;
  std::vector<uint64_t> logs_;
  std::vector<TableInfo> tables_;
  uint64_t next_file_number_;
  SequenceNumber max_sequence_ = 0;
};

}  // namespace

Status RepairDB(const std::string& dbname, const Options& options) {
  Repairer repairer(dbname, options);
  return repairer.Run();
}

}  // namespace pipelsm
