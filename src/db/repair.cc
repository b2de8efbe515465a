#include "src/db/repair.h"

#include <memory>
#include <vector>

#include "src/db/builder.h"
#include "src/db/dbformat.h"
#include "src/db/filename.h"
#include "src/db/table_cache.h"
#include "src/db/write_batch.h"
#include "src/memtable/memtable.h"
#include "src/obs/logger.h"
#include "src/table/table.h"
#include "src/version/version_edit.h"
#include "src/vlog/vlog.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

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
    table_options_.block_size = options.block_size;
    table_options_.compression = options.compression;
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
      RecoverValueLog();
      ConvertLogFilesToTables();
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
        if (type == kDescriptorFile) {
          manifests_.push_back(filename);
        } else {
          if (number + 1 > next_file_number_) {
            next_file_number_ = number + 1;
          }
          if (type == kLogFile) {
            logs_.push_back(number);
          } else if (type == kTableFile) {
            table_numbers_.push_back(number);
          } else if (type == kVlogFile) {
            saw_vlog_ = true;
          }
          // kTempFile / kCurrentFile are regenerated or ignored.
          // kVlogFile segments stay in place: bumping next_file_number_
          // past them (above) prevents number reuse, and the next open
          // re-adopts them so rebuilt pointer entries keep resolving.
        }
      }
    }
    return Status::OK();
  }

  // Recovers the value log as DB::Open does, so log conversion stops at
  // the same record WAL replay would: the first one whose value frames
  // did not survive. Without it (an unreadable segment) logs convert
  // whole, and such pointers resolve as errors.
  void RecoverValueLog() {
    if (options_.value_separation_threshold == 0 && !saw_vlog_) return;
    vlog_ = std::make_unique<vlog::VlogManager>(
        env_, dbname_, vlog::VlogOptions(), nullptr, info_log_,
        [this] { return next_file_number_++; });
    uint64_t max_recovered = 0;
    Status s = vlog_->Recover(&max_recovered);
    if (!s.ok()) {
      obs::Log(info_log_, "repair: value log not recovered: %s",
               s.ToString().c_str());
      vlog_.reset();
    }
  }

  void ConvertLogFilesToTables() {
    for (uint64_t log_number : logs_) {
      std::string logname = LogFileName(dbname_, log_number);
      Status status = ConvertLogToTable(log_number);
      if (!status.ok()) {
        obs::Log(info_log_, "repair: log #%llu ignored: %s",
                 static_cast<unsigned long long>(log_number),
                 status.ToString().c_str());
      }
      // The log is consumed (or unreadable) either way.
      env_->RemoveFile(logname);
    }
  }

  Status ConvertLogToTable(uint64_t log_number) {
    struct LogReporter : public log::Reader::Reporter {
      obs::Logger* info_log;
      uint64_t lognum;
      void Corruption(size_t bytes, const Status& s) override {
        obs::Log(info_log, "repair: log #%llu dropping %d bytes: %s",
                 static_cast<unsigned long long>(lognum),
                 static_cast<int>(bytes), s.ToString().c_str());
      }
    };

    // Open the log file.
    std::string logname = LogFileName(dbname_, log_number);
    std::unique_ptr<SequentialFile> lfile;
    Status status = env_->NewSequentialFile(logname, &lfile);
    if (!status.ok()) return status;

    LogReporter reporter;
    reporter.info_log = info_log_;
    reporter.lognum = log_number;
    // Keep reading even if we hit corruptions: salvage what we can.
    log::Reader reader(lfile.get(), &reporter, false /*do not checksum*/, 0);

    // Replay into a memtable.
    std::string scratch;
    Slice record;
    WriteBatch batch;
    MemTable* mem = new MemTable(icmp_);
    mem->Ref();
    int counter = 0;
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) {
        reporter.Corruption(record.size(),
                            Status::Corruption("log record too small"));
        continue;
      }
      WriteBatchInternal::SetContents(&batch, record);
      if (vlog_ != nullptr && !vlog_->PointersRecovered(batch)) {
        obs::Log(info_log_,
                 "repair: log #%llu stops at sequence %llu: value frame "
                 "not recovered",
                 static_cast<unsigned long long>(log_number),
                 static_cast<unsigned long long>(
                     WriteBatchInternal::Sequence(&batch)));
        break;
      }
      status = WriteBatchInternal::InsertInto(&batch, mem);
      if (status.ok()) {
        counter += WriteBatchInternal::Count(&batch);
        const SequenceNumber last =
            WriteBatchInternal::Sequence(&batch) +
            WriteBatchInternal::Count(&batch) - 1;
        if (last > max_sequence_) max_sequence_ = last;
      } else {
        obs::Log(info_log_, "repair: log #%llu ignoring bad batch: %s",
                 static_cast<unsigned long long>(log_number),
                 status.ToString().c_str());
        status = Status::OK();  // Keep going with rest of file
      }
    }
    lfile.reset();

    // Dump the memtable to a new table file.
    FileMetaData meta;
    meta.number = next_file_number_++;
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    status = BuildTable(dbname_, env_, table_options_, table_cache_.get(),
                        iter.get(), &meta);
    iter.reset();
    mem->Unref();
    if (status.ok() && meta.file_size > 0) {
      table_numbers_.push_back(meta.number);
      obs::Log(info_log_, "repair: log #%llu -> table #%llu (%d entries)",
               static_cast<unsigned long long>(log_number),
               static_cast<unsigned long long>(meta.number), counter);
    }
    return status;
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

    const uint64_t manifest_number = next_file_number_++;
    const std::string manifest = DescriptorFileName(dbname_, manifest_number);
    std::unique_ptr<WritableFile> file;
    Status status = env_->NewWritableFile(manifest, &file);
    if (!status.ok()) return status;
    {
      log::Writer log(file.get());
      std::string record;
      edit.EncodeTo(&record);
      status = log.AddRecord(record);
    }
    if (status.ok()) status = file->Sync();
    if (status.ok()) status = file->Close();
    if (!status.ok()) {
      env_->RemoveFile(manifest);
      return status;
    }

    // Discard the stale manifests and point CURRENT at the new one.
    for (const std::string& old : manifests_) {
      env_->RemoveFile(dbname_ + "/" + old);
    }
    return SetCurrentFile(env_, dbname_, manifest_number);
  }

  const std::string dbname_;
  Env* const env_;
  InternalKeyComparator icmp_;
  const Options options_;
  TableOptions table_options_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<obs::Logger> owned_info_log_;
  obs::Logger* info_log_ = nullptr;
  bool saw_vlog_ = false;
  std::unique_ptr<vlog::VlogManager> vlog_;

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
