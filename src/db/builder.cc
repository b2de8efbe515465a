#include "src/db/builder.h"

#include "src/db/dbformat.h"
#include "src/db/filename.h"
#include "src/db/table_cache.h"
#include "src/env/env.h"
#include "src/table/table_builder.h"
#include "src/util/stopwatch.h"
#include "src/version/version_edit.h"

namespace pipelsm {

namespace {

// Fires OnFlushBegin (when info != nullptr) and, through Finish(), the
// matching OnFlushCompleted on whatever path the build exits.
class FlushEvents {
 public:
  FlushEvents(const obs::EventListeners* listeners, obs::FlushJobInfo* info,
              const FileMetaData* meta)
      : listeners_(listeners), info_(info), meta_(meta) {
    if (info_ == nullptr) return;
    info_->file_number = meta->number;
    if (listeners_ != nullptr) {
      for (obs::EventListener* l : *listeners_) l->OnFlushBegin(*info_);
    }
  }

  Status Finish(const Status& s, uint64_t entries) {
    if (info_ != nullptr) {
      info_->output_bytes = meta_->file_size;
      info_->entries = entries;
      info_->micros = wall_.ElapsedNanos() / 1000;
      info_->status = s;
      if (listeners_ != nullptr) {
        for (obs::EventListener* l : *listeners_) l->OnFlushCompleted(*info_);
      }
    }
    return s;
  }

 private:
  const obs::EventListeners* const listeners_;
  obs::FlushJobInfo* const info_;
  const FileMetaData* const meta_;
  Stopwatch wall_;
};

}  // namespace

Status BuildTable(const std::string& dbname, Env* env,
                  const TableOptions& table_options, TableCache* table_cache,
                  Iterator* iter, FileMetaData* meta,
                  const obs::EventListeners* listeners,
                  obs::FlushJobInfo* info) {
  Status s;
  meta->file_size = 0;
  iter->SeekToFirst();
  FlushEvents events(listeners, info, meta);
  uint64_t entries = 0;

  std::string fname = TableFileName(dbname, meta->number);
  if (iter->Valid()) {
    std::unique_ptr<WritableFile> file;
    s = env->NewWritableFile(fname, &file);
    if (!s.ok()) {
      return events.Finish(s, entries);
    }

    TableBuilder builder(table_options, file.get());
    meta->smallest.DecodeFrom(iter->key());
    Slice key;
    for (; iter->Valid(); iter->Next()) {
      key = iter->key();
      builder.Add(key, iter->value());
      entries++;
    }
    if (!key.empty()) {
      meta->largest.DecodeFrom(key);
    }

    // Finish and check for builder errors.
    s = builder.Finish();
    if (s.ok()) {
      meta->file_size = builder.FileSize();
      assert(meta->file_size > 0);
    }

    // Finish and check for file errors.
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }

    if (s.ok()) {
      // Verify that the table is usable.
      std::shared_ptr<Table> table;
      s = table_cache->GetTable(meta->number, meta->file_size, &table);
    }
  }

  // Check for input iterator errors.
  if (!iter->status().ok()) {
    s = iter->status();
  }

  if (s.ok() && meta->file_size > 0) {
    // Keep it.
  } else {
    env->RemoveFile(fname);
  }
  return events.Finish(s, entries);
}

}  // namespace pipelsm
