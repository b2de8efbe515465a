// File naming scheme within a DB directory:
//   <dbname>/<number>.log      — WAL
//   <dbname>/<number>.pst      — SSTable
//   <dbname>/<number>.vlog     — value-log segment (docs/VALUE_LOG.md)
//   <dbname>/MANIFEST-<number> — version log
//   <dbname>/CURRENT           — points at the live MANIFEST
//   <dbname>/<number>.dbtmp    — temporary files
//   <dbname>/LOG, LOG.old      — info log (current and previous run)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

namespace obs {
class Logger;
}  // namespace obs

enum FileType {
  kLogFile,
  kDBLockFile,
  kTableFile,
  kDescriptorFile,
  kCurrentFile,
  kTempFile,
  kVlogFile,
};

std::string LogFileName(const std::string& dbname, uint64_t number);
std::string TableFileName(const std::string& dbname, uint64_t number);
std::string VlogFileName(const std::string& dbname, uint64_t number);
std::string DescriptorFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);
std::string TempFileName(const std::string& dbname, uint64_t number);
std::string InfoLogFileName(const std::string& dbname);
std::string OldInfoLogFileName(const std::string& dbname);

// If filename is a pipelsm file, store its type in *type, its number in
// *number (0 for CURRENT), and return true.
bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type);

// Make CURRENT point at the descriptor file with the given number.
Status SetCurrentFile(Env* env, const std::string& dbname,
                      uint64_t descriptor_number);

// Open a fresh info log at InfoLogFileName(dbname), creating the
// directory if needed and keeping the previous run's LOG as LOG.old.
// DBImpl, ShardedDB (for the fleet root) and RepairDB all open their
// LOG through this.
Status OpenInfoLog(Env* env, const std::string& dbname,
                   std::unique_ptr<obs::Logger>* result);

}  // namespace pipelsm
