// Logger: the DB's info log (the `LOG` file in the DB directory), the
// one place every engine message goes.
//
// It is per-DB and Env-backed: on a SimEnv the LOG lands in the
// simulated filesystem alongside the SSTables it describes; on the posix
// Env it is a real file an operator can tail. DBImpl auto-creates one
// under the DB dir (OpenInfoLog in src/db/filename.h, rotating the
// previous run's to LOG.old) unless Options::info_log supplies a custom
// sink.
//
// Line format (docs/OBSERVABILITY.md "Info log"):
//   <micros-since-open> <message>
// where structured events use one-line `EVENT <name> key=value ...`
// messages so the file stays grep/awk-able.
#pragma once

#include <cstdarg>
#include <memory>
#include <mutex>
#include <string>

#include "src/env/env.h"
#include "src/util/status.h"

namespace pipelsm::obs {

class Logger {
 public:
  virtual ~Logger();

  // Writes one log line (a '\n' is appended if missing). Thread-safe.
  virtual void Logv(const char* format, std::va_list ap) = 0;
};

// printf-style frontend; a null logger drops the message, so call sites
// stay unconditional.
void Log(Logger* logger, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

// Logger writing through an Env WritableFile, each line stamped with the
// microseconds since the logger was created. Flushes after every line so
// a crashed process still leaves a complete LOG.
Status NewFileLogger(Env* env, const std::string& fname,
                     std::unique_ptr<Logger>* result);

}  // namespace pipelsm::obs
