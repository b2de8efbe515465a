#include "src/util/stopwatch.h"

#include <cstdio>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace pipelsm {

uint64_t SleepUntil(std::chrono::steady_clock::time_point deadline) {
#ifdef __linux__
  thread_local const bool slack_set =
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0;
  (void)slack_set;
#endif
  std::this_thread::sleep_until(deadline);
  const auto late = std::chrono::steady_clock::now() - deadline;
  return late.count() > 0
             ? std::chrono::duration_cast<std::chrono::nanoseconds>(late)
                   .count()
             : 0;
}

const char* CompactionStepName(CompactionStep step) {
  switch (step) {
    case kStepRead:
      return "S1.read";
    case kStepChecksum:
      return "S2.checksum";
    case kStepDecompress:
      return "S3.decompress";
    case kStepSort:
      return "S4.sort";
    case kStepCompress:
      return "S5.compress";
    case kStepRechecksum:
      return "S6.re-checksum";
    case kStepWrite:
      return "S7.write";
    default:
      return "unknown";
  }
}

double StepProfile::SequentialBandwidth() const {
  const uint64_t total = TotalStepNanos();
  if (total == 0) return 0.0;
  return static_cast<double>(input_bytes) / (total * 1e-9);
}

double StepProfile::WallBandwidth() const {
  if (wall_nanos == 0) return 0.0;
  return static_cast<double>(input_bytes) / (wall_nanos * 1e-9);
}

std::string StepProfile::ToString() const {
  std::string out;
  char buf[256];
  const double total_ms = TotalStepNanos() * 1e-6;
  for (int i = 0; i < kNumSteps; i++) {
    const double ms = nanos[i] * 1e-6;
    const double pct = total_ms > 0 ? 100.0 * ms / total_ms : 0.0;
    std::snprintf(buf, sizeof(buf), "  %-14s %10.3f ms  (%5.1f%%)  %8.2f MB\n",
                  CompactionStepName(static_cast<CompactionStep>(i)), ms, pct,
                  bytes[i] / (1024.0 * 1024.0));
    out.append(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "  total step time %.3f ms, wall %.3f ms, in %.2f MB, out "
                "%.2f MB, %llu subtasks\n",
                total_ms, wall_nanos * 1e-6, input_bytes / (1024.0 * 1024.0),
                output_bytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(subtasks));
  out.append(buf);
  return out;
}

}  // namespace pipelsm
