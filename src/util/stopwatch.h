// Stopwatch + StepProfile: per-step timing for the seven compaction steps.
//
// Every compaction executor fills a StepProfile with the wall time and byte
// volume of S1..S7 so the breakdown benches (Figs 5/8/9) and the analytic
// model (Eqs 1-7) run off the same measurements. SleepUntil is the one
// modelled wait: a simulated device charge and a slow-motion compute stage
// both end in it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace pipelsm {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // Elapsed time in nanoseconds since construction or last Restart().
  uint64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedSeconds() const { return ElapsedNanos() * 1e-9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Sleeps until `deadline` and returns how many nanoseconds late the thread
// woke (0 if on time). On Linux the first call on a thread sets that
// thread's timer slack to 1 ns, so the kernel wakes it at the deadline
// instead of up to 50 µs (the default slack) after it. Slack is per thread
// and inherited by threads it starts later.
uint64_t SleepUntil(std::chrono::steady_clock::time_point deadline);

// The paper's seven compaction steps (Section II-A).
enum CompactionStep : int {
  kStepRead = 0,        // S1
  kStepChecksum = 1,    // S2
  kStepDecompress = 2,  // S3
  kStepSort = 3,        // S4 (merge)
  kStepCompress = 4,    // S5
  kStepRechecksum = 5,  // S6
  kStepWrite = 6,       // S7
  kNumSteps = 7,
};

const char* CompactionStepName(CompactionStep step);

// Accumulated per-step cost over one or more compactions. Not thread-safe;
// parallel executors accumulate into per-thread profiles and Merge().
struct StepProfile {
  std::array<uint64_t, kNumSteps> nanos{};  // wall time per step
  std::array<uint64_t, kNumSteps> bytes{};  // bytes processed per step
  uint64_t wall_nanos = 0;                  // end-to-end compaction wall time
  uint64_t input_bytes = 0;                 // stored input bytes (the model's l)
  uint64_t output_bytes = 0;                // raw bytes produced
  uint64_t subtasks = 0;

  void AddStep(CompactionStep s, uint64_t ns, uint64_t b) {
    nanos[s] += ns;
    bytes[s] += b;
  }

  void Merge(const StepProfile& o) {
    for (int i = 0; i < kNumSteps; i++) {
      nanos[i] += o.nanos[i];
      bytes[i] += o.bytes[i];
    }
    wall_nanos += o.wall_nanos;
    input_bytes += o.input_bytes;
    output_bytes += o.output_bytes;
    subtasks += o.subtasks;
  }

  // Sum over CPU steps S2..S6 (everything except READ and WRITE).
  uint64_t ComputeNanos() const {
    return nanos[kStepChecksum] + nanos[kStepDecompress] + nanos[kStepSort] +
           nanos[kStepCompress] + nanos[kStepRechecksum];
  }

  uint64_t IoNanos() const { return nanos[kStepRead] + nanos[kStepWrite]; }

  uint64_t TotalStepNanos() const { return ComputeNanos() + IoNanos(); }

  // Compaction bandwidth in bytes/sec over total step time (SCP view).
  double SequentialBandwidth() const;

  // Compaction bandwidth over actual wall time (what a pipelined executor
  // achieves).
  double WallBandwidth() const;

  std::string ToString() const;
};

}  // namespace pipelsm
