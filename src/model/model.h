// The paper's analytic bandwidth model (Equations 1-7, §III).
//
// All functions take the measured per-sub-task step times t_S1..t_S7 (or a
// StepProfile whose averages supply them) and return predicted compaction
// bandwidths / ideal speedups. Benches print these next to the measured
// numbers; the paper reports practical PCP within ~10% of ideal.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/db/options.h"
#include "src/util/stopwatch.h"

namespace pipelsm::model {

// Per-sub-task cost in seconds of each of the seven steps, for sub-tasks
// of `subtask_bytes` input.
struct StepTimes {
  std::array<double, kNumSteps> seconds{};
  double subtask_bytes = 0;

  double read() const { return seconds[kStepRead]; }
  double write() const { return seconds[kStepWrite]; }
  // Sum over the compute steps S2..S6.
  double compute() const {
    return seconds[kStepChecksum] + seconds[kStepDecompress] +
           seconds[kStepSort] + seconds[kStepCompress] +
           seconds[kStepRechecksum];
  }
  double total() const { return read() + compute() + write(); }

  // Average per-sub-task step times out of an executor's StepProfile.
  static StepTimes FromProfile(const StepProfile& profile);
};

// Eq. 1: B_scp = l / sum(t_Si).
double ScpBandwidth(const StepTimes& t);

// Eq. 2: B_pcp = l / max(t_S1, sum(t_S2..S6), t_S7).
double PcpBandwidth(const StepTimes& t);

// Eq. 3: ideal PCP speedup over SCP.
double PcpIdealSpeedup(const StepTimes& t);

// Eq. 4: B_s-ppcp with k devices = l / max(t_S1/k, compute, t_S7/k).
// Reported, not prescribed: S-PPCP is PCP on a k-disk striped Env.
double SppcpBandwidth(const StepTimes& t, int k);

// Eq. 5: ideal S-PPCP speedup over PCP; bounded by
// min(k, max(t_S1,t_S7)/compute).
double SppcpIdealSpeedup(const StepTimes& t, int k);

// Eq. 6: B_c-ppcp with k cores = l / max(t_S1, compute/k, t_S7).
double CppcpBandwidth(const StepTimes& t, int k);

// Eq. 7: ideal C-PPCP speedup over PCP; bounded by
// min(k, compute/max(t_S1,t_S7)).
double CppcpIdealSpeedup(const StepTimes& t, int k);

// Smallest k at which S-PPCP flips from I/O-bound to CPU-bound
// (§III-C.1: k > max(t_S1,t_S7)/compute). Returns >= 1.
int SppcpSaturationDisks(const StepTimes& t);

// Smallest k at which C-PPCP flips from CPU-bound to I/O-bound
// (§III-C.2: k > compute/max(t_S1,t_S7)). Returns >= 1.
int CppcpSaturationThreads(const StepTimes& t);

// True if the pipeline bottleneck is a compute stage (the SSD regime of
// Figure 6(b)); false if it is I/O (the HDD regime of Figure 6(a)).
bool IsCpuBound(const StepTimes& t);

// The paper's §III-C prescription as data: which procedure the measured
// step times call for, at what parallelism, and the ideal gain over plain
// PCP. The compaction controller (src/compaction/scheduler.h), the one
// chooser in every engine, takes both its choice and its advisor report
// from Prescribe(), so report and control loop can never disagree.
struct Prescription {
  CompactionMode procedure = CompactionMode::kPCP;
  int k = 1;                 // compute workers (C-PPCP); 1 otherwise
  bool cpu_bound = false;    // IsCpuBound(t) at evaluation time
  double gain_vs_pcp = 1.0;  // ideal speedup over Eq. 2 (1.0: PCP, SCP)
  const char* reason = "";   // one-line rationale, static storage
};

// C-PPCP is only worth its extra workers when its ideal gain over PCP
// (Eq. 7) reaches this factor; below it the model says added parallelism
// is churn.
constexpr double kMinParallelGain = 1.1;

// Below this Eq. 3 ideal speedup pipelining overlaps essentially nothing
// (one stage is the whole job) and only pays queue handoffs, so the
// sequential procedure (Eq. 1) is prescribed instead.
constexpr double kMinPipelineGain = 1.02;

// Evaluates Eqs. 1-7 on `t` and picks the procedure §III-C prescribes:
// SCP when Eq. 3 falls under kMinPipelineGain; otherwise a compute
// bottleneck wants C-PPCP at its Eq. 6 saturation k, capped at
// `max_workers` (<= 0 is no cap), and falls back to plain PCP when the
// gain at the capped k does not reach kMinParallelGain. An I/O bottleneck
// prescribes PCP: Eq. 4's S-PPCP is PCP on a k-disk striped device, so
// its lever is the Env's stripe, not the job's threads (the reason says
// so; SppcpSaturationDisks(t) is the stripe width it asks for).
Prescription Prescribe(const StepTimes& t, int max_workers = 0);

std::string Describe(const StepTimes& t);

}  // namespace pipelsm::model
