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
#include <vector>

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
// PCP. The online advisor (src/obs/advisor.h), the adaptive compaction
// scheduler (src/compaction/scheduler.h) and the fleet arbiter
// (src/shard/arbiter.h) all take it from Prescribe(), so report and
// control loop can never disagree.
struct Prescription {
  CompactionMode procedure = CompactionMode::kPCP;
  int k = 1;                 // stripe width (S-PPCP) or workers (C-PPCP)
  bool cpu_bound = false;    // IsCpuBound(t) at evaluation time
  double gain_vs_pcp = 1.0;  // ideal speedup over Eq. 2 (1.0: PCP, SCP)
  const char* reason = "";   // one-line rationale, static storage
};

// A stage-parallel procedure (S-PPCP/C-PPCP) is only worth its extra
// lanes or workers when its ideal gain over PCP (Eqs. 5/7) reaches this
// factor; below it the model says added parallelism is churn.
constexpr double kMinParallelGain = 1.1;

// Below this Eq. 3 ideal speedup pipelining overlaps essentially nothing
// (one stage is the whole job) and only pays queue handoffs, so the
// sequential procedure (Eq. 1) is prescribed instead.
constexpr double kMinPipelineGain = 1.02;

// Evaluates Eqs. 1-7 on `t` and picks the procedure §III-C prescribes:
// SCP when Eq. 3 falls under kMinPipelineGain; otherwise a compute
// bottleneck wants C-PPCP at its Eq. 6 saturation k, capped at
// `max_workers`, and an I/O bottleneck wants S-PPCP at its Eq. 4
// saturation k, capped at `max_lanes` (a cap <= 0 is no cap). The gain
// is evaluated at the capped k, and a parallel variant whose gain does
// not reach kMinParallelGain falls back to plain PCP, so an out-of-reach
// saturation point cannot justify a switch.
Prescription Prescribe(const StepTimes& t, int max_lanes = 0,
                       int max_workers = 0);

// Fleet-wide resource pool the arbiter divides among concurrent
// compactions. A lane is one unit of I/O parallelism (a stripe device in
// Eq. 4 terms); a worker is one unit of compute parallelism (a core in
// Eq. 6 terms). Every admitted job holds at least one of each — PCP is a
// 1-lane/1-worker pipeline — so min(io_lanes, compute_workers) bounds the
// number of jobs that can run at once.
struct FleetBudget {
  int io_lanes = 4;
  int compute_workers = 4;
};

// One job's share of the fleet budget. `lanes`/`workers` are the units
// the job holds (k = max of the two; the non-upgraded dimension stays 1).
struct FleetAllocation {
  Prescription prescription;
  int lanes = 1;
  int workers = 1;
};

// Generalizes Prescribe() to K concurrent jobs competing for one
// FleetBudget. Every job first gets the Eq. 2 floor (1 lane + 1 worker;
// SCP instead if Eq. 3 falls under kMinPipelineGain). Remaining units go one
// at a time to the job whose next unit buys the largest marginal Eq. 4 /
// Eq. 6 bandwidth gain — I/O-bound jobs compete for lanes (S-PPCP),
// CPU-bound jobs for workers (C-PPCP). A job whose final allocation does
// not beat PCP by kMinParallelGain is demoted back to the floor and its
// units redistributed. If jobs.size() exceeds the budget's job bound the
// overflow entries get k=0 allocations (caller must queue them).
std::vector<FleetAllocation> PrescribeFleet(const std::vector<StepTimes>& jobs,
                                            const FleetBudget& budget);

std::string Describe(const StepTimes& t);

}  // namespace pipelsm::model
