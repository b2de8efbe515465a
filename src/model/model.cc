#include "src/model/model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pipelsm::model {

StepTimes StepTimes::FromProfile(const StepProfile& profile) {
  StepTimes t;
  const double n = profile.subtasks > 0 ? double(profile.subtasks) : 1.0;
  for (int i = 0; i < kNumSteps; i++) {
    t.seconds[i] = profile.nanos[i] * 1e-9 / n;
  }
  t.subtask_bytes = profile.input_bytes / n;
  return t;
}

double ScpBandwidth(const StepTimes& t) {
  const double total = t.total();
  return total > 0 ? t.subtask_bytes / total : 0.0;
}

double PcpBandwidth(const StepTimes& t) {
  const double bottleneck = std::max({t.read(), t.compute(), t.write()});
  return bottleneck > 0 ? t.subtask_bytes / bottleneck : 0.0;
}

double PcpIdealSpeedup(const StepTimes& t) {
  const double bottleneck = std::max({t.read(), t.compute(), t.write()});
  return bottleneck > 0 ? t.total() / bottleneck : 0.0;
}

double SppcpBandwidth(const StepTimes& t, int k) {
  if (k < 1) k = 1;
  const double bottleneck =
      std::max({t.read() / k, t.compute(), t.write() / k});
  return bottleneck > 0 ? t.subtask_bytes / bottleneck : 0.0;
}

double SppcpIdealSpeedup(const StepTimes& t, int k) {
  const double pcp = PcpBandwidth(t);
  return pcp > 0 ? SppcpBandwidth(t, k) / pcp : 0.0;
}

double CppcpBandwidth(const StepTimes& t, int k) {
  if (k < 1) k = 1;
  const double bottleneck =
      std::max({t.read(), t.compute() / k, t.write()});
  return bottleneck > 0 ? t.subtask_bytes / bottleneck : 0.0;
}

double CppcpIdealSpeedup(const StepTimes& t, int k) {
  const double pcp = PcpBandwidth(t);
  return pcp > 0 ? CppcpBandwidth(t, k) / pcp : 0.0;
}

int SppcpSaturationDisks(const StepTimes& t) {
  const double compute = t.compute();
  if (compute <= 0) return 1;
  return std::max(
      1, static_cast<int>(
             std::ceil(std::max(t.read(), t.write()) / compute)));
}

int CppcpSaturationThreads(const StepTimes& t) {
  const double io = std::max(t.read(), t.write());
  if (io <= 0) return 1;
  return std::max(1, static_cast<int>(std::ceil(t.compute() / io)));
}

bool IsCpuBound(const StepTimes& t) {
  return t.compute() >= std::max(t.read(), t.write());
}

Prescription Prescribe(const StepTimes& t, int max_workers) {
  Prescription p;
  p.cpu_bound = IsCpuBound(t);
  // Negated so that an empty or garbage (NaN) profile lands here too.
  if (!(PcpIdealSpeedup(t) >= kMinPipelineGain)) {
    p.procedure = CompactionMode::kSCP;
    p.reason =
        "Eq. 3 speedup ~1: one stage is the whole job, pipelining only "
        "pays queue handoffs";
    return p;
  }
  if (!p.cpu_bound) {
    p.reason =
        "I/O limits Eq. 2: run PCP and stripe the device; Eq. 4 says k "
        "disks lift it until compute saturates";
    return p;
  }
  p.procedure = CompactionMode::kCPPCP;
  p.k = CppcpSaturationThreads(t);
  if (max_workers > 0) p.k = std::min(p.k, max_workers);
  p.gain_vs_pcp = CppcpIdealSpeedup(t, p.k);
  p.reason =
      "compute (S2-S6) limits Eq. 2; Eq. 6 says k compute workers lift it "
      "until I/O saturates";
  if (p.gain_vs_pcp < kMinParallelGain || PcpBandwidth(t) <= 0) {
    p.procedure = CompactionMode::kPCP;
    p.k = 1;
    p.gain_vs_pcp = 1.0;
    p.reason =
        "C-PPCP does not beat Eq. 2 by the margin; stay on the 3-stage "
        "pipeline";
  }
  return p;
}

std::vector<FleetAllocation> PrescribeFleet(const std::vector<StepTimes>& jobs,
                                            const FleetBudget& budget) {
  std::vector<FleetAllocation> out(jobs.size());
  const size_t admitted =
      std::min(jobs.size(), size_t(std::max(0, budget.compute_workers)));

  // Floor pass: every admitted job holds 1 worker and runs its 1-worker
  // prescription (PCP, or SCP where pipelining is churn); overflow jobs
  // get k=0 so the caller knows to queue them.
  const auto floor = [&](size_t i) {
    out[i].workers = 1;
    out[i].prescription = Prescribe(jobs[i], 1);
  };
  std::vector<bool> eligible(admitted);
  for (size_t i = 0; i < out.size(); i++) {
    if (i < admitted) {
      floor(i);
      // Only a CPU-bound pipeline has a use for another worker (Eq. 6).
      eligible[i] = out[i].prescription.procedure != CompactionMode::kSCP &&
                    out[i].prescription.cpu_bound;
    } else {
      out[i].workers = 0;
      out[i].prescription.k = 0;
      out[i].prescription.reason =
          "fleet budget exhausted: compute_workers jobs already hold their "
          "floor";
    }
  }

  // Greedy upgrade pass: hand out the remaining workers one at a time to
  // the largest marginal Eq. 6 gain, then demote any job whose share did
  // not reach kMinParallelGain (its workers may push another job past the
  // bar, so loop).
  while (true) {
    int free_workers = budget.compute_workers;
    for (size_t i = 0; i < admitted; i++) free_workers -= out[i].workers;
    while (free_workers > 0) {
      double best_delta = 0;
      size_t best = admitted;
      for (size_t i = 0; i < admitted; i++) {
        if (!eligible[i] ||
            out[i].workers >= CppcpSaturationThreads(jobs[i])) {
          continue;
        }
        const double delta = CppcpBandwidth(jobs[i], out[i].workers + 1) -
                             CppcpBandwidth(jobs[i], out[i].workers);
        if (delta > best_delta) {
          best_delta = delta;
          best = i;
        }
      }
      if (best == admitted) break;  // nothing left worth a worker
      FleetAllocation& a = out[best];
      a.workers++;
      free_workers--;
      a.prescription.procedure = CompactionMode::kCPPCP;
      a.prescription.k = a.workers;
      a.prescription.gain_vs_pcp = CppcpIdealSpeedup(jobs[best], a.workers);
      a.prescription.reason =
          "fleet share of Eq. 6: workers granted while their marginal "
          "bandwidth led the fleet";
    }
    bool demoted = false;
    for (size_t i = 0; i < admitted; i++) {
      if (eligible[i] && out[i].workers > 1 &&
          out[i].prescription.gain_vs_pcp < kMinParallelGain) {
        floor(i);
        eligible[i] = false;
        demoted = true;
      }
    }
    if (!demoted) break;
  }
  return out;
}

std::string Describe(const StepTimes& t) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "steps(ms/subtask): read=%.3f compute=%.3f write=%.3f  "
      "regime=%s  B_scp=%.1f MB/s  B_pcp=%.1f MB/s  ideal_speedup=%.2fx",
      t.read() * 1e3, t.compute() * 1e3, t.write() * 1e3,
      IsCpuBound(t) ? "CPU-bound" : "I/O-bound",
      ScpBandwidth(t) / (1024.0 * 1024.0),
      PcpBandwidth(t) / (1024.0 * 1024.0), PcpIdealSpeedup(t));
  return std::string(buf);
}

}  // namespace pipelsm::model
