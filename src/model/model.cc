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
