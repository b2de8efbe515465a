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

const char* PrescriptionProcedureName(Prescription::Procedure procedure) {
  switch (procedure) {
    case Prescription::kSCP:
      return "SCP";
    case Prescription::kPCP:
      return "PCP";
    case Prescription::kSPPCP:
      return "S-PPCP";
    case Prescription::kCPPCP:
      return "C-PPCP";
  }
  return "unknown";
}

Prescription Prescribe(const StepTimes& t, int max_k) {
  Prescription p;
  p.cpu_bound = IsCpuBound(t);
  const double pcp = PcpBandwidth(t);
  if (p.cpu_bound) {
    p.procedure = Prescription::kCPPCP;
    p.k = CppcpSaturationThreads(t);
    if (max_k > 0) p.k = std::min(p.k, max_k);
    p.gain_vs_pcp = CppcpIdealSpeedup(t, p.k);
    p.reason =
        "compute (S2-S6) limits Eq. 2; Eq. 6 says k compute workers lift "
        "it until I/O saturates";
  } else {
    p.procedure = Prescription::kSPPCP;
    p.k = SppcpSaturationDisks(t);
    if (max_k > 0) p.k = std::min(p.k, max_k);
    p.gain_vs_pcp = SppcpIdealSpeedup(t, p.k);
    p.reason =
        "I/O limits Eq. 2; Eq. 4 says k striped devices lift it until "
        "compute saturates";
  }
  if (p.gain_vs_pcp < kMinParallelGain || pcp <= 0) {
    p.procedure = Prescription::kPCP;
    p.k = 1;
    p.gain_vs_pcp = 1.0;
    p.reason =
        "no stage-parallel variant beats Eq. 2 by the margin; stay on the "
        "3-stage pipeline";
  }
  return p;
}

namespace {

// Bandwidth of one job under its current allocation (Eq. 2/4/6; Eq. 1
// for jobs where pipelining is churn).
double AllocationBandwidth(const StepTimes& t, const FleetAllocation& a) {
  switch (a.prescription.procedure) {
    case Prescription::kSCP:
      return ScpBandwidth(t);
    case Prescription::kSPPCP:
      return SppcpBandwidth(t, a.lanes);
    case Prescription::kCPPCP:
      return CppcpBandwidth(t, a.workers);
    case Prescription::kPCP:
      break;
  }
  return PcpBandwidth(t);
}

void DemoteToFloor(const StepTimes& t, FleetAllocation* a) {
  a->lanes = 1;
  a->workers = 1;
  a->prescription.k = 1;
  if (t.total() <= 0 || PcpIdealSpeedup(t) < 1.02) {
    // Pipelining itself is churn (or the profile is empty): Eq. 1.
    a->prescription.procedure = Prescription::kSCP;
    a->prescription.gain_vs_pcp = 1.0;
    a->prescription.reason =
        "Eq. 3 gain under 2%; the 3-stage pipeline is churn here";
  } else {
    a->prescription.procedure = Prescription::kPCP;
    a->prescription.gain_vs_pcp = 1.0;
    a->prescription.reason =
        "fleet floor: 1 lane + 1 worker runs the Eq. 2 pipeline";
  }
}

}  // namespace

std::vector<FleetAllocation> PrescribeFleet(const std::vector<StepTimes>& jobs,
                                            const FleetBudget& budget) {
  std::vector<FleetAllocation> out(jobs.size());
  const int max_jobs =
      std::max(0, std::min(budget.io_lanes, budget.compute_workers));
  const size_t admitted = std::min(jobs.size(), size_t(max_jobs));

  // Floor pass: every admitted job holds 1 lane + 1 worker; overflow jobs
  // get k=0 so the caller knows to queue them.
  for (size_t i = 0; i < out.size(); i++) {
    if (i < admitted) {
      out[i].prescription.cpu_bound = IsCpuBound(jobs[i]);
      DemoteToFloor(jobs[i], &out[i]);
    } else {
      out[i].lanes = 0;
      out[i].workers = 0;
      out[i].prescription.k = 0;
      out[i].prescription.procedure = Prescription::kPCP;
      out[i].prescription.reason =
          "fleet budget exhausted: min(io_lanes, compute_workers) jobs "
          "already hold their floor";
    }
  }

  // Greedy upgrade pass: hand out remaining units one at a time to the
  // largest marginal bandwidth gain. A job's bottleneck regime fixes the
  // dimension it competes in (Eq. 4 wants lanes, Eq. 6 wants workers);
  // SCP-floored jobs are not upgraded (their pipeline gain is churn).
  std::vector<bool> eligible(admitted);
  for (size_t i = 0; i < admitted; i++) {
    eligible[i] = out[i].prescription.procedure != Prescription::kSCP &&
                  jobs[i].total() > 0;
  }
  while (true) {
    int free_lanes = budget.io_lanes;
    int free_workers = budget.compute_workers;
    for (size_t i = 0; i < admitted; i++) {
      free_lanes -= out[i].lanes;
      free_workers -= out[i].workers;
    }
    while (free_lanes > 0 || free_workers > 0) {
      double best_delta = 0;
      size_t best = admitted;
      bool best_is_lane = false;
      for (size_t i = 0; i < admitted; i++) {
        if (!eligible[i]) continue;
        const double now = AllocationBandwidth(jobs[i], out[i]);
        if (!out[i].prescription.cpu_bound && free_lanes > 0 &&
            out[i].lanes < SppcpSaturationDisks(jobs[i])) {
          const double next = SppcpBandwidth(jobs[i], out[i].lanes + 1);
          if (next - now > best_delta) {
            best_delta = next - now;
            best = i;
            best_is_lane = true;
          }
        }
        if (out[i].prescription.cpu_bound && free_workers > 0 &&
            out[i].workers < CppcpSaturationThreads(jobs[i])) {
          const double next = CppcpBandwidth(jobs[i], out[i].workers + 1);
          if (next - now > best_delta) {
            best_delta = next - now;
            best = i;
            best_is_lane = false;
          }
        }
      }
      if (best == admitted) break;  // nothing left worth a unit
      FleetAllocation& a = out[best];
      if (best_is_lane) {
        a.lanes++;
        free_lanes--;
        a.prescription.procedure = Prescription::kSPPCP;
        a.prescription.k = a.lanes;
        a.prescription.gain_vs_pcp = SppcpIdealSpeedup(jobs[best], a.lanes);
        a.prescription.reason =
            "fleet share of Eq. 4: lanes granted while their marginal "
            "bandwidth led the fleet";
      } else {
        a.workers++;
        free_workers--;
        a.prescription.procedure = Prescription::kCPPCP;
        a.prescription.k = a.workers;
        a.prescription.gain_vs_pcp = CppcpIdealSpeedup(jobs[best], a.workers);
        a.prescription.reason =
            "fleet share of Eq. 6: workers granted while their marginal "
            "bandwidth led the fleet";
      }
    }
    // Demotion pass: an upgrade that did not reach kMinParallelGain
    // returns its units (they may push another job past the bar, so
    // loop).
    bool demoted = false;
    for (size_t i = 0; i < admitted; i++) {
      if (!eligible[i]) continue;
      if (out[i].prescription.procedure == Prescription::kPCP) continue;
      if (out[i].prescription.gain_vs_pcp < kMinParallelGain) {
        DemoteToFloor(jobs[i], &out[i]);
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
