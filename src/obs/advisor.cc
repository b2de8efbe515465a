#include "src/obs/advisor.h"

#include <algorithm>
#include <cmath>

#include "src/util/json_writer.h"

namespace pipelsm::obs {

namespace {

double ToMbps(double bps) { return bps / (1024.0 * 1024.0); }

}  // namespace

BottleneckAdvisor::BottleneckAdvisor(int max_lanes, int max_workers,
                                     double decay)
    : max_lanes_(max_lanes),
      max_workers_(max_workers),
      decay_(std::clamp(decay, 1e-3, 1.0)) {}

void BottleneckAdvisor::AddJob(const StepProfile& profile) {
  if (profile.subtasks == 0 || profile.wall_nanos == 0) return;
  const model::StepTimes sample = model::StepTimes::FromProfile(profile);
  const double wall_bps = profile.WallBandwidth();
  const double seq_bps = profile.SequentialBandwidth();

  std::lock_guard<std::mutex> lock(mu_);
  if (jobs_ == 0) {
    ema_ = sample;
    measured_wall_bps_ = wall_bps;
    measured_seq_bps_ = seq_bps;
  } else {
    const double keep = 1.0 - decay_;
    for (int i = 0; i < kNumSteps; i++) {
      ema_.seconds[i] = keep * ema_.seconds[i] + decay_ * sample.seconds[i];
    }
    ema_.subtask_bytes =
        keep * ema_.subtask_bytes + decay_ * sample.subtask_bytes;
    measured_wall_bps_ = keep * measured_wall_bps_ + decay_ * wall_bps;
    measured_seq_bps_ = keep * measured_seq_bps_ + decay_ * seq_bps;
  }
  jobs_++;
}

uint64_t BottleneckAdvisor::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_;
}

model::StepTimes BottleneckAdvisor::Profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ema_;
}

const char* BottleneckAdvisor::RegimeOf(uint64_t jobs,
                                        const model::StepTimes& t) {
  if (jobs == 0) return "none";
  return model::IsCpuBound(t) ? "cpu-bound" : "io-bound";
}

const char* BottleneckAdvisor::Regime() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RegimeOf(jobs_, ema_);
}

std::string BottleneckAdvisor::ToJson() const {
  model::StepTimes t;
  uint64_t jobs;
  double wall_bps, seq_bps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = ema_;
    jobs = jobs_;
    wall_bps = measured_wall_bps_;
    seq_bps = measured_seq_bps_;
  }

  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("jobs").Uint(jobs);
  if (jobs == 0) {
    w.Key("note").String("no completed compactions yet").EndObject();
    return out;
  }

  const double read = t.read(), compute = t.compute(), write = t.write();
  // The Eq. 2 max{} argument, named: which stage limits the pipeline.
  const char* bottleneck = "read";
  if (compute >= read && compute >= write) {
    bottleneck = "compute";
  } else if (write >= read && write >= compute) {
    bottleneck = "write";
  }
  // A denormal device profile (zero bandwidth) can produce inf/NaN
  // ratios below; the writer prints those as 0.
  w.Key("subtask_bytes").Double(t.subtask_bytes, 0);
  w.Key("step_ms").BeginObject().Key("read").Double(read * 1e3, 3);
  w.Key("compute").Double(compute * 1e3, 3);
  w.Key("write").Double(write * 1e3, 3).EndObject();
  w.Key("bottleneck").String(bottleneck);
  w.Key("regime").String(RegimeOf(jobs, t));

  // Predictions: Eqs. 1/2 directly; Eqs. 4/6 at the smallest k that
  // saturates (§III-C) — beyond it, added parallelism buys nothing.
  const int sppcp_k = model::SppcpSaturationDisks(t);
  const int cppcp_k = model::CppcpSaturationThreads(t);
  w.Key("predicted_mbps").BeginObject();
  w.Key("scp").Double(ToMbps(model::ScpBandwidth(t)), 3);
  w.Key("pcp").Double(ToMbps(model::PcpBandwidth(t)), 3);
  w.Key("sppcp").BeginObject().Key("k").Int(sppcp_k);
  w.Key("mbps").Double(ToMbps(model::SppcpBandwidth(t, sppcp_k)), 3);
  w.EndObject();
  w.Key("cppcp").BeginObject().Key("k").Int(cppcp_k);
  w.Key("mbps").Double(ToMbps(model::CppcpBandwidth(t, cppcp_k)), 3);
  w.EndObject().EndObject();

  w.Key("measured_mbps").BeginObject();
  w.Key("wall").Double(ToMbps(wall_bps), 3);
  w.Key("sequential").Double(ToMbps(seq_bps), 3).EndObject();
  // How far the Eq. 2 prediction sits from the bandwidth the pipelined
  // executor actually achieved (the paper reports ~10%).
  const double pcp_pred = model::PcpBandwidth(t);
  w.Key("pcp_model_error_pct")
      .Double(wall_bps > 0 ? std::fabs(pcp_pred - wall_bps) / wall_bps * 100.0
                           : 0.0,
              1);

  // §III-C prescription: add parallelism to the limiting stage, capped
  // at the engine's limits, or fall back to PCP / SCP when that buys
  // nothing. The adaptive compaction scheduler (src/compaction/
  // scheduler.h) calls the same model::Prescribe with the same caps, so
  // this report IS the control loop's target.
  const model::Prescription rec =
      model::Prescribe(t, max_lanes_, max_workers_);
  w.Key("recommendation").BeginObject();
  w.Key("procedure").String(CompactionModeName(rec.procedure));
  w.Key("k").Int(rec.k);
  w.Key("ideal_speedup_vs_pcp").Double(rec.gain_vs_pcp, 2);
  w.Key("reason").String(rec.reason);
  w.EndObject().EndObject();
  return out;
}

}  // namespace pipelsm::obs
