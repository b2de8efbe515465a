#include "src/compaction/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/json_writer.h"

namespace pipelsm {

namespace {

// Indexed by CompactionMode; the scheduler never chooses S-PPCP.
constexpr const char* kModeMetricNames[4] = {
    "scheduler.choice.scp", "scheduler.choice.pcp", nullptr,
    "scheduler.choice.cppcp"};

// The weight of the newest job in the decayed profile: 0.3 keeps about
// the last half-dozen jobs relevant.
constexpr double kDecay = 0.3;

double ToMbps(double bps) { return bps / (1024.0 * 1024.0); }

}  // namespace

// Key the vtable here so every TU sharing the interface agrees on one
// definition.
CompactionGovernor::~CompactionGovernor() = default;

CompactionScheduler::CompactionScheduler(const Options& options,
                                         obs::MetricsRegistry* metrics)
    : adaptive_(options.adaptive_compaction),
      max_compute_workers_(std::max(1, options.max_compute_workers)),
      hysteresis_jobs_(std::max(1, options.scheduler_hysteresis_jobs)),
      warmup_jobs_(std::max(0, options.scheduler_warmup_jobs)),
      governor_(options.compaction_governor),
      shard_id_(options.shard_id) {
  current_.mode = options.compaction_mode;
  current_.compute_parallelism = std::max(1, options.compute_parallelism);
  last_rationale_ = adaptive_ ? "no admissions yet"
                              : "adaptive_compaction off; static choice";
  if (metrics == nullptr) metrics = &own_metrics_;
  regime_gauge_ = metrics->RegisterGauge(
      "advisor.regime", "0 none (no job yet), 1 io-bound, 2 cpu-bound");
  decisions_counter_ = metrics->RegisterCounter(
      "scheduler.decisions", "compaction admissions the scheduler ruled on");
  switches_counter_ = metrics->RegisterCounter(
      "scheduler.switches",
      "executor/parallelism changes after the hysteresis window filled");
  for (int m = 0; m < 4; m++) {
    if (kModeMetricNames[m] == nullptr) continue;
    mode_counters_[m] = metrics->RegisterCounter(
        kModeMetricNames[m], std::string("jobs admitted as ") +
                                 CompactionModeName(CompactionMode(m)));
  }
}

void CompactionScheduler::AddJob(const StepProfile& profile) {
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
    const double keep = 1.0 - kDecay;
    for (int i = 0; i < kNumSteps; i++) {
      ema_.seconds[i] = keep * ema_.seconds[i] + kDecay * sample.seconds[i];
    }
    ema_.subtask_bytes =
        keep * ema_.subtask_bytes + kDecay * sample.subtask_bytes;
    measured_wall_bps_ = keep * measured_wall_bps_ + kDecay * wall_bps;
    measured_seq_bps_ = keep * measured_seq_bps_ + kDecay * seq_bps;
  }
  jobs_++;
  regime_gauge_->Set(model::IsCpuBound(ema_) ? 2 : 1);
}

uint64_t CompactionScheduler::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_;
}

model::StepTimes CompactionScheduler::Profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ema_;
}

const char* CompactionScheduler::RegimeOf(uint64_t jobs,
                                          const model::StepTimes& t) {
  if (jobs == 0) return "none";
  return model::IsCpuBound(t) ? "cpu-bound" : "io-bound";
}

const char* CompactionScheduler::Regime() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RegimeOf(jobs_, ema_);
}

CompactionChoice CompactionScheduler::Render(const Choice& choice,
                                             bool adaptive,
                                             double gain) const {
  CompactionChoice c;
  c.mode = choice.mode;
  c.compute_parallelism = choice.compute_parallelism;
  c.adaptive = adaptive;
  c.gain = gain;
  c.rationale = last_rationale_;
  decisions_counter_->Add();
  if (obs::Counter* mode = mode_counters_[int(choice.mode)]) mode->Add();
  return c;
}

CompactionChoice CompactionScheduler::Choose(const model::StepTimes& profile,
                                             uint64_t advisor_jobs) {
  std::lock_guard<std::mutex> lock(mu_);
  return ChooseLocked(profile, advisor_jobs);
}

CompactionChoice CompactionScheduler::ChooseLocked(
    const model::StepTimes& profile, uint64_t advisor_jobs) {
  if (!adaptive_) {
    last_rationale_ = "adaptive_compaction off; static choice";
    return Render(current_, /*adaptive=*/false, 1.0);
  }
  if (advisor_jobs < uint64_t(warmup_jobs_)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "warming up: advisor has %llu of %d jobs; static choice",
                  static_cast<unsigned long long>(advisor_jobs),
                  warmup_jobs_);
    last_rationale_ = buf;
    return Render(current_, /*adaptive=*/false, 1.0);
  }

  const model::Prescription p =
      model::Prescribe(profile, max_compute_workers_);
  const Choice target{p.procedure, p.k};
  if (target == current_) {
    candidate_streak_ = 0;
    last_rationale_ = p.reason;
    return Render(current_, /*adaptive=*/true, p.gain_vs_pcp);
  }

  if (candidate_streak_ > 0 && target == candidate_) {
    candidate_streak_++;
  } else {
    candidate_ = target;
    candidate_streak_ = 1;
  }
  if (candidate_streak_ >= hysteresis_jobs_) {
    current_ = candidate_;
    candidate_streak_ = 0;
    switches_counter_->Add();
    last_rationale_ = p.reason;
    return Render(current_, /*adaptive=*/true, p.gain_vs_pcp);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "holding %s: %s(k=%d) prescribed %d/%d consecutive "
                "admissions",
                CompactionModeName(current_.mode),
                CompactionModeName(candidate_.mode),
                candidate_.compute_parallelism, candidate_streak_,
                hysteresis_jobs_);
  last_rationale_ = buf;
  return Render(current_, /*adaptive=*/true, 1.0);
}

ScopedGrant CompactionScheduler::Admit(int level,
                                       const std::function<bool()>& abort) {
  CompactionAdmissionRequest request;
  request.shard_id = shard_id_;
  request.level = level;
  {
    std::lock_guard<std::mutex> lock(mu_);
    request.choice = ChooseLocked(ema_, jobs_);
  }
  return ScopedGrant(governor_, request, abort);
}

ScopedGrant CompactionScheduler::AdmitGc(const std::function<bool()>& abort) {
  CompactionAdmissionRequest request;
  request.shard_id = shard_id_;
  request.level = -1;
  request.is_gc = true;
  return ScopedGrant(governor_, request, abort);
}

uint64_t CompactionScheduler::decisions() const {
  return decisions_counter_->value();
}

uint64_t CompactionScheduler::switches() const {
  return switches_counter_->value();
}

std::string CompactionScheduler::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  const auto begin_choice = [&w](const Choice& c) {  // caller closes
    w.BeginObject().Key("procedure").String(CompactionModeName(c.mode));
    w.Key("compute_parallelism").Int(c.compute_parallelism);
  };
  w.BeginObject().Key("adaptive").Bool(adaptive_);
  w.Key("decisions").Uint(decisions_counter_->value());
  w.Key("switches").Uint(switches_counter_->value());
  w.Key("current");
  begin_choice(current_);
  w.EndObject();
  if (candidate_streak_ > 0) {
    w.Key("candidate");
    begin_choice(candidate_);
    w.Key("streak").Int(candidate_streak_);
    w.Key("needed").Int(hysteresis_jobs_).EndObject();
  }
  w.Key("bounds").BeginObject();
  w.Key("compute_workers").BeginArray().Int(1);
  w.Int(max_compute_workers_).EndArray().EndObject();
  w.Key("hysteresis_jobs").Int(hysteresis_jobs_);
  w.Key("warmup_jobs").Int(warmup_jobs_);
  w.Key("rationale").String(last_rationale_).EndObject();
  return out;
}

std::string CompactionScheduler::AdvisorJson() const {
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

  // §III-C prescription: the same model::Prescribe call, with the same
  // cap, that Choose() makes, so this report IS the control loop's
  // target.
  const model::Prescription rec = model::Prescribe(t, max_compute_workers_);
  w.Key("recommendation").BeginObject();
  w.Key("procedure").String(CompactionModeName(rec.procedure));
  w.Key("k").Int(rec.k);
  w.Key("ideal_speedup_vs_pcp").Double(rec.gain_vs_pcp, 2);
  w.Key("reason").String(rec.reason);
  w.EndObject().EndObject();
  return out;
}

}  // namespace pipelsm
