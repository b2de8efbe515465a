#include "src/compaction/scheduler.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/json_writer.h"

namespace pipelsm {

namespace {

// Indexed by CompactionMode; the scheduler never chooses S-PPCP.
constexpr const char* kModeMetricNames[4] = {
    "scheduler.choice.scp", "scheduler.choice.pcp", nullptr,
    "scheduler.choice.cppcp"};

}  // namespace

// Key the vtable here so every TU sharing the interface agrees on one
// definition.
CompactionGovernor::~CompactionGovernor() = default;

SchedulerOptions SchedulerOptions::FromOptions(const Options& options) {
  SchedulerOptions s;
  s.adaptive = options.adaptive_compaction;
  s.static_mode = options.compaction_mode;
  s.static_compute_parallelism = std::max(1, options.compute_parallelism);
  s.max_compute_workers = std::max(1, options.max_compute_workers);
  s.hysteresis_jobs = std::max(1, options.scheduler_hysteresis_jobs);
  s.warmup_jobs = std::max(0, options.scheduler_warmup_jobs);
  return s;
}

CompactionScheduler::CompactionScheduler(const SchedulerOptions& options,
                                         obs::MetricsRegistry* metrics)
    : opts_(options) {
  current_.mode = opts_.static_mode;
  current_.compute_parallelism = opts_.static_compute_parallelism;
  last_rationale_ = opts_.adaptive ? "no admissions yet"
                                   : "adaptive_compaction off; static choice";
  if (metrics == nullptr) metrics = &own_metrics_;
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
  if (!opts_.adaptive) {
    last_rationale_ = "adaptive_compaction off; static choice";
    return Render(current_, /*adaptive=*/false, 1.0);
  }
  if (advisor_jobs < uint64_t(opts_.warmup_jobs)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "warming up: advisor has %llu of %d jobs; static choice",
                  static_cast<unsigned long long>(advisor_jobs),
                  opts_.warmup_jobs);
    last_rationale_ = buf;
    return Render(current_, /*adaptive=*/false, 1.0);
  }

  const model::Prescription p =
      model::Prescribe(profile, opts_.max_compute_workers);
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
  if (candidate_streak_ >= opts_.hysteresis_jobs) {
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
                opts_.hysteresis_jobs);
  last_rationale_ = buf;
  return Render(current_, /*adaptive=*/true, 1.0);
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
  w.BeginObject().Key("adaptive").Bool(opts_.adaptive);
  w.Key("decisions").Uint(decisions_counter_->value());
  w.Key("switches").Uint(switches_counter_->value());
  w.Key("current");
  begin_choice(current_);
  w.EndObject();
  if (candidate_streak_ > 0) {
    w.Key("candidate");
    begin_choice(candidate_);
    w.Key("streak").Int(candidate_streak_);
    w.Key("needed").Int(opts_.hysteresis_jobs).EndObject();
  }
  w.Key("bounds").BeginObject();
  w.Key("compute_workers").BeginArray().Int(1);
  w.Int(opts_.max_compute_workers).EndArray().EndObject();
  w.Key("hysteresis_jobs").Int(opts_.hysteresis_jobs);
  w.Key("warmup_jobs").Int(opts_.warmup_jobs);
  w.Key("rationale").String(last_rationale_).EndObject();
  return out;
}

}  // namespace pipelsm
