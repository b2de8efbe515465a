#include "src/compaction/scheduler.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/json_writer.h"

namespace pipelsm {

namespace {

constexpr const char* kModeMetricNames[4] = {
    "scheduler.choice.scp", "scheduler.choice.pcp",
    "scheduler.choice.sppcp", "scheduler.choice.cppcp"};

}  // namespace

// Key the vtable here so every TU sharing the interface agrees on one
// definition.
CompactionGovernor::~CompactionGovernor() = default;

SchedulerOptions SchedulerOptions::FromOptions(const Options& options) {
  SchedulerOptions s;
  s.adaptive = options.adaptive_compaction;
  s.static_mode = options.compaction_mode;
  s.static_read_parallelism = std::max(1, options.io_parallelism);
  s.static_compute_parallelism = std::max(1, options.compute_parallelism);
  s.max_compute_workers = std::max(1, options.max_compute_workers);
  s.max_stripe_width = std::max(1, options.max_stripe_width);
  s.hysteresis_jobs = std::max(1, options.scheduler_hysteresis_jobs);
  s.warmup_jobs = std::max(0, options.scheduler_warmup_jobs);
  return s;
}

CompactionScheduler::CompactionScheduler(const SchedulerOptions& options,
                                         obs::MetricsRegistry* metrics)
    : opts_(options) {
  current_.mode = opts_.static_mode;
  current_.read_parallelism = opts_.static_read_parallelism;
  current_.compute_parallelism = opts_.static_compute_parallelism;
  last_rationale_ = opts_.adaptive ? "no admissions yet"
                                   : "adaptive_compaction off; static choice";
  if (metrics != nullptr) {
    decisions_counter_ = metrics->RegisterCounter(
        "scheduler.decisions", "compaction admissions the scheduler ruled on");
    switches_counter_ = metrics->RegisterCounter(
        "scheduler.switches",
        "executor/parallelism changes after the hysteresis window filled");
    for (int m = 0; m < 4; m++) {
      mode_counters_[m] = metrics->RegisterCounter(
          kModeMetricNames[m], std::string("jobs admitted as ") +
                                   CompactionModeName(CompactionMode(m)));
    }
  }
}

CompactionScheduler::Choice CompactionScheduler::Target(
    const model::StepTimes& t, std::string* why) const {
  const model::Prescription p =
      model::Prescribe(t, opts_.max_stripe_width, opts_.max_compute_workers);
  *why = p.reason;
  Choice c;
  c.mode = p.procedure;
  if (p.procedure == CompactionMode::kSPPCP) c.read_parallelism = p.k;
  if (p.procedure == CompactionMode::kCPPCP) c.compute_parallelism = p.k;
  return c;
}

CompactionGrant CompactionScheduler::Render(const Choice& choice,
                                            bool adaptive,
                                            std::string rationale) const {
  CompactionGrant g;
  g.granted = true;
  g.mode = choice.mode;
  g.read_parallelism = choice.read_parallelism;
  g.compute_parallelism = choice.compute_parallelism;
  g.adaptive = adaptive;
  g.rationale = std::move(rationale);
  if (decisions_counter_ != nullptr) decisions_counter_->Add();
  if (mode_counters_[int(choice.mode)] != nullptr) {
    mode_counters_[int(choice.mode)]->Add();
  }
  return g;
}

CompactionGrant CompactionScheduler::Admit(
    const CompactionAdmissionRequest& request, const std::function<bool()>&) {
  if (request.is_gc) {  // granted, but not a decision
    CompactionGrant g;
    g.granted = true;
    return g;
  }
  std::lock_guard<std::mutex> lock(mu_);
  decisions_++;
  if (!opts_.adaptive) {
    last_rationale_ = "adaptive_compaction off; static choice";
    return Render(current_, /*adaptive=*/false, last_rationale_);
  }
  if (request.advisor_jobs < uint64_t(opts_.warmup_jobs)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "warming up: advisor has %llu of %d jobs; static choice",
                  static_cast<unsigned long long>(request.advisor_jobs),
                  opts_.warmup_jobs);
    last_rationale_ = buf;
    return Render(current_, /*adaptive=*/false, last_rationale_);
  }

  std::string why;
  const Choice target = Target(request.profile, &why);
  if (target == current_) {
    candidate_streak_ = 0;
    last_rationale_ = why;
    return Render(current_, /*adaptive=*/true, last_rationale_);
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
    switches_++;
    if (switches_counter_ != nullptr) switches_counter_->Add();
    last_rationale_ = why;
    return Render(current_, /*adaptive=*/true, last_rationale_);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "holding %s: %s(r=%d,c=%d) prescribed %d/%d consecutive "
                "admissions",
                CompactionModeName(current_.mode),
                CompactionModeName(candidate_.mode),
                candidate_.read_parallelism, candidate_.compute_parallelism,
                candidate_streak_, opts_.hysteresis_jobs);
  last_rationale_ = buf;
  return Render(current_, /*adaptive=*/true, last_rationale_);
}

uint64_t CompactionScheduler::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

uint64_t CompactionScheduler::switches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return switches_;
}

std::string CompactionScheduler::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  const auto begin_choice = [&w](const Choice& c) {  // caller closes
    w.BeginObject().Key("procedure").String(CompactionModeName(c.mode));
    w.Key("read_parallelism").Int(c.read_parallelism);
    w.Key("compute_parallelism").Int(c.compute_parallelism);
  };
  w.BeginObject().Key("adaptive").Bool(opts_.adaptive);
  w.Key("decisions").Uint(decisions_).Key("switches").Uint(switches_);
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
  w.Int(opts_.max_compute_workers).EndArray();
  w.Key("stripe_width").BeginArray().Int(1);
  w.Int(opts_.max_stripe_width).EndArray().EndObject();
  w.Key("hysteresis_jobs").Int(opts_.hysteresis_jobs);
  w.Key("warmup_jobs").Int(opts_.warmup_jobs);
  w.Key("rationale").String(last_rationale_).EndObject();
  return out;
}

}  // namespace pipelsm
