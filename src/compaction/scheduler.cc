#include "src/compaction/scheduler.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/metrics.h"

namespace pipelsm {

namespace {

// Below this Eq. 3 ideal speedup, pipelining overlaps essentially
// nothing (one stage is the whole job) and only pays queue handoffs; the
// scheduler falls back to the sequential procedure.
constexpr double kMinPipelineGain = 1.02;

constexpr const char* kModeMetricNames[4] = {
    "scheduler.choice.scp", "scheduler.choice.pcp",
    "scheduler.choice.sppcp", "scheduler.choice.cppcp"};

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

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
  Choice c;
  if (model::PcpIdealSpeedup(t) < kMinPipelineGain) {
    c.mode = CompactionMode::kSCP;
    *why = "Eq. 3 speedup ~1: one stage is the whole job, pipelining only "
           "pays queue handoffs";
    return c;
  }
  const bool cpu_bound = model::IsCpuBound(t);
  const int max_k =
      cpu_bound ? opts_.max_compute_workers : opts_.max_stripe_width;
  const model::Prescription p = model::Prescribe(t, max_k);
  *why = p.reason;
  switch (p.procedure) {
    case model::Prescription::kSCP:
      c.mode = CompactionMode::kSCP;
      break;
    case model::Prescription::kPCP:
      c.mode = CompactionMode::kPCP;
      break;
    case model::Prescription::kSPPCP:
      c.mode = CompactionMode::kSPPCP;
      c.read_parallelism = std::clamp(p.k, 1, opts_.max_stripe_width);
      break;
    case model::Prescription::kCPPCP:
      c.mode = CompactionMode::kCPPCP;
      c.compute_parallelism = std::clamp(p.k, 1, opts_.max_compute_workers);
      break;
  }
  return c;
}

SchedulerDecision CompactionScheduler::Render(const Choice& choice,
                                              bool adaptive,
                                              std::string rationale) const {
  SchedulerDecision d;
  d.mode = choice.mode;
  d.read_parallelism = choice.read_parallelism;
  d.compute_parallelism = choice.compute_parallelism;
  d.adaptive = adaptive;
  d.rationale = std::move(rationale);
  if (decisions_counter_ != nullptr) decisions_counter_->Add();
  if (mode_counters_[int(choice.mode)] != nullptr) {
    mode_counters_[int(choice.mode)]->Add();
  }
  return d;
}

SchedulerDecision CompactionScheduler::Admit(const model::StepTimes& profile,
                                             uint64_t advisor_jobs) {
  std::lock_guard<std::mutex> lock(mu_);
  decisions_++;
  if (!opts_.adaptive) {
    last_rationale_ = "adaptive_compaction off; static choice";
    return Render(current_, /*adaptive=*/false, last_rationale_);
  }
  if (advisor_jobs < uint64_t(opts_.warmup_jobs)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "warming up: advisor has %llu of %d jobs; static choice",
                  static_cast<unsigned long long>(advisor_jobs),
                  opts_.warmup_jobs);
    last_rationale_ = buf;
    return Render(current_, /*adaptive=*/false, last_rationale_);
  }

  std::string why;
  const Choice target = Target(profile, &why);
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
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"adaptive\":%s,\"decisions\":%llu,\"switches\":%llu,",
                opts_.adaptive ? "true" : "false",
                static_cast<unsigned long long>(decisions_),
                static_cast<unsigned long long>(switches_));
  out.append(buf);
  std::snprintf(buf, sizeof(buf),
                "\"current\":{\"procedure\":\"%s\",\"read_parallelism\":%d,"
                "\"compute_parallelism\":%d},",
                CompactionModeName(current_.mode), current_.read_parallelism,
                current_.compute_parallelism);
  out.append(buf);
  if (candidate_streak_ > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\"candidate\":{\"procedure\":\"%s\","
                  "\"read_parallelism\":%d,\"compute_parallelism\":%d,"
                  "\"streak\":%d,\"needed\":%d},",
                  CompactionModeName(candidate_.mode),
                  candidate_.read_parallelism,
                  candidate_.compute_parallelism, candidate_streak_,
                  opts_.hysteresis_jobs);
    out.append(buf);
  }
  std::snprintf(
      buf, sizeof(buf),
      "\"bounds\":{\"compute_workers\":[1,%d],\"stripe_width\":[1,%d]},"
      "\"hysteresis_jobs\":%d,\"warmup_jobs\":%d,",
      opts_.max_compute_workers, opts_.max_stripe_width, opts_.hysteresis_jobs,
      opts_.warmup_jobs);
  out.append(buf);
  out.append("\"rationale\":\"");
  AppendEscaped(&out, last_rationale_);
  out.append("\"}");
  return out;
}

}  // namespace pipelsm
