// CompactionScheduler unit tests: the adaptive control loop must be a
// pure function of the profile sequence it is fed — deterministic
// prescriptions for a fixed profile, user bounds respected, hysteresis
// that refuses to flap on alternating profiles, and a JSON report that
// parses (GetProperty("pipelsm.scheduler") is consumed by scripts).
#include "src/compaction/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/model/model.h"
#include "src/obs/advisor.h"
#include "src/obs/metrics.h"
#include "tests/obs/json_check.h"

namespace pipelsm {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

// Per-sub-task step seconds with all compute time parked in S4 (the same
// shape advisor_test's MakeProfile decays into).
model::StepTimes Times(double read_s, double compute_s, double write_s) {
  model::StepTimes t;
  t.seconds[kStepRead] = read_s;
  t.seconds[kStepSort] = compute_s;
  t.seconds[kStepWrite] = write_s;
  t.subtask_bytes = 512 << 10;
  return t;
}

// HDD regime: reads dominate; Eq. 4 asks for a 4-disk stripe, not threads.
model::StepTimes IoBound() { return Times(8e-3, 2e-3, 1e-3); }
// SSD regime: compute dominates; Eq. 6 saturation k = ceil(10/2) = 5.
model::StepTimes CpuBound() { return Times(2e-3, 10e-3, 1e-3); }

SchedulerOptions Adaptive(int hysteresis = 1, int warmup = 0) {
  SchedulerOptions o;
  o.adaptive = true;
  o.static_mode = CompactionMode::kPCP;
  o.max_compute_workers = 8;
  o.hysteresis_jobs = hysteresis;
  o.warmup_jobs = warmup;
  return o;
}

TEST(CompactionScheduler, StaticPassthroughWhenAdaptiveOff) {
  SchedulerOptions o;
  o.adaptive = false;
  o.static_mode = CompactionMode::kCPPCP;
  o.static_compute_parallelism = 2;
  CompactionScheduler s(o, nullptr);
  for (int i = 0; i < 4; i++) {
    const CompactionChoice d = s.Choose(IoBound(), /*advisor_jobs=*/100);
    EXPECT_EQ(CompactionMode::kCPPCP, d.mode);
    EXPECT_EQ(2, d.compute_parallelism);
    EXPECT_FALSE(d.adaptive);
    EXPECT_EQ(1.0, d.gain);  // a static choice ranks at the PCP floor
  }
  EXPECT_EQ(4u, s.decisions());
  EXPECT_EQ(0u, s.switches());
}

TEST(CompactionScheduler, WarmupHoldsStaticChoice) {
  CompactionScheduler s(Adaptive(/*hysteresis=*/1, /*warmup=*/3), nullptr);
  for (uint64_t jobs = 0; jobs < 3; jobs++) {
    const CompactionChoice d = s.Choose(CpuBound(), jobs);
    EXPECT_EQ(CompactionMode::kPCP, d.mode) << "during warmup";
    EXPECT_FALSE(d.adaptive);
    EXPECT_NE(std::string::npos, d.rationale.find("warming up"))
        << d.rationale;
  }
  const CompactionChoice d = s.Choose(CpuBound(), /*advisor_jobs=*/3);
  EXPECT_EQ(CompactionMode::kCPPCP, d.mode) << "warmup over, profile rules";
  EXPECT_TRUE(d.adaptive);
}

// S-PPCP is PCP on a striped Env: an I/O-bound profile gets PCP with one
// worker, and the rationale points the operator at the device's stripe.
TEST(CompactionScheduler, IoBoundPrescribesPcp) {
  SchedulerOptions o = Adaptive();
  o.static_mode = CompactionMode::kCPPCP;
  o.static_compute_parallelism = 4;
  CompactionScheduler s(o, nullptr);
  // Deterministic: the same profile yields the same verdict every time.
  for (int i = 0; i < 5; i++) {
    const CompactionChoice d = s.Choose(IoBound(), 10);
    EXPECT_EQ(CompactionMode::kPCP, d.mode);
    EXPECT_EQ(1, d.compute_parallelism);
    EXPECT_TRUE(d.adaptive);
    EXPECT_NE(std::string::npos, d.rationale.find("stripe the device"))
        << d.rationale;
  }
  EXPECT_EQ(1u, s.switches());  // C-PPCP -> PCP once, then steady state
}

TEST(CompactionScheduler, CpuBoundPrescribesCppcpAtSaturationK) {
  CompactionScheduler s(Adaptive(), nullptr);
  const CompactionChoice d = s.Choose(CpuBound(), 10);
  EXPECT_EQ(CompactionMode::kCPPCP, d.mode);
  EXPECT_EQ(5, d.compute_parallelism);  // ceil(10/max(2,1))
  EXPECT_TRUE(d.adaptive);
  EXPECT_EQ(model::Prescribe(CpuBound(), 8).gain_vs_pcp, d.gain);
  EXPECT_GT(d.gain, model::kMinParallelGain);
}

TEST(CompactionScheduler, BalancedProfileStaysOnPcp) {
  CompactionScheduler s(Adaptive(), nullptr);
  const CompactionChoice d = s.Choose(Times(3e-3, 3e-3, 3e-3), 10);
  EXPECT_EQ(CompactionMode::kPCP, d.mode);
  EXPECT_EQ(1, d.compute_parallelism);
  EXPECT_EQ(0u, s.switches());  // PCP was already the static choice
}

// One stage is essentially the whole job: Eq. 3 speedup ~1.01, below the
// pipeline-gain floor, so the scheduler prescribes plain sequential SCP.
TEST(CompactionScheduler, DegeneratePipelineFallsBackToScp) {
  CompactionScheduler s(Adaptive(), nullptr);
  const CompactionChoice d = s.Choose(Times(10e-3, 0.05e-3, 0.05e-3), 10);
  EXPECT_EQ(CompactionMode::kSCP, d.mode);
  EXPECT_EQ(1, d.compute_parallelism);
}

TEST(CompactionScheduler, BoundsClampPrescribedK) {
  SchedulerOptions o = Adaptive();
  o.max_compute_workers = 2;  // saturation says 5
  CompactionScheduler s(o, nullptr);
  EXPECT_EQ(2, s.Choose(CpuBound(), 10).compute_parallelism);
}

// The phase shift a live DB sees, on injected profiles: an advisor fed
// CPU-bound jobs and then I/O-bound ones, decayed as in the DB, drives
// the scheduler from the static PCP to C-PPCP, and after its profile
// crosses the regime boundary and the hysteresis window fills, back to
// PCP (through smaller k while the EMA converges): the I/O-bound phase's
// parallelism is the Env's stripe.
TEST(CompactionScheduler, PhaseShiftFlipsTheProcedure) {
  SchedulerOptions o = Adaptive(/*hysteresis=*/2, /*warmup=*/2);
  o.max_compute_workers = 4;
  CompactionScheduler s(o, nullptr);
  obs::BottleneckAdvisor advisor(o.max_compute_workers);
  std::vector<CompactionMode> procedures;  // each change, in order
  const auto phase = [&](const model::StepTimes& t) {
    StepProfile job;
    job.subtasks = 1;
    for (int i = 0; i < kNumSteps; i++) {
      job.nanos[i] = static_cast<uint64_t>(t.seconds[i] * 1e9);
    }
    job.input_bytes = static_cast<uint64_t>(t.subtask_bytes);
    job.wall_nanos = static_cast<uint64_t>(
        std::max({t.read(), t.compute(), t.write()}) * 1e9);
    CompactionChoice last;
    for (int i = 0; i < 16; i++) {  // long enough for the EMA to settle
      last = s.Choose(advisor.Profile(), advisor.jobs());
      if (procedures.empty() || procedures.back() != last.mode) {
        procedures.push_back(last.mode);
      }
      advisor.AddJob(job);
    }
    return last;
  };

  const CompactionChoice end1 = phase(CpuBound());
  EXPECT_EQ(CompactionMode::kCPPCP, end1.mode) << end1.rationale;
  EXPECT_EQ(4, end1.compute_parallelism);
  EXPECT_TRUE(end1.adaptive);
  const CompactionChoice end2 = phase(IoBound());
  EXPECT_EQ(CompactionMode::kPCP, end2.mode) << end2.rationale;
  EXPECT_EQ(1, end2.compute_parallelism);
  EXPECT_TRUE(end2.adaptive);
  EXPECT_GE(s.switches(), 2u);
  EXPECT_EQ((std::vector<CompactionMode>{CompactionMode::kPCP,
                                         CompactionMode::kCPPCP,
                                         CompactionMode::kPCP}),
            procedures);

  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(s.ToJson(), &v, &err)) << err;
  EXPECT_EQ("PCP", v.Find("current")->Find("procedure")->string_value);
}

TEST(CompactionScheduler, HysteresisRequiresConsecutivePrescriptions) {
  CompactionScheduler s(Adaptive(/*hysteresis=*/3), nullptr);
  for (int i = 0; i < 2; i++) {
    const CompactionChoice d = s.Choose(CpuBound(), 10);
    EXPECT_EQ(CompactionMode::kPCP, d.mode) << "streak " << i + 1 << "/3";
    EXPECT_NE(std::string::npos, d.rationale.find("holding")) << d.rationale;
    EXPECT_EQ(1.0, d.gain) << "a held PCP gains nothing over PCP";
  }
  const CompactionChoice d = s.Choose(CpuBound(), 10);
  EXPECT_EQ(CompactionMode::kCPPCP, d.mode) << "third consecutive: switch";
  EXPECT_GT(d.gain, model::kMinParallelGain);
  EXPECT_EQ(1u, s.switches());
}

// Alternating profiles that prescribe two different C-PPCP widths (k=5
// and k=3) never accumulate a streak, so the scheduler must hold its
// current choice forever — no flapping.
TEST(CompactionScheduler, NoFlapOnAlternatingProfiles) {
  CompactionScheduler s(Adaptive(/*hysteresis=*/3), nullptr);
  for (int i = 0; i < 12; i++) {
    const CompactionChoice d =
        s.Choose(i % 2 == 0 ? Times(2e-3, 6e-3, 1e-3) : CpuBound(), 10 + i);
    EXPECT_EQ(CompactionMode::kPCP, d.mode) << "admission " << i;
  }
  EXPECT_EQ(0u, s.switches());
}

// A streak interrupted by the incumbent's own prescription resets: three
// cpu-bound admissions split 2+1 around a balanced one must not switch.
TEST(CompactionScheduler, IncumbentPrescriptionResetsStreak) {
  CompactionScheduler s(Adaptive(/*hysteresis=*/3), nullptr);
  s.Choose(CpuBound(), 10);
  s.Choose(CpuBound(), 11);
  s.Choose(Times(3e-3, 3e-3, 3e-3), 12);  // target == current (PCP): reset
  s.Choose(CpuBound(), 13);
  const CompactionChoice d = s.Choose(CpuBound(), 14);
  EXPECT_EQ(CompactionMode::kPCP, d.mode) << "streak was broken";
  EXPECT_EQ(0u, s.switches());
}

// Two schedulers fed the same profile sequence make identical decisions.
TEST(CompactionScheduler, DeterministicAcrossInstances) {
  CompactionScheduler a(Adaptive(/*hysteresis=*/2), nullptr);
  CompactionScheduler b(Adaptive(/*hysteresis=*/2), nullptr);
  std::vector<model::StepTimes> sequence = {
      IoBound(), IoBound(), CpuBound(), CpuBound(), CpuBound(),
      Times(3e-3, 3e-3, 3e-3), IoBound(), IoBound(), IoBound()};
  for (size_t i = 0; i < sequence.size(); i++) {
    const CompactionChoice da = a.Choose(sequence[i], i);
    const CompactionChoice db = b.Choose(sequence[i], i);
    EXPECT_EQ(da.mode, db.mode) << "admission " << i;
    EXPECT_EQ(da.compute_parallelism, db.compute_parallelism)
        << "admission " << i;
    EXPECT_EQ(da.adaptive, db.adaptive) << "admission " << i;
    EXPECT_EQ(da.rationale, db.rationale) << "admission " << i;
  }
  EXPECT_EQ(a.switches(), b.switches());
}

TEST(CompactionScheduler, MetricsCountDecisionsAndSwitches) {
  obs::MetricsRegistry registry;
  CompactionScheduler s(Adaptive(/*hysteresis=*/2), &registry);
  s.Choose(CpuBound(), 10);  // holding PCP, streak 1/2
  s.Choose(CpuBound(), 11);  // switch to C-PPCP
  s.Choose(CpuBound(), 12);  // steady C-PPCP
  const std::string snapshot = registry.ToJson();
  EXPECT_NE(std::string::npos, snapshot.find("scheduler.decisions"));
  EXPECT_EQ(3u, s.decisions());
  EXPECT_EQ(1u, s.switches());
}

TEST(CompactionScheduler, ToJsonParsesAndReportsCandidateStreak) {
  CompactionScheduler s(Adaptive(/*hysteresis=*/3), nullptr);
  s.Choose(CpuBound(), 10);  // candidate C-PPCP, streak 1/3

  JsonValue v;
  std::string err;
  const std::string json = s.ToJson();
  ASSERT_TRUE(ParseJson(json, &v, &err)) << err << "\n" << json;

  const JsonValue* current = v.Find("current");
  ASSERT_NE(nullptr, current);
  EXPECT_EQ("PCP", current->Find("procedure")->string_value);

  const JsonValue* candidate = v.Find("candidate");
  ASSERT_NE(nullptr, candidate) << json;
  EXPECT_EQ("C-PPCP", candidate->Find("procedure")->string_value);
  EXPECT_EQ(1, candidate->Find("streak")->number_value);
  EXPECT_EQ(3, candidate->Find("needed")->number_value);

  ASSERT_NE(nullptr, v.Find("bounds"));
  ASSERT_NE(nullptr, v.Find("rationale"));

  // Steady state drops the candidate block again.
  s.Choose(Times(3e-3, 3e-3, 3e-3), 11);
  JsonValue steady;
  ASSERT_TRUE(ParseJson(s.ToJson(), &steady, &err)) << err;
  EXPECT_EQ(nullptr, steady.Find("candidate"));
}

TEST(CompactionScheduler, FromOptionsClampsDegenerateBounds) {
  Options options;
  options.adaptive_compaction = true;
  options.max_compute_workers = -3;
  options.scheduler_hysteresis_jobs = 0;
  options.scheduler_warmup_jobs = -1;
  const SchedulerOptions s = SchedulerOptions::FromOptions(options);
  EXPECT_TRUE(s.adaptive);
  EXPECT_EQ(1, s.max_compute_workers);
  EXPECT_EQ(1, s.hysteresis_jobs);
  EXPECT_EQ(0, s.warmup_jobs);
}

}  // namespace
}  // namespace pipelsm
