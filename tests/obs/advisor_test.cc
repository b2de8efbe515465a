// BottleneckAdvisor golden tests: synthetic StepProfiles with a known
// Eq. 2 bottleneck must yield the matching verdict, the predicted
// bandwidths must agree with the model library evaluated on the same
// step times, and the JSON must actually parse (the payload of
// GetProperty("pipelsm.advisor") is consumed by scripts, not humans).
#include "src/obs/advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "src/compaction/scheduler.h"
#include "src/model/model.h"
#include "src/util/stopwatch.h"
#include "tests/obs/json_check.h"

namespace pipelsm::obs {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

constexpr double kMiB = 1024.0 * 1024.0;

// A profile of `subtasks` sub-tasks, each moving `l` bytes, with the
// given per-sub-task stage seconds (all compute time parked in S4). The
// wall time is the ideal Eq. 2 pipeline: bottleneck stage * subtasks.
StepProfile MakeProfile(double read_s, double compute_s, double write_s,
                        uint64_t subtasks = 4, uint64_t l = 512 << 10) {
  StepProfile p;
  p.subtasks = subtasks;
  p.nanos[kStepRead] = static_cast<uint64_t>(read_s * 1e9 * subtasks);
  p.nanos[kStepSort] = static_cast<uint64_t>(compute_s * 1e9 * subtasks);
  p.nanos[kStepWrite] = static_cast<uint64_t>(write_s * 1e9 * subtasks);
  for (int i = 0; i < kNumSteps; i++) p.bytes[i] = l * subtasks;
  p.input_bytes = l * subtasks;
  p.output_bytes = l * subtasks;
  const double bottleneck = std::max({read_s, compute_s, write_s});
  p.wall_nanos = static_cast<uint64_t>(bottleneck * 1e9 * subtasks);
  return p;
}

JsonValue MustParse(const BottleneckAdvisor& advisor) {
  JsonValue v;
  std::string err;
  const std::string json = advisor.ToJson();
  EXPECT_TRUE(ParseJson(json, &v, &err)) << err << "\n" << json;
  return v;
}

double Number(const JsonValue& v, const std::string& key) {
  const JsonValue* field = v.Find(key);
  EXPECT_NE(nullptr, field) << "missing field " << key;
  return field != nullptr ? field->number_value : -1;
}

std::string Text(const JsonValue& v, const std::string& key) {
  const JsonValue* field = v.Find(key);
  EXPECT_NE(nullptr, field) << "missing field " << key;
  return field != nullptr ? field->string_value : "";
}

TEST(BottleneckAdvisor, EmptyReportsZeroJobsAndStillParses) {
  BottleneckAdvisor advisor;
  EXPECT_EQ(0u, advisor.jobs());
  JsonValue v = MustParse(advisor);
  EXPECT_EQ(0, Number(v, "jobs"));
  EXPECT_NE(nullptr, v.Find("note"));  // explains the empty verdict
  EXPECT_EQ(nullptr, v.Find("recommendation"));
  EXPECT_STREQ("none", advisor.Regime());
}

TEST(BottleneckAdvisor, IgnoresDegenerateProfiles) {
  BottleneckAdvisor advisor;
  advisor.AddJob(StepProfile());  // zero sub-tasks: nothing to average
  StepProfile no_wall = MakeProfile(1e-3, 1e-3, 1e-3);
  no_wall.wall_nanos = 0;
  advisor.AddJob(no_wall);
  EXPECT_EQ(0u, advisor.jobs());
}

// HDD regime (Figure 6(a)): reads dominate. The advisor must name the
// read stage, call the regime I/O-bound, and prescribe S-PPCP at the
// Eq. 4 saturation k, with every predicted bandwidth matching the model
// library evaluated on the same step times.
TEST(BottleneckAdvisor, ReadBoundGoldenProfile) {
  const double read_s = 8e-3, compute_s = 2e-3, write_s = 1e-3;
  BottleneckAdvisor advisor;
  advisor.AddJob(MakeProfile(read_s, compute_s, write_s));
  ASSERT_EQ(1u, advisor.jobs());

  const model::StepTimes t = advisor.Profile();
  EXPECT_NEAR(read_s, t.read(), 1e-9);
  EXPECT_NEAR(compute_s, t.compute(), 1e-9);
  EXPECT_NEAR(write_s, t.write(), 1e-9);
  EXPECT_NEAR(512 << 10, t.subtask_bytes, 1e-6);

  JsonValue v = MustParse(advisor);
  EXPECT_EQ(1, Number(v, "jobs"));
  EXPECT_EQ("read", Text(v, "bottleneck"));
  EXPECT_EQ("io-bound", Text(v, "regime"));
  EXPECT_STREQ("io-bound", advisor.Regime());
  EXPECT_NEAR(8.0, Number(*v.Find("step_ms"), "read"), 1e-2);
  EXPECT_NEAR(2.0, Number(*v.Find("step_ms"), "compute"), 1e-2);
  EXPECT_NEAR(1.0, Number(*v.Find("step_ms"), "write"), 1e-2);

  const JsonValue* pred = v.Find("predicted_mbps");
  ASSERT_NE(nullptr, pred);
  EXPECT_NEAR(model::ScpBandwidth(t) / kMiB, Number(*pred, "scp"), 1e-2);
  EXPECT_NEAR(model::PcpBandwidth(t) / kMiB, Number(*pred, "pcp"), 1e-2);
  const int sppcp_k = model::SppcpSaturationDisks(t);
  EXPECT_EQ(4, sppcp_k);  // ceil(max(8,1)/2)
  const JsonValue* sppcp = pred->Find("sppcp");
  ASSERT_NE(nullptr, sppcp);
  EXPECT_EQ(sppcp_k, Number(*sppcp, "k"));
  EXPECT_NEAR(model::SppcpBandwidth(t, sppcp_k) / kMiB,
              Number(*sppcp, "mbps"), 1e-2);

  // The synthetic wall time IS the Eq. 2 ideal, so the model error must
  // vanish (the acceptance bound for real runs is 25%).
  EXPECT_LT(Number(v, "pcp_model_error_pct"), 1.0);
  const JsonValue* measured = v.Find("measured_mbps");
  ASSERT_NE(nullptr, measured);
  EXPECT_NEAR(model::PcpBandwidth(t) / kMiB, Number(*measured, "wall"), 0.1);
  EXPECT_NEAR(model::ScpBandwidth(t) / kMiB, Number(*measured, "sequential"),
              0.1);

  const JsonValue* rec = v.Find("recommendation");
  ASSERT_NE(nullptr, rec);
  EXPECT_EQ("S-PPCP", Text(*rec, "procedure"));
  EXPECT_EQ(sppcp_k, Number(*rec, "k"));
  EXPECT_NEAR(model::SppcpIdealSpeedup(t, sppcp_k),
              Number(*rec, "ideal_speedup_vs_pcp"), 1e-2);
}

// SSD regime (Figure 6(b)): compute dominates; the prescription flips
// to C-PPCP with Eq. 6's saturation thread count.
TEST(BottleneckAdvisor, ComputeBoundGoldenProfile) {
  BottleneckAdvisor advisor;
  advisor.AddJob(MakeProfile(2e-3, 10e-3, 1e-3));

  const model::StepTimes t = advisor.Profile();
  JsonValue v = MustParse(advisor);
  EXPECT_EQ("compute", Text(v, "bottleneck"));
  EXPECT_EQ("cpu-bound", Text(v, "regime"));
  EXPECT_STREQ("cpu-bound", advisor.Regime());

  const int cppcp_k = model::CppcpSaturationThreads(t);
  EXPECT_EQ(5, cppcp_k);  // ceil(10/max(2,1))
  const JsonValue* rec = v.Find("recommendation");
  ASSERT_NE(nullptr, rec);
  EXPECT_EQ("C-PPCP", Text(*rec, "procedure"));
  EXPECT_EQ(cppcp_k, Number(*rec, "k"));
  EXPECT_NEAR(5.0, Number(*rec, "ideal_speedup_vs_pcp"), 1e-2);
}

// A balanced pipeline has nothing to parallelize: the ideal speedup of
// either parallel variant is ~1x, so the advisor must say "stay on PCP"
// instead of recommending churn.
TEST(BottleneckAdvisor, BalancedPipelineRecommendsPcp) {
  BottleneckAdvisor advisor;
  advisor.AddJob(MakeProfile(3e-3, 3e-3, 3e-3));

  JsonValue v = MustParse(advisor);
  const JsonValue* rec = v.Find("recommendation");
  ASSERT_NE(nullptr, rec);
  EXPECT_EQ("PCP", Text(*rec, "procedure"));
  EXPECT_EQ(1, Number(*rec, "k"));
  EXPECT_NEAR(1.0, Number(*rec, "ideal_speedup_vs_pcp"), 1e-2);
}

// The running profile is an EMA: with decay d, the second job weighs d
// and the first 1-d, so the profile tracks workload shifts instead of
// averaging over the DB's whole lifetime.
TEST(BottleneckAdvisor, DecayedProfileTracksRecentJobs) {
  BottleneckAdvisor advisor(0, 0, /*decay=*/0.5);
  advisor.AddJob(MakeProfile(8e-3, 2e-3, 1e-3));
  advisor.AddJob(MakeProfile(4e-3, 2e-3, 1e-3));
  EXPECT_EQ(2u, advisor.jobs());
  EXPECT_NEAR(6e-3, advisor.Profile().read(), 1e-9);

  // Many repeats of the new workload converge the EMA to it.
  for (int i = 0; i < 20; i++) {
    advisor.AddJob(MakeProfile(4e-3, 2e-3, 1e-3));
  }
  EXPECT_NEAR(4e-3, advisor.Profile().read(), 1e-5);
}

// AddJob and ToJson may race (GetProperty vs the compaction thread);
// this is the single-advisor slice of the DB-level hammer test.
TEST(BottleneckAdvisor, ConcurrentAddAndReportStaysParseable) {
  BottleneckAdvisor advisor;
  std::atomic<bool> stop{false};
  std::thread reporter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      JsonValue v;
      std::string err;
      const std::string json = advisor.ToJson();
      if (!ParseJson(json, &v, &err)) {
        ADD_FAILURE() << err << "\n" << json;
        return;
      }
    }
  });
  for (int i = 0; i < 500; i++) {
    advisor.AddJob(MakeProfile(8e-3, 2e-3, 1e-3));
  }
  stop.store(true, std::memory_order_relaxed);
  reporter.join();
  EXPECT_EQ(500u, advisor.jobs());
}

// Report and control loop agree: on every profile of the grid, under
// both cap settings, the advisor's recommendation {procedure, k} is
// exactly the target the adaptive scheduler switches to with the same
// caps — including the Eq. 3-degenerate point (SCP) and points whose
// saturation k lies above the caps.
TEST(BottleneckAdvisor, RecommendationIsTheSchedulersTarget) {
  struct Point {
    const char* name;
    double read_ms, compute_ms, write_ms;
  };
  const Point grid[] = {
      {"io-bound", 8, 2, 1},        {"cpu-bound", 2, 10, 1},
      {"balanced", 3, 3, 3},        {"degenerate", 10, 0.05, 0.05},
      {"io above caps", 20, 1, 1},  {"cpu above caps", 1, 20, 1},
  };
  for (const auto [lanes, workers] : {std::pair{3, 2}, std::pair{8, 8}}) {
    for (const Point& p : grid) {
      SCOPED_TRACE(std::string(p.name) + " caps " + std::to_string(lanes) +
                   "/" + std::to_string(workers));
      BottleneckAdvisor advisor(lanes, workers);
      advisor.AddJob(MakeProfile(p.read_ms * 1e-3, p.compute_ms * 1e-3,
                                 p.write_ms * 1e-3));
      const JsonValue v = MustParse(advisor);
      const JsonValue* rec = v.Find("recommendation");
      ASSERT_NE(nullptr, rec);

      SchedulerOptions o;
      o.adaptive = true;
      o.max_stripe_width = lanes;
      o.max_compute_workers = workers;
      o.hysteresis_jobs = 1;
      o.warmup_jobs = 0;
      CompactionScheduler scheduler(o, nullptr);
      CompactionAdmissionRequest request;
      request.profile = advisor.Profile();
      request.advisor_jobs = advisor.jobs();
      const CompactionGrant g = scheduler.Admit(request, nullptr);
      EXPECT_EQ(CompactionModeName(g.mode), Text(*rec, "procedure"));
      EXPECT_EQ(std::max(g.read_parallelism, g.compute_parallelism),
                Number(*rec, "k"));
      EXPECT_LE(Number(*rec, "k"), std::max(lanes, workers));
    }
  }
}

}  // namespace
}  // namespace pipelsm::obs
