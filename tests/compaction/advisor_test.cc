// Bottleneck-advisor golden tests, the learning half of the compaction
// controller: synthetic StepProfiles with a known Eq. 2 bottleneck must
// yield the matching verdict, the predicted bandwidths must agree with
// the model library evaluated on the same step times, and the JSON must
// actually parse (the payload of GetProperty("pipelsm.advisor") is
// consumed by scripts, not humans).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "src/compaction/scheduler.h"
#include "src/model/model.h"
#include "src/obs/metrics.h"
#include "src/util/stopwatch.h"
#include "tests/obs/json_check.h"

namespace pipelsm {
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

// A controller whose recommendation is capped at `max_workers` compute
// workers; 8 leaves every golden profile's saturation k uncapped.
Options Capped(int max_workers = 8) {
  Options o;
  o.max_compute_workers = max_workers;
  return o;
}

JsonValue MustParse(const CompactionScheduler& advisor) {
  JsonValue v;
  std::string err;
  const std::string json = advisor.AdvisorJson();
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
  CompactionScheduler advisor(Capped(), nullptr);
  EXPECT_EQ(0u, advisor.jobs());
  JsonValue v = MustParse(advisor);
  EXPECT_EQ(0, Number(v, "jobs"));
  EXPECT_NE(nullptr, v.Find("note"));  // explains the empty verdict
  EXPECT_EQ(nullptr, v.Find("recommendation"));
  EXPECT_STREQ("none", advisor.Regime());
}

TEST(BottleneckAdvisor, IgnoresDegenerateProfiles) {
  CompactionScheduler advisor(Capped(), nullptr);
  advisor.AddJob(StepProfile());  // zero sub-tasks: nothing to average
  StepProfile no_wall = MakeProfile(1e-3, 1e-3, 1e-3);
  no_wall.wall_nanos = 0;
  advisor.AddJob(no_wall);
  EXPECT_EQ(0u, advisor.jobs());
}

// HDD regime (Figure 6(a)): reads dominate. The advisor must name the
// read stage, call the regime I/O-bound, report S-PPCP's Eq. 4 stripe
// width and prescribe PCP (S-PPCP is PCP on that striped device), with
// every predicted bandwidth matching the model library evaluated on the
// same step times.
TEST(BottleneckAdvisor, ReadBoundGoldenProfile) {
  const double read_s = 8e-3, compute_s = 2e-3, write_s = 1e-3;
  CompactionScheduler advisor(Capped(), nullptr);
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
  EXPECT_EQ("PCP", Text(*rec, "procedure"));
  EXPECT_EQ(1, Number(*rec, "k"));
  EXPECT_NEAR(1.0, Number(*rec, "ideal_speedup_vs_pcp"), 1e-2);
  EXPECT_NE(std::string::npos, Text(*rec, "reason").find("stripe"));
}

// The regime is also a gauge in the registry the advisor is given: 0
// before any job, then the code of the regime the JSON names, tracking
// the decayed profile across a shift; a degenerate job leaves it alone.
TEST(BottleneckAdvisor, RegimeGaugeFollowsTheVerdict) {
  obs::MetricsRegistry registry;
  CompactionScheduler advisor(Capped(), &registry);
  obs::Gauge* regime = registry.RegisterGauge("advisor.regime", "");
  EXPECT_EQ(0, regime->value());
  advisor.AddJob(MakeProfile(8e-3, 2e-3, 1e-3));
  EXPECT_EQ("io-bound", Text(MustParse(advisor), "regime"));
  EXPECT_EQ(1, regime->value());
  // One compute-bound job weighs 0.3: read 6.2 ms still beats compute
  // 4.4 ms, so the decayed profile stays I/O-bound ...
  advisor.AddJob(MakeProfile(2e-3, 10e-3, 1e-3));
  EXPECT_EQ("io-bound", Text(MustParse(advisor), "regime"));
  EXPECT_EQ(1, regime->value());
  // ... and a second one tips it (read 4.94 ms, compute 6.08 ms).
  advisor.AddJob(MakeProfile(2e-3, 10e-3, 1e-3));
  EXPECT_EQ("cpu-bound", Text(MustParse(advisor), "regime"));
  EXPECT_EQ(2, regime->value());
  StepProfile empty;
  advisor.AddJob(empty);
  EXPECT_EQ(2, regime->value());
}

// SSD regime (Figure 6(b)): compute dominates; the prescription flips
// to C-PPCP with Eq. 6's saturation thread count.
TEST(BottleneckAdvisor, ComputeBoundGoldenProfile) {
  CompactionScheduler advisor(Capped(), nullptr);
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
  CompactionScheduler advisor(Capped(), nullptr);
  advisor.AddJob(MakeProfile(3e-3, 3e-3, 3e-3));

  JsonValue v = MustParse(advisor);
  const JsonValue* rec = v.Find("recommendation");
  ASSERT_NE(nullptr, rec);
  EXPECT_EQ("PCP", Text(*rec, "procedure"));
  EXPECT_EQ(1, Number(*rec, "k"));
  EXPECT_NEAR(1.0, Number(*rec, "ideal_speedup_vs_pcp"), 1e-2);
}

// The running profile is an EMA: with decay 0.3, the second job weighs
// 0.3 and the first 0.7, so the profile tracks workload shifts instead of
// averaging over the DB's whole lifetime.
TEST(BottleneckAdvisor, DecayedProfileTracksRecentJobs) {
  CompactionScheduler advisor(Capped(), nullptr);
  advisor.AddJob(MakeProfile(8e-3, 2e-3, 1e-3));
  advisor.AddJob(MakeProfile(4e-3, 2e-3, 1e-3));
  EXPECT_EQ(2u, advisor.jobs());
  EXPECT_NEAR(6.8e-3, advisor.Profile().read(), 1e-9);

  // Many repeats of the new workload converge the EMA to it.
  for (int i = 0; i < 20; i++) {
    advisor.AddJob(MakeProfile(4e-3, 2e-3, 1e-3));
  }
  EXPECT_NEAR(4e-3, advisor.Profile().read(), 1e-5);
}

// AddJob and AdvisorJson may race (GetProperty vs the compaction thread);
// this is the single-advisor slice of the DB-level hammer test.
TEST(BottleneckAdvisor, ConcurrentAddAndReportStaysParseable) {
  CompactionScheduler advisor(Capped(), nullptr);
  std::atomic<bool> stop{false};
  std::thread reporter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      JsonValue v;
      std::string err;
      const std::string json = advisor.AdvisorJson();
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
// exactly the target the adaptive controller switches to on the same
// profile — including the Eq. 3-degenerate point (SCP) and points whose
// saturation k lies above the cap.
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
  for (const int workers : {2, 8}) {
    for (const Point& p : grid) {
      SCOPED_TRACE(std::string(p.name) + " cap " + std::to_string(workers));
      Options o = Capped(workers);
      o.adaptive_compaction = true;
      o.scheduler_hysteresis_jobs = 1;
      o.scheduler_warmup_jobs = 0;
      CompactionScheduler advisor(o, nullptr);
      advisor.AddJob(MakeProfile(p.read_ms * 1e-3, p.compute_ms * 1e-3,
                                 p.write_ms * 1e-3));
      const JsonValue v = MustParse(advisor);
      const JsonValue* rec = v.Find("recommendation");
      ASSERT_NE(nullptr, rec);

      const CompactionChoice g =
          advisor.Choose(advisor.Profile(), advisor.jobs());
      EXPECT_EQ(CompactionModeName(g.mode), Text(*rec, "procedure"));
      EXPECT_EQ(g.compute_parallelism, Number(*rec, "k"));
      EXPECT_LE(Number(*rec, "k"), workers);
    }
  }
}

}  // namespace
}  // namespace pipelsm
