// Validates the analytic model (Equations 1-7) against hand-computed
// values and against the paper's qualitative claims.
#include "src/model/model.h"

#include <gtest/gtest.h>

#include <limits>

namespace pipelsm::model {
namespace {

// Helper: steps with explicit read/compute/write seconds (compute split
// evenly across S2..S6) for 1 MB sub-tasks.
StepTimes Make(double read_s, double compute_s, double write_s) {
  StepTimes t;
  t.seconds[kStepRead] = read_s;
  t.seconds[kStepChecksum] = compute_s / 5;
  t.seconds[kStepDecompress] = compute_s / 5;
  t.seconds[kStepSort] = compute_s / 5;
  t.seconds[kStepCompress] = compute_s / 5;
  t.seconds[kStepRechecksum] = compute_s / 5;
  t.seconds[kStepWrite] = write_s;
  t.subtask_bytes = 1 << 20;
  return t;
}

TEST(Model, Equation1And2) {
  StepTimes t = Make(0.010, 0.020, 0.010);  // total 40 ms, bottleneck 20 ms
  EXPECT_NEAR((1 << 20) / 0.040, ScpBandwidth(t), 1);
  EXPECT_NEAR((1 << 20) / 0.020, PcpBandwidth(t), 1);
}

TEST(Model, Equation3IdealSpeedup) {
  // Balanced stages: 3-stage pipeline approaches 3x.
  StepTimes balanced = Make(0.010, 0.010, 0.010);
  EXPECT_NEAR(3.0, PcpIdealSpeedup(balanced), 1e-9);

  // One dominant stage: speedup approaches 1x.
  StepTimes skewed = Make(0.100, 0.001, 0.001);
  EXPECT_NEAR(0.102 / 0.100, PcpIdealSpeedup(skewed), 1e-9);
}

TEST(Model, Equation4And5StorageParallel) {
  // I/O-bound: read 30 ms, compute 10 ms, write 20 ms.
  StepTimes t = Make(0.030, 0.010, 0.020);
  EXPECT_FALSE(IsCpuBound(t));

  // k=2: read/k = 15 ms > compute → still I/O-bound.
  EXPECT_NEAR((1 << 20) / 0.015, SppcpBandwidth(t, 2), 1);
  // k=3: read/k = 10 ms = compute → crossover.
  EXPECT_NEAR((1 << 20) / 0.010, SppcpBandwidth(t, 3), 1);
  // k=6: compute now dominates; more disks do not help (paper §III-C.1).
  EXPECT_NEAR(SppcpBandwidth(t, 6), SppcpBandwidth(t, 60), 1);

  EXPECT_EQ(3, SppcpSaturationDisks(t));
  // Speedup bound: min(k, max(t1,t7)/compute) = min(k, 3).
  EXPECT_NEAR(2.0, SppcpIdealSpeedup(t, 2), 1e-9);
  EXPECT_NEAR(3.0, SppcpIdealSpeedup(t, 10), 1e-9);
}

TEST(Model, Equation6And7ComputeParallel) {
  // CPU-bound: read 10 ms, compute 40 ms, write 12 ms (the SSD regime).
  StepTimes t = Make(0.010, 0.040, 0.012);
  EXPECT_TRUE(IsCpuBound(t));

  EXPECT_NEAR((1 << 20) / 0.020, CppcpBandwidth(t, 2), 1);
  // k=4: compute/k = 10 ms; write 12 ms now dominates.
  EXPECT_NEAR((1 << 20) / 0.012, CppcpBandwidth(t, 4), 1);
  // More threads cannot beat the I/O wall (paper §III-C.2).
  EXPECT_NEAR(CppcpBandwidth(t, 4), CppcpBandwidth(t, 40), 1);

  EXPECT_EQ(4, CppcpSaturationThreads(t));
  EXPECT_NEAR(2.0, CppcpIdealSpeedup(t, 2), 1e-9);
  // Bound: compute/max(t1,t7) = 40/12.
  EXPECT_NEAR(0.040 / 0.012, CppcpIdealSpeedup(t, 100), 1e-9);
}

TEST(Model, PaperHddRegime) {
  // Fig 5(a): read >40%, write <20%, compute ~40% → I/O-bound.
  StepTimes hdd = Make(0.045, 0.040, 0.015);
  EXPECT_FALSE(IsCpuBound(hdd));
  // PCP ideal speedup = total/bottleneck = 100/45 ≈ 2.2x; the paper's
  // measured HDD bandwidth gain is >45%, consistent with ideal minus
  // pipeline fill/drain overheads.
  EXPECT_GT(PcpIdealSpeedup(hdd), 1.45);
}

TEST(Model, PaperSsdRegime) {
  // Fig 5(b): compute >60%, write > read → CPU-bound.
  StepTimes ssd = Make(0.015, 0.062, 0.023);
  EXPECT_TRUE(IsCpuBound(ssd));
  // Paper: PCP improves compaction bandwidth by >=65% on SSD.
  EXPECT_GT(PcpIdealSpeedup(ssd), 1.6);
}

TEST(Model, FromProfileAverages) {
  StepProfile p;
  p.subtasks = 4;
  p.nanos[kStepRead] = 40'000'000;  // 10 ms per sub-task
  p.nanos[kStepSort] = 20'000'000;  // 5 ms per sub-task
  p.nanos[kStepWrite] = 8'000'000;  // 2 ms per sub-task
  p.input_bytes = 4 << 20;

  StepTimes t = StepTimes::FromProfile(p);
  EXPECT_NEAR(0.010, t.read(), 1e-9);
  EXPECT_NEAR(0.005, t.compute(), 1e-9);
  EXPECT_NEAR(0.002, t.write(), 1e-9);
  EXPECT_NEAR(1 << 20, t.subtask_bytes, 1);
}

TEST(Model, ZeroTimesYieldZeroBandwidth) {
  StepTimes t;
  EXPECT_EQ(0, ScpBandwidth(t));
  EXPECT_EQ(0, PcpBandwidth(t));
  EXPECT_EQ(1, SppcpSaturationDisks(t));
  EXPECT_EQ(1, CppcpSaturationThreads(t));
}

TEST(Model, DescribeMentionsRegime) {
  StepTimes t = Make(0.030, 0.010, 0.020);
  std::string d = Describe(t);
  EXPECT_NE(std::string::npos, d.find("I/O-bound"));
  StepTimes c = Make(0.010, 0.050, 0.010);
  EXPECT_NE(std::string::npos, Describe(c).find("CPU-bound"));
}

// One Prescribe applies the whole §III-C rule: the cap of the regime's
// lever, the kMinParallelGain fallback to PCP, and the Eq. 3 fallback to
// SCP (also for empty and NaN profiles).
TEST(Model, PrescribeCapsTheRegimeLeverAndFallsBack) {
  const StepTimes cpu = Make(0.010, 0.080, 0.010);  // saturation k = 8
  EXPECT_EQ(CompactionMode::kCPPCP, Prescribe(cpu).procedure);
  EXPECT_EQ(8, Prescribe(cpu).k);
  EXPECT_EQ(3, Prescribe(cpu, /*max_lanes=*/1, /*max_workers=*/3).k);
  EXPECT_NEAR(3.0, Prescribe(cpu, 1, 3).gain_vs_pcp, 1e-9);

  const StepTimes io = Make(0.080, 0.010, 0.010);  // saturation k = 8
  EXPECT_EQ(CompactionMode::kSPPCP, Prescribe(io, 2, 8).procedure);
  EXPECT_EQ(2, Prescribe(io, 2, 8).k);

  const StepTimes balanced = Make(0.010, 0.010, 0.010);
  EXPECT_EQ(CompactionMode::kPCP, Prescribe(balanced, 4, 4).procedure);

  // Eq. 3 speedup 1.01: one stage is the whole job.
  const StepTimes degenerate = Make(0.100, 0.0005, 0.0005);
  EXPECT_EQ(CompactionMode::kSCP, Prescribe(degenerate, 4, 4).procedure);
  EXPECT_EQ(1, Prescribe(degenerate, 4, 4).k);
  EXPECT_EQ(CompactionMode::kSCP, Prescribe(StepTimes()).procedure);
  StepTimes garbage = cpu;
  garbage.seconds[kStepSort] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CompactionMode::kSCP, Prescribe(garbage, 4, 4).procedure);
  EXPECT_EQ(1.0, Prescribe(garbage, 4, 4).gain_vs_pcp);
}

}  // namespace
}  // namespace pipelsm::model
