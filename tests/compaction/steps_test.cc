// Direct tests of the step primitives: range filtering at sub-task
// boundaries, S1's windowed reads, the slow-motion dilation, and which
// step the output filter's build is counted under.
#include "src/compaction/steps.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/compaction/planner.h"
#include "src/env/sim_env.h"
#include "src/table/block.h"
#include "src/table/filter_policy.h"
#include "src/util/stopwatch.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

class StepsTest : public ::testing::Test {
 protected:
  StepsTest() : icmp_(BytewiseComparator()) {
    TableGenOptions gen;
    gen.env = &env_;
    gen.icmp = &icmp_;
    gen.upper_bytes = 256 << 10;
    gen.lower_bytes = 512 << 10;
    EXPECT_TRUE(GenerateCompactionInputs(gen, &inputs_).ok());
    job_.icmp = &icmp_;
    job_.subtask_bytes = 64 << 10;
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
  CompactionInputs inputs_;
  CompactionJobOptions job_;
};

TEST_F(StepsTest, BoundaryBlocksDoNotDuplicateOutput) {
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plan).ok());
  ASSERT_GT(plans.size(), 3u);

  // Total blocks listed across plans exceeds distinct blocks (boundary
  // blocks are listed by two sub-tasks)...
  size_t listed = 0;
  for (const auto& p : plans) listed += p.blocks.size();
  size_t distinct = 0;
  for (const auto& t : inputs_.tables) {
    std::unique_ptr<Iterator> it(t->NewIndexIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) distinct++;
  }
  EXPECT_GT(listed, distinct);

  // ...yet the merged outputs contain each user key exactly once, in
  // globally ascending order across sub-tasks.
  std::string prev_last;
  uint64_t entries = 0;
  WindowedReader reader(job_, inputs_.tables, plans);
  for (const auto& p : plans) {
    StepProfile profile;
    RawSubTask raw;
    ASSERT_TRUE(reader.Read(p, &raw, &profile).ok());
    ComputedSubTask computed;
    ASSERT_TRUE(ComputeSubTask(job_, std::move(raw), &computed).ok());
    if (computed.entries == 0) continue;
    Slice first_user = ExtractUserKey(computed.smallest_key);
    if (!prev_last.empty()) {
      EXPECT_GT(first_user.ToString(), prev_last);
    }
    prev_last = ExtractUserKey(computed.largest_key).ToString();
    entries += computed.entries;
  }
  // Upper rewrote half the lower keys: output = distinct user keys.
  const uint64_t distinct_keys =
      (512 << 10) / (16 + 100);  // lower component key count
  EXPECT_EQ(distinct_keys, entries);
}

TEST_F(StepsTest, ReadCoalescesContiguousBlocks) {
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plan).ok());

  env_.device()->ResetStats();
  StepProfile profile;
  RawSubTask raw;
  WindowedReader reader(job_, inputs_.tables, plans);
  ASSERT_TRUE(reader.Read(plans[1], &raw, &profile).ok());

  // Far fewer device read ops than blocks (sub-task-sized windows).
  const uint64_t ops = env_.device()->stats().read_ops.load();
  EXPECT_LT(ops, plans[1].blocks.size() / 2 + 2);
  EXPECT_GT(raw.blocks.size(), 4u);

  // And every sliced payload verifies + decodes.
  for (const auto& rb : raw.blocks) {
    ASSERT_TRUE(VerifyRawBlock(rb).ok());
    BlockContents contents;
    ASSERT_TRUE(DecodeBlock(rb.payload, &contents).ok());
    Block block(contents);
    EXPECT_GT(block.size(), 0u);
  }
}

TEST_F(StepsTest, DilationStretchesComputeUniformly) {
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plan).ok());

  StepProfile rp;
  RawSubTask raw;
  WindowedReader reader(job_, inputs_.tables, plans);
  ASSERT_TRUE(reader.Read(plans[0], &raw, &rp).ok());

  ComputedSubTask plain;
  ASSERT_TRUE(ComputeSubTask(job_, raw, &plain).ok());

  CompactionJobOptions dilated_job = job_;
  dilated_job.time_dilation = 4.0;
  Stopwatch sw;
  ComputedSubTask dilated;
  ASSERT_TRUE(ComputeSubTask(dilated_job, std::move(raw), &dilated).ok());
  const uint64_t dilated_wall = sw.ElapsedNanos();

  // Identical output bytes.
  ASSERT_EQ(plain.blocks.size(), dilated.blocks.size());
  for (size_t i = 0; i < plain.blocks.size(); i++) {
    EXPECT_EQ(plain.blocks[i].payload, dilated.blocks[i].payload);
  }

  // The run reports d x its real compute time t and sleeps at least
  // (d - 1) x t on top of spending t, so its wall time covers what it
  // reports.
  EXPECT_GT(dilated.profile.ComputeNanos(), 0u);
  EXPECT_GE(dilated_wall, dilated.profile.ComputeNanos());
}

TEST_F(StepsTest, DilatedProfileScalesDeviceNumbers) {
  DeviceProfile hdd = DeviceProfile::Hdd();
  DeviceProfile slow = DilatedProfile(hdd, 4.0);
  EXPECT_NEAR(hdd.read_bw_bps / 4, slow.read_bw_bps, 1);
  EXPECT_NEAR(hdd.write_position_us * 4, slow.write_position_us, 1e-6);
  // Dilation of 1 is identity.
  DeviceProfile same = DilatedProfile(hdd, 1.0);
  EXPECT_EQ(hdd.read_bw_bps, same.read_bw_bps);
  EXPECT_EQ(hdd.name, same.name);
}

TEST_F(StepsTest, SubTaskProfileAccountsAllSteps) {
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plan).ok());
  StepProfile profile;
  RawSubTask raw;
  WindowedReader reader(job_, inputs_.tables, plans);
  ASSERT_TRUE(reader.Read(plans[0], &raw, &profile).ok());
  ComputedSubTask computed;
  ASSERT_TRUE(ComputeSubTask(job_, std::move(raw), &computed).ok());

  EXPECT_GT(profile.nanos[kStepRead], 0u);
  EXPECT_GT(profile.bytes[kStepRead], 0u);
  for (CompactionStep s : {kStepChecksum, kStepDecompress, kStepSort,
                           kStepCompress, kStepRechecksum}) {
    EXPECT_GT(computed.profile.nanos[s], 0u) << CompactionStepName(s);
  }
  EXPECT_EQ(1u, computed.profile.subtasks);
}

// A filter policy whose CreateFilter takes at least kDelay per block.
class SlowFilterPolicy final : public FilterPolicy {
 public:
  static constexpr std::chrono::milliseconds kDelay{2};
  const char* Name() const override { return "test.SlowFilter"; }
  void CreateFilter(const Slice*, size_t, std::string* dst) const override {
    std::this_thread::sleep_for(kDelay);
    dst->append("f");
  }
  bool KeyMayMatch(const Slice&, const Slice&) const override { return true; }
};

// Building an output block's filter is merge work: it is counted under
// S4, not lost between S4's clock and S5's.
TEST_F(StepsTest, FilterBuildCountsUnderSort) {
  CompactionPlan plan;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plan).ok());
  StepProfile rp;
  RawSubTask raw;
  WindowedReader reader(job_, inputs_.tables, plan.subtasks);
  ASSERT_TRUE(reader.Read(plan.subtasks[0], &raw, &rp).ok());

  const SlowFilterPolicy slow;
  CompactionJobOptions job = job_;
  job.table.filter_policy = &slow;
  ComputedSubTask computed;
  ASSERT_TRUE(ComputeSubTask(job, std::move(raw), &computed).ok());
  ASSERT_GT(computed.blocks.size(), 0u);
  const uint64_t filter_ns =
      computed.blocks.size() *
      std::chrono::nanoseconds(SlowFilterPolicy::kDelay).count();
  EXPECT_GE(computed.profile.nanos[kStepSort], filter_ns);
}

}  // namespace
}  // namespace pipelsm
