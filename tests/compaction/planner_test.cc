#include "src/compaction/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "src/env/sim_env.h"
#include "src/table/iterator.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : icmp_(BytewiseComparator()) {}

  CompactionInputs MakeInputs(uint64_t upper_bytes = 1 << 20,
                              uint64_t lower_bytes = 2 << 20) {
    TableGenOptions gen;
    gen.env = &env_;
    gen.icmp = &icmp_;
    gen.upper_bytes = upper_bytes;
    gen.lower_bytes = lower_bytes;
    CompactionInputs inputs;
    EXPECT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());
    return inputs;
  }

  CompactionJobOptions JobOptions(size_t subtask_bytes) {
    CompactionJobOptions job;
    job.icmp = &icmp_;
    job.subtask_bytes = subtask_bytes;
    return job;
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
};

TEST_F(PlannerTest, EmptyInputsYieldNoPlans) {
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(JobOptions(64 << 10), {}, &plan).ok());
  EXPECT_TRUE(plans.empty());
}

TEST_F(PlannerTest, SingleSubTaskWhenBudgetIsHuge) {
  auto inputs = MakeInputs();
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(
      PlanSubTasks(JobOptions(1ull << 40), inputs.tables, &plan).ok());
  ASSERT_EQ(1u, plans.size());
  EXPECT_TRUE(plans[0].unbounded_lo);
  EXPECT_TRUE(plans[0].unbounded_hi);
  EXPECT_GT(plans[0].blocks.size(), 0u);
}

TEST_F(PlannerTest, SmallBudgetMakesManySubTasks) {
  auto inputs = MakeInputs();
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(JobOptions(64 << 10), inputs.tables, &plan).ok());
  EXPECT_GT(plans.size(), 10u);
}

TEST_F(PlannerTest, PlansAreOrderedAndContiguous) {
  auto inputs = MakeInputs();
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(JobOptions(128 << 10), inputs.tables, &plan).ok());
  ASSERT_GT(plans.size(), 2u);

  const Comparator* ucmp = icmp_.user_comparator();
  EXPECT_TRUE(plans.front().unbounded_lo);
  EXPECT_TRUE(plans.back().unbounded_hi);
  for (size_t i = 0; i < plans.size(); i++) {
    EXPECT_EQ(i, plans[i].seq);
    if (i > 0) {
      // Each plan's lo is the previous plan's hi.
      ASSERT_FALSE(plans[i].unbounded_lo);
      ASSERT_FALSE(plans[i - 1].unbounded_hi);
      EXPECT_EQ(plans[i - 1].hi_user_key, plans[i].lo_user_key);
    }
    if (!plans[i].unbounded_lo && !plans[i].unbounded_hi) {
      EXPECT_LT(
          ucmp->Compare(plans[i].lo_user_key, plans[i].hi_user_key), 0);
    }
  }
}

TEST_F(PlannerTest, EveryInputBlockIsCovered) {
  auto inputs = MakeInputs();
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(JobOptions(128 << 10), inputs.tables, &plan).ok());

  // Count distinct blocks per table in the inputs.
  size_t total_blocks = 0;
  for (const auto& t : inputs.tables) {
    std::unique_ptr<Iterator> it(t->NewIndexIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) total_blocks++;
  }

  // Collect distinct (table, offset) pairs across plans.
  std::set<std::pair<int, uint64_t>> covered;
  uint64_t unique_bytes = 0;
  for (const auto& p : plans) {
    for (const auto& br : p.blocks) {
      if (covered.insert({br.table_index, br.handle.offset()}).second) {
        unique_bytes += br.handle.size() + kBlockTrailerSize;
      }
    }
  }
  EXPECT_EQ(total_blocks, covered.size());

  // The job's input size counts a boundary block once, although two
  // sub-tasks list it.
  EXPECT_EQ(unique_bytes, plan.input_bytes);
}

// With each table's smallest user key given, a table's first data block
// is listed only in the sub-tasks that overlap [smallest, first
// separator], not in every sub-task before it. The job reads the same
// distinct blocks, so input_bytes does not change.
TEST_F(PlannerTest, FirstBlockIsBoundedByTheTablesSmallestKey) {
  auto inputs = MakeInputs();
  const Comparator* ucmp = icmp_.user_comparator();
  CompactionJobOptions job = JobOptions(64 << 10);
  CompactionPlan unbounded;
  ASSERT_TRUE(PlanSubTasks(job, inputs.tables, &unbounded).ok());

  std::vector<std::string> first_separator;
  for (const auto& t : inputs.tables) {
    std::unique_ptr<Iterator> it(t->NewIterator(TableReadOptions()));
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    job.input_smallest_user_keys.push_back(
        ExtractUserKey(it->key()).ToString());
    std::unique_ptr<Iterator> index(t->NewIndexIterator());
    index->SeekToFirst();
    ASSERT_TRUE(index->Valid());
    first_separator.push_back(ExtractUserKey(index->key()).ToString());
  }
  CompactionPlan plan;
  ASSERT_TRUE(PlanSubTasks(job, inputs.tables, &plan).ok());
  ASSERT_GT(plan.subtasks.size(), 10u);
  EXPECT_EQ(unbounded.input_bytes, plan.input_bytes);
  // A table's first block is listed exactly where it overlaps.
  for (const auto& p : plan.subtasks) {
    for (size_t t = 0; t < inputs.tables.size(); t++) {
      const std::string& smallest = job.input_smallest_user_keys[t];
      const bool overlaps =
          (p.unbounded_hi || ucmp->Compare(smallest, p.hi_user_key) <= 0) &&
          (p.unbounded_lo ||
           ucmp->Compare(first_separator[t], p.lo_user_key) > 0);
      bool has_first = false;
      for (const auto& br : p.blocks) {
        if (br.table_index == static_cast<int>(t) &&
            br.handle.offset() == 0) {
          has_first = true;
        }
      }
      EXPECT_EQ(overlaps, has_first) << "sub-task " << p.seq << " table " << t;
    }
  }
  size_t listed = 0, listed_unbounded = 0;
  for (const auto& p : unbounded.subtasks) listed_unbounded += p.blocks.size();
  for (const auto& p : plan.subtasks) listed += p.blocks.size();
  EXPECT_LT(listed, listed_unbounded);
}

TEST_F(PlannerTest, SubTaskSizesNearBudget) {
  auto inputs = MakeInputs(2 << 20, 4 << 20);
  const size_t budget = 256 << 10;
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(JobOptions(budget), inputs.tables, &plan).ok());
  ASSERT_GT(plans.size(), 2u);
  // All but the last sub-task should be within ~3x of the budget (boundary
  // blocks can spill).
  for (size_t i = 0; i + 1 < plans.size(); i++) {
    uint64_t bytes = 0;
    for (const auto& br : plans[i].blocks) bytes += br.handle.size();
    EXPECT_GT(bytes, budget / 4) << i;
    EXPECT_LT(bytes, budget * 3) << i;
  }
}

TEST_F(PlannerTest, RangeIsBaseLevelCallbackApplied) {
  auto inputs = MakeInputs();
  CompactionJobOptions job = JobOptions(128 << 10);
  int calls = 0;
  job.range_is_base_level = [&calls](const SubTaskPlan& plan) {
    calls++;
    return plan.seq % 2 == 0;
  };
  CompactionPlan plan;
  const std::vector<SubTaskPlan>& plans = plan.subtasks;
  ASSERT_TRUE(PlanSubTasks(job, inputs.tables, &plan).ok());
  EXPECT_EQ(static_cast<int>(plans.size()), calls);
  for (const auto& p : plans) {
    EXPECT_EQ(p.seq % 2 == 0, p.drop_deletions);
  }
}

// The planned bytes S1 reads for one sub-task.
uint64_t PlannedBytes(const SubTaskPlan& p) {
  uint64_t bytes = 0;
  for (const auto& br : p.blocks) {
    bytes += br.handle.size() + kBlockTrailerSize;
  }
  return bytes;
}

// Planned bytes of the largest sub-task, and the gap between the
// heaviest and the lightest group.
uint64_t Largest(const CompactionPlan& plan) {
  uint64_t largest = 0;
  for (const auto& p : plan.subtasks) {
    largest = std::max(largest, PlannedBytes(p));
  }
  return largest;
}

uint64_t Spread(const std::vector<CompactionPlan>& groups) {
  uint64_t lo = UINT64_MAX, hi = 0;
  for (const CompactionPlan& g : groups) {
    uint64_t bytes = 0;
    for (const auto& p : g.subtasks) bytes += PlannedBytes(p);
    lo = std::min(lo, bytes);
    hi = std::max(hi, bytes);
  }
  return hi - lo;
}

// The split contract (planner.h): min(want, sub-tasks / 2) contiguous
// groups (one when that is below two) that cover every sub-task once in
// key order, each renumbered from 0 and holding at least two sub-tasks,
// with input_bytes adding up to the plan's.
void ExpectValidSplit(const CompactionPlan& plan, int want,
                      const std::vector<CompactionPlan>& groups) {
  const size_t m = plan.subtasks.size();
  const size_t n = std::min<size_t>(want, m / 2);
  ASSERT_EQ(n < 2 ? 1 : n, groups.size());
  size_t next = 0;  // the plan's next sub-task
  uint64_t input_bytes = 0;
  for (const CompactionPlan& g : groups) {
    if (groups.size() > 1) {
      EXPECT_GE(g.subtasks.size(), 2u);
    }
    for (size_t i = 0; i < g.subtasks.size(); i++, next++) {
      ASSERT_LT(next, m);
      const SubTaskPlan& got = g.subtasks[i];
      const SubTaskPlan& orig = plan.subtasks[next];
      EXPECT_EQ(i, got.seq);
      EXPECT_EQ(orig.unbounded_lo, got.unbounded_lo);
      EXPECT_EQ(orig.lo_user_key, got.lo_user_key);
      EXPECT_EQ(orig.unbounded_hi, got.unbounded_hi);
      EXPECT_EQ(orig.hi_user_key, got.hi_user_key);
      EXPECT_EQ(orig.drop_deletions, got.drop_deletions);
      ASSERT_EQ(orig.blocks.size(), got.blocks.size());
      for (size_t b = 0; b < got.blocks.size(); b++) {
        EXPECT_EQ(orig.blocks[b].table_index, got.blocks[b].table_index);
        EXPECT_EQ(orig.blocks[b].handle.offset(),
                  got.blocks[b].handle.offset());
      }
    }
    input_bytes += g.input_bytes;
  }
  EXPECT_EQ(m, next);
  EXPECT_EQ(plan.input_bytes, input_bytes);
  EXPECT_EQ(plan.plan_nanos, groups[0].plan_nanos);
}

// A plan of sub-tasks with the given planned bytes, one block each;
// sub-task i covers ("k<i-1>", "k<i>"]. With `shared`, each also lists
// the next sub-task's block, the way the planner lists a boundary block
// in both sub-tasks it straddles.
CompactionPlan SyntheticPlan(const std::vector<uint64_t>& bytes,
                             bool shared = false) {
  CompactionPlan plan;
  for (size_t i = 0; i < bytes.size(); i++) {
    SubTaskPlan p;
    p.seq = i;
    p.unbounded_lo = i == 0;
    if (i > 0) p.lo_user_key = "k" + std::to_string(1000 + i - 1);
    p.unbounded_hi = i + 1 == bytes.size();
    if (i + 1 < bytes.size()) p.hi_user_key = "k" + std::to_string(1000 + i);
    for (size_t b = i; b < bytes.size() && b <= i + (shared ? 1 : 0); b++) {
      BlockRead br;
      br.handle.set_offset(b << 20);
      br.handle.set_size(bytes[b] - kBlockTrailerSize);
      p.blocks.push_back(br);
    }
    plan.input_bytes += bytes[i];
    plan.subtasks.push_back(p);
  }
  plan.plan_nanos = 12345;
  return plan;
}

// Real plans have near-equal sub-tasks: every width splits them into
// groups within two sub-tasks of each other, and within one at the widths
// of the sub-compaction tests and bench_ablation A7.
TEST_F(PlannerTest, SplitDealsOutTheRealPlan) {
  auto inputs = MakeInputs();
  for (size_t subtask_bytes : {32 << 10, 64 << 10}) {
    CompactionPlan plan;
    ASSERT_TRUE(
        PlanSubTasks(JobOptions(subtask_bytes), inputs.tables, &plan).ok());
    ASSERT_GT(plan.subtasks.size(), 16u);
    for (int want = 1; want <= 16; want++) {
      SCOPED_TRACE(std::to_string(subtask_bytes) + " / " +
                   std::to_string(want));
      const std::vector<CompactionPlan> groups = SplitPlan(plan, want);
      ExpectValidSplit(plan, want, groups);
      EXPECT_LE(Spread(groups), (want <= 4 ? 1 : 2) * Largest(plan));
    }
  }
  // Equal sub-tasks split exactly evenly.
  const CompactionPlan even = SyntheticPlan(std::vector<uint64_t>(8, 100));
  const std::vector<CompactionPlan> groups = SplitPlan(even, 4);
  ExpectValidSplit(even, 4, groups);
  EXPECT_EQ(0u, Spread(groups));
}

TEST_F(PlannerTest, SplitNeedsTwoSubTasksPerGroup) {
  for (size_t m = 0; m <= 9; m++) {
    SCOPED_TRACE(m);
    const CompactionPlan plan =
        SyntheticPlan(std::vector<uint64_t>(m, 100), /*shared=*/true);
    ExpectValidSplit(plan, 8, SplitPlan(plan, 8));
  }
}

TEST_F(PlannerTest, SplitKeepsTheFloorOverBalance) {
  // Two sub-tasks per group forces 1000+1000 against 100+100: the split
  // still runs two ways, although no cut balances it.
  const CompactionPlan lopsided = SyntheticPlan({1000, 1000, 100, 100});
  const std::vector<CompactionPlan> groups = SplitPlan(lopsided, 2);
  ExpectValidSplit(lopsided, 2, groups);
  EXPECT_EQ(1800u, Spread(groups));

  // Random sizes, some far apart: the contract holds at every width, and
  // sub-tasks within 2x of each other (the planner's shape) stay within
  // two sub-tasks of each other.
  uint32_t rng = 42;
  auto next = [&rng](uint32_t bound) {
    rng = rng * 1664525u + 1013904223u;
    return (rng >> 8) % bound;
  };
  for (int round = 0; round < 400; round++) {
    const bool near_equal = round % 2 == 0;
    std::vector<uint64_t> bytes(2 + next(60));
    for (uint64_t& b : bytes) {
      b = kBlockTrailerSize + (near_equal ? 500 + next(500) : 1 + next(999));
    }
    const int want = 1 + next(16);
    SCOPED_TRACE(round);
    const CompactionPlan plan = SyntheticPlan(bytes, round % 4 < 2);
    const std::vector<CompactionPlan> groups = SplitPlan(plan, want);
    ExpectValidSplit(plan, want, groups);
    if (near_equal) {
      EXPECT_LE(Spread(groups), 2 * Largest(plan));
    }
  }
}

TEST_F(PlannerTest, MissingIcmpRejected) {
  CompactionJobOptions job;
  CompactionPlan plan;
  EXPECT_TRUE(PlanSubTasks(job, {}, &plan).IsInvalidArgument());
}

}  // namespace
}  // namespace pipelsm
