#include "src/compaction/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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
  // A table's first block is listed exactly where it overlaps.
  auto check = [&](const CompactionJobOptions& j, const CompactionPlan& plan) {
    for (const auto& p : plan.subtasks) {
      for (size_t t = 0; t < inputs.tables.size(); t++) {
        const std::string& smallest = j.input_smallest_user_keys[t];
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
        EXPECT_EQ(overlaps, has_first)
            << "sub-task " << p.seq << " table " << t;
      }
    }
  };
  CompactionPlan plan;
  ASSERT_TRUE(PlanSubTasks(job, inputs.tables, &plan).ok());
  ASSERT_GT(plan.subtasks.size(), 10u);
  EXPECT_EQ(unbounded.input_bytes, plan.input_bytes);
  check(job, plan);
  size_t listed = 0, listed_unbounded = 0;
  for (const auto& p : unbounded.subtasks) listed_unbounded += p.blocks.size();
  for (const auto& p : plan.subtasks) listed += p.blocks.size();
  EXPECT_LT(listed, listed_unbounded);

  // A sub-range that ends exactly at a table's smallest key still reads
  // that table's first block: the key itself is inside (lo, hi].
  CompactionJobOptions clipped = job;
  clipped.range_unbounded_hi = false;
  clipped.range_hi_user_key = *std::max_element(
      job.input_smallest_user_keys.begin(), job.input_smallest_user_keys.end());
  CompactionPlan clipped_plan;
  ASSERT_TRUE(PlanSubTasks(clipped, inputs.tables, &clipped_plan).ok());
  ASSERT_FALSE(clipped_plan.subtasks.empty());
  EXPECT_EQ(clipped.range_hi_user_key,
            clipped_plan.subtasks.back().hi_user_key);
  check(clipped, clipped_plan);
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

TEST_F(PlannerTest, MissingIcmpRejected) {
  CompactionJobOptions job;
  CompactionPlan plan;
  EXPECT_TRUE(PlanSubTasks(job, {}, &plan).IsInvalidArgument());
}

}  // namespace
}  // namespace pipelsm
