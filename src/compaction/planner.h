// Sub-task planner: partitions a compaction's key range into sub-key
// ranges of roughly subtask_bytes of input each (paper §III-B: "PCP
// partitions the compaction key range into multiple sub-key ranges; each
// sub-key range consists of one or more data blocks").
//
// Boundaries are drawn at data-block separator keys, truncated to user
// keys, so every version of a user key lands in exactly one sub-task and
// the merge's shadowing/tombstone logic stays sub-task-local. The same
// boundaries are the only seams of a key-range sub-compaction: SplitPlan
// deals a job's one plan out to its sub-jobs (docs/COMPACTION.md).
#pragma once

#include <memory>
#include <vector>

#include "src/compaction/types.h"

namespace pipelsm {

class Table;

// Fills *plan from the index blocks of `inputs`. Tables must all be open
// for the planner (and later the executor) to read. Sub-task sequence
// numbers are assigned in key order starting at 0.
Status PlanSubTasks(const CompactionJobOptions& options,
                    const std::vector<std::shared_ptr<Table>>& inputs,
                    CompactionPlan* plan);

// Cuts `plan` into N = min(want, sub-tasks / 2) contiguous groups of its
// sub-tasks, one per sub-job, or returns `plan` alone when N < 2. Every
// group holds at least two sub-tasks and ends at the sub-task boundary
// closest to an even share of the planned block bytes not yet dealt out.
// Each group is renumbered from seq 0 and counts in input_bytes only the
// blocks no earlier group lists, so the groups' input_bytes sum to
// plan.input_bytes; the first group keeps plan_nanos.
std::vector<CompactionPlan> SplitPlan(CompactionPlan plan, int want);

}  // namespace pipelsm
