// CompactionExecutor: runs one planned compaction end to end.
//
// One executor runs the paper's four procedures. They share the seven
// steps and the planned sub-tasks, and differ only in how the steps are
// scheduled:
//   SCP    — the LevelDB baseline: sub-tasks strictly sequential, the
//            seven steps of each executed back to back on the calling
//            thread (§III-A).
//   PCP    — 3-stage pipeline read/compute/write, one thread per stage,
//            bounded queues between stages (§III-B).
//   S-PPCP — PCP with k reader threads issuing S1 concurrently; pair with
//            a RAID0 device profile so transfers parallelize (§III-C.1).
//   C-PPCP — PCP with k compute workers; each sub-task's S2..S6 stays on
//            one worker; an ordered write stage restores key order
//            (§III-C.2).
//
// All four produce byte-identical output for the same input (tested), and
// fill a StepProfile whose per-step times feed the analytic model.
#pragma once

#include <memory>
#include <vector>

#include "src/compaction/types.h"
#include "src/db/options.h"

namespace pipelsm {

class Table;

class CompactionExecutor {
 public:
  explicit CompactionExecutor(CompactionMode mode) : mode_(mode) {}

  const char* name() const { return CompactionModeName(mode_); }

  // Plans sub-tasks from `inputs` (PlanSubTasks) and runs the plan.
  Status Run(const CompactionJobOptions& options,
             const std::vector<std::shared_ptr<Table>>& inputs,
             CompactionSink* sink, StepProfile* profile) const;

  // Runs `plan` to completion: PlanSubTasks' plan of `inputs`, or one
  // sub-job's group of it (SplitPlan). Writes outputs through `sink` and
  // accumulates step timings in *profile (wall_nanos covers the run and
  // plan.plan_nanos). A run that fails still adds what it measured to
  // *profile, but publishes nothing to CompactionJobOptions::metrics. The
  // executor fires no listener events and keeps no state between runs.
  Status Run(const CompactionJobOptions& options,
             const std::vector<std::shared_ptr<Table>>& inputs,
             CompactionPlan plan, CompactionSink* sink,
             StepProfile* profile) const;

 private:
  const CompactionMode mode_;
};

// Factory. For kPCP/kSPPCP/kCPPCP the parallelism comes from
// CompactionJobOptions (read_parallelism / compute_parallelism); SCP
// ignores both.
std::unique_ptr<CompactionExecutor> NewCompactionExecutor(CompactionMode mode);

}  // namespace pipelsm
