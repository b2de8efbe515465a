// E7 — Figure 12(a)-(c): S-PPCP on HDD RAID0 arrays of 1..6 disks — IOPS,
// compaction bandwidth and speedup vs disk count.
//
// The paper's S-PPCP is PCP with S1 and S7 striped over a k-disk RAID0
// (Eq. 4). SimDevice stripes every transfer and S1 reads at least a full
// stripe per request, so both panels run plain PCP on Hdd(k) (DESIGN.md
// decision 14). One more column runs the executor with k reader threads
// (CompactionMode::kSPPCP, k = disks) on the same array, recording how
// the reader-lane dimension the engine dropped compares.
//
// Paper's shape to reproduce: throughput/bandwidth climb with disk count
// and stop improving once the pipeline flips from I/O-bound to CPU-bound
// (paper: at ~5 disks on their testbed; the exact knee depends on the
// compute/IO ratio and is predicted by Eq. 4 — printed alongside).
#include "bench_common.h"

using namespace pipelsm;
using namespace pipelsm::bench;

int main() {
  PrintHeader(
      "bench_sppcp — S-PPCP (PCP on a striped HDD RAID0) vs disk count",
      "Figure 12(a)-(c)",
      "expect: bandwidth/IOPS rise with disks, then plateau at the "
      "CPU-bound knee predicted by Eq. 4/5 (printed as 'model knee')");

  // PCP on one disk: speedup normalization + model input.
  CompactionBenchConfig base;
  base.device = DeviceProfile::Hdd(1);
  base.mode = CompactionMode::kPCP;
  base.upper_bytes = static_cast<uint64_t>((4 << 20) * Scale());
  base.lower_bytes = static_cast<uint64_t>((8 << 20) * Scale());
  CompactionRun pcp1 = RunCompaction(base);
  model::StepTimes steps = model::StepTimes::FromProfile(pcp1.profile);
  std::printf("model knee: %d disks (Eq. 4 crossover); max ideal speedup "
              "%.2fx\n",
              model::SppcpSaturationDisks(steps),
              model::SppcpIdealSpeedup(steps, 1000));

  std::printf("\n%-6s %14s %9s %9s %16s %12s\n", "disks", "bw MiB/s",
              "speedup", "ideal", "k readers MiB/s", "IOPS");
  for (int disks = 1; disks <= 6; disks++) {
    CompactionBenchConfig cfg = base;
    cfg.device = DeviceProfile::Hdd(disks);
    CompactionRun run = RunCompaction(cfg);

    CompactionBenchConfig readers = cfg;
    readers.mode = CompactionMode::kSPPCP;
    readers.read_parallelism = disks;
    CompactionRun readers_run = RunCompaction(readers);

    DbBenchConfig dbcfg;
    dbcfg.device = DeviceProfile::Hdd(disks);
    dbcfg.mode = CompactionMode::kPCP;
    dbcfg.num_entries = static_cast<uint64_t>(20000 * Scale());
    dbcfg.time_dilation = 3.0;
    DbRun db = RunDbFill(dbcfg);

    std::printf("%-6d %14.1f %8.2fx %8.2fx %16.1f %12.0f\n", disks,
                run.bandwidth_mib_s,
                pcp1.bandwidth_mib_s > 0
                    ? run.bandwidth_mib_s / pcp1.bandwidth_mib_s
                    : 0,
                model::SppcpIdealSpeedup(steps, disks),
                readers_run.bandwidth_mib_s, db.iops);
  }
  return 0;
}
