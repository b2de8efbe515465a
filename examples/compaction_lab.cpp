// Compaction lab: the paper's core experiment in miniature, against the
// library's public compaction API.
//
// Builds an upper/lower component pair on a simulated device, runs the
// same compaction through all four procedures, and prints each one's
// per-step breakdown, bandwidth and the analytic model's prediction —
// a minimal template for anyone extending the executor.
//
//   ./compaction_lab [hdd|ssd]    (default ssd)
#include <cstdio>
#include <cstring>

#include "src/compaction/executor.h"
#include "src/env/sim_env.h"
#include "src/model/model.h"
#include "src/workload/table_gen.h"

using namespace pipelsm;

int main(int argc, char** argv) {
  const bool hdd = argc > 1 && std::strcmp(argv[1], "hdd") == 0;
  const DeviceProfile device =
      hdd ? DeviceProfile::Hdd() : DeviceProfile::Ssd();
  std::printf("device: %s\n", device.name.c_str());

  SimEnv env(device);
  InternalKeyComparator icmp(BytewiseComparator());

  // One compaction's worth of inputs: a 4 MB upper component whose keys
  // rewrite half of an 8 MB lower component.
  TableGenOptions gen;
  gen.env = &env;
  gen.icmp = &icmp;
  gen.upper_bytes = 4 << 20;
  gen.lower_bytes = 8 << 20;
  CompactionInputs inputs;
  Status s = GenerateCompactionInputs(gen, &inputs);
  if (!s.ok()) {
    std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("inputs: %zu tables, %.1f MiB, %llu entries\n\n",
              inputs.tables.size(), inputs.total_bytes / 1048576.0,
              static_cast<unsigned long long>(inputs.total_entries));

  CompactionJobOptions job;
  job.icmp = &icmp;
  job.subtask_bytes = 512 << 10;

  struct Case {
    CompactionMode mode;
    int readers, computers;
  } cases[] = {
      {CompactionMode::kSCP, 1, 1},
      {CompactionMode::kPCP, 1, 1},
      {CompactionMode::kSPPCP, 3, 1},
      {CompactionMode::kCPPCP, 1, 3},
  };

  StepProfile scp_profile;
  for (const Case& c : cases) {
    job.read_parallelism = c.readers;
    job.compute_parallelism = c.computers;
    auto executor = NewCompactionExecutor(c.mode);

    CountingSink sink(&env, std::string("/lab-") + executor->name());
    StepProfile profile;
    s = executor->Run(job, inputs.tables, &sink, &profile);
    if (!s.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", executor->name(),
                   s.ToString().c_str());
      return 1;
    }
    if (c.mode == CompactionMode::kSCP) scp_profile = profile;

    std::printf("=== %s (readers=%d, computers=%d) ===\n", executor->name(),
                c.readers, c.computers);
    std::printf("%s", profile.ToString().c_str());
    std::printf("  wall bandwidth: %.1f MiB/s across %llu output tables\n\n",
                profile.WallBandwidth() / 1048576.0,
                static_cast<unsigned long long>(sink.outputs().size()));
  }

  model::StepTimes t = model::StepTimes::FromProfile(scp_profile);
  std::printf("analytic model (from the SCP profile):\n  %s\n",
              model::Describe(t).c_str());
  std::printf("  S-PPCP saturates at %d disks; C-PPCP at %d threads\n",
              model::SppcpSaturationDisks(t),
              model::CppcpSaturationThreads(t));
  return 0;
}
