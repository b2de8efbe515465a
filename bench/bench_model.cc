// E9 — Equations 1-7: measured vs predicted compaction bandwidths.
//
// The paper validates its model implicitly ("the practical compaction
// bandwidth speedup is lower [than ideal] by about 10%" — pipeline
// fill/drain). This bench makes that comparison explicit for all four
// executors on both device classes.
#include "bench_common.h"

using namespace pipelsm;
using namespace pipelsm::bench;

namespace {

void RunDevice(const char* label, const DeviceProfile& single,
               const DeviceProfile& striped3) {
  std::printf("\n--- %s ---\n", label);

  CompactionBenchConfig base;
  base.device = single;
  base.mode = CompactionMode::kSCP;
  base.upper_bytes = static_cast<uint64_t>((4 << 20) * Scale());
  base.lower_bytes = static_cast<uint64_t>((8 << 20) * Scale());
  CompactionRun scp = RunCompaction(base);
  model::StepTimes t = model::StepTimes::FromProfile(scp.profile);

  std::printf("measured step times: %s\n", model::Describe(t).c_str());
  std::printf("%-28s %16s %16s %9s\n", "executor", "predicted MiB/s",
              "measured MiB/s", "ratio");

  auto row = [&](const char* name, double predicted, CompactionRun run) {
    std::printf("%-28s %16.1f %16.1f %8.2f\n", name, ToMiB(predicted),
                run.bandwidth_mib_s,
                predicted > 0 ? run.bandwidth_mib_s / ToMiB(predicted) : 0);
  };

  row("SCP (Eq.1)", model::ScpBandwidth(t), scp);

  CompactionBenchConfig pcp_cfg = base;
  pcp_cfg.mode = CompactionMode::kPCP;
  row("PCP (Eq.2)", model::PcpBandwidth(t), RunCompaction(pcp_cfg));

  CompactionBenchConfig sp_cfg = base;
  sp_cfg.device = striped3;
  sp_cfg.mode = CompactionMode::kSPPCP;
  sp_cfg.read_parallelism = 3;
  row("S-PPCP k=3 (Eq.4)", model::SppcpBandwidth(t, 3),
      RunCompaction(sp_cfg));

  // C-PPCP needs the slow-motion domain on this 1-core host (see
  // bench_paper's E8): measure a dilated SCP profile and compare a dilated
  // C-PPCP run against the prediction *in that same domain*.
  CompactionBenchConfig dil_scp = base;
  dil_scp.time_dilation = 8.0;
  model::StepTimes td =
      model::StepTimes::FromProfile(RunCompaction(dil_scp).profile);
  CompactionBenchConfig cp_cfg = base;
  cp_cfg.mode = CompactionMode::kCPPCP;
  cp_cfg.compute_parallelism = 3;
  cp_cfg.time_dilation = 8.0;
  row("C-PPCP k=3 (Eq.6, x8 domain)", model::CppcpBandwidth(td, 3),
      RunCompaction(cp_cfg));
}

}  // namespace

int main() {
  PrintHeader("bench_model — analytic model vs measurement",
              "Equations 1-7 (Section III)",
              "expect: measured/predicted ratio near 1.0, measured a bit "
              "below prediction (pipeline fill/drain; paper: ~-10%)");
  RunDevice("HDD", DeviceProfile::Hdd(), DeviceProfile::Hdd(3));
  RunDevice("SSD", DeviceProfile::Ssd(), DeviceProfile::Ssd(3));
  return 0;
}
