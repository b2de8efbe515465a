// bench_paper — the paper's evaluation (§IV), one figure per id of
// DESIGN.md §3's experiment index (kFigures below).
//
// Usage: bench_paper --figure=<id>|all. Each figure prints the series the
// paper plots under its "reproduces:" and "expect:" lines, plus the
// analytic model's prediction where the paper gives one, then a
// "lateness:" line: the figure's device requests and how late, on
// average, each woke past its modelled completion. EXPERIMENTS.md records
// what each showed. PIPELSM_BENCH_SCALE scales every dataset.
#include <cstring>
#include <functional>
#include <initializer_list>

#include "bench_common.h"
#include "tools/flags.h"

using namespace pipelsm;
using namespace pipelsm::bench;

namespace {

// The figures' executor input: an upper component of `upper_mib` over a
// lower one twice its size (paper Fig 11(a): 4 MB over 8 MB), scaled.
CompactionBenchConfig Input(const DeviceProfile& device, int upper_mib = 4) {
  CompactionBenchConfig cfg;
  cfg.device = device;
  cfg.upper_bytes = static_cast<uint64_t>((upper_mib << 20) * Scale());
  cfg.lower_bytes = static_cast<uint64_t>(((2 * upper_mib) << 20) * Scale());
  return cfg;
}

double Percent(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// E1-E3: one table per device, HDD (panel a) then SSD (panel b); `table`
// runs SCP on the device and prints the figure's rows.
void PerDevice(const char* fig,
               const std::function<void(const DeviceProfile&)>& table) {
  std::printf("\n--- HDD (Fig %sa) ---\n", fig);
  table(DeviceProfile::Hdd());
  std::printf("\n--- SSD (Fig %sb) ---\n", fig);
  table(DeviceProfile::Ssd());
}

// E1: each step's time and share in one SCP run, then the read / compute
// / write aggregate the paper reads off Fig 5 and the model's verdict.
void Breakdown(const DeviceProfile& device) {
  const StepProfile p = RunCompaction(Input(device)).profile;
  const double total = p.TotalStepNanos();
  std::printf("%-16s %10s %8s\n", "step", "ms", "share");
  for (int i = 0; i < kNumSteps; i++) {
    std::printf("%-16s %10.2f %7.1f%%\n",
                CompactionStepName(static_cast<CompactionStep>(i)),
                p.nanos[i] * 1e-6, Percent(p.nanos[i], total));
  }
  std::printf("aggregate: read %.1f%% | compute %.1f%% | write %.1f%%\n",
              Percent(p.nanos[kStepRead], total),
              Percent(p.ComputeNanos(), total),
              Percent(p.nanos[kStepWrite], total));
  std::printf("model: %s\n",
              model::Describe(model::StepTimes::FromProfile(p)).c_str());
}

// E2: every step's share as the key-value size grows (16 B keys).
void SharesByKvSize(const DeviceProfile& device) {
  std::printf("%-8s %8s %8s %8s %8s %8s %8s %8s\n", "kv(B)", "read%",
              "crc%", "decomp%", "sort%", "comp%", "recrc%", "write%");
  for (size_t kv : {64, 128, 256, 512, 1024}) {
    CompactionBenchConfig cfg = Input(device, 2);
    cfg.value_size = kv - cfg.key_size;
    const StepProfile p = RunCompaction(cfg).profile;
    const double total = p.TotalStepNanos();
    std::printf("%-8zu", kv);
    for (int i = 0; i < kNumSteps; i++) {
      std::printf(" %7.1f%%", Percent(p.nanos[i], total));
    }
    std::printf("\n");
  }
}

// E3: read / compute / write shares and SCP bandwidth as the sub-task
// (= I/O) size grows.
void SharesBySubtask(const DeviceProfile& device) {
  std::printf("%-10s %8s %9s %8s %12s\n", "subtask", "read%", "compute%",
              "write%", "B_scp MiB/s");
  for (size_t subtask_kb : {64, 128, 256, 512, 1024, 2048, 4096}) {
    CompactionBenchConfig cfg = Input(device);
    cfg.subtask_bytes = subtask_kb << 10;
    const StepProfile p = RunCompaction(cfg).profile;
    const double total = p.TotalStepNanos();
    std::printf("%6zuKB   %7.1f%% %8.1f%% %7.1f%% %12.1f\n", subtask_kb,
                Percent(p.nanos[kStepRead], total),
                Percent(p.ComputeNanos(), total),
                Percent(p.nanos[kStepWrite], total),
                ToMiB(p.SequentialBandwidth()));
  }
}

// E4: DB fills under SCP and PCP (median of 3) over a dataset doubling
// three times: IOPS, compaction bandwidth, both speedups and Eq. 3's
// ideal from the SCP fill's step times. The paper sweeps 10M-80M entries;
// this sweep is scaled down proportionally.
void DbScpVsPcp(const char* label, const DeviceProfile& device,
                size_t subtask_bytes) {
  std::printf("\n--- %s ---\n", label);
  std::printf("%-10s %12s %12s %14s %14s %9s %9s %9s\n", "entries",
              "SCP IOPS", "PCP IOPS", "SCP bw MiB/s", "PCP bw MiB/s",
              "IOPS spd", "bw spd", "ideal");
  const uint64_t base = static_cast<uint64_t>(10000 * Scale());
  for (uint64_t entries : {base, 2 * base, 4 * base, 8 * base}) {
    DbRun runs[2];
    for (int m = 0; m < 2; m++) {
      DbBenchConfig cfg;
      cfg.device = device;
      cfg.mode = m == 0 ? CompactionMode::kSCP : CompactionMode::kPCP;
      cfg.num_entries = entries;
      cfg.subtask_bytes = subtask_bytes;
      cfg.time_dilation = 3.0;  // paper's writer/compaction core separation
      runs[m] = RunDbFillMedian(cfg);
    }
    const model::StepTimes scp_steps =
        model::StepTimes::FromProfile(runs[0].metrics.profile);
    std::printf("%-10llu %12.0f %12.0f %14.1f %14.1f %8.2fx %8.2fx %8.2fx\n",
                static_cast<unsigned long long>(entries), runs[0].iops,
                runs[1].iops, runs[0].compaction_mib_s,
                runs[1].compaction_mib_s, Ratio(runs[1].iops, runs[0].iops),
                Ratio(runs[1].compaction_mib_s, runs[0].compaction_mib_s),
                model::PcpIdealSpeedup(scp_steps));
  }
}

// E5, E6: executor bandwidth of SCP vs PCP (median of 3) at each point of
// one axis, with PCP's sub-task count. `at` gives the point's input.
void ScpVsPcp(const char* axis, const char* unit,
              std::initializer_list<int> points,
              const std::function<CompactionBenchConfig(int)>& at) {
  std::printf("%-10s %14s %14s %9s %10s\n", axis, "SCP MiB/s", "PCP MiB/s",
              "speedup", "subtasks");
  for (int x : points) {
    CompactionRun runs[2];
    for (int m = 0; m < 2; m++) {
      CompactionBenchConfig cfg = at(x);
      cfg.mode = m == 0 ? CompactionMode::kSCP : CompactionMode::kPCP;
      runs[m] = RunCompactionMedian(cfg);
    }
    std::printf("%6d%s   %14.1f %14.1f %8.2fx %10llu\n", x, unit,
                runs[0].bandwidth_mib_s, runs[1].bandwidth_mib_s,
                Ratio(runs[1].bandwidth_mib_s, runs[0].bandwidth_mib_s),
                static_cast<unsigned long long>(runs[1].profile.subtasks));
  }
}

// E7, E8: the parallelism sweep k = 1..6. The k = 1 run of `base` gives
// the speedup's denominator and the model's step times, whose knee and
// ideal speedup print alongside; `at` sets the executor and DB configs
// for k. Each k also fills a DB for the IOPS column, and with
// `k_readers` runs k S1 reader threads on the same device.
struct KSweep {
  const char* axis;     // "disks" or "threads"
  const char* knee_eq;  // the model's crossover equation
  int (*knee)(const model::StepTimes&);
  double (*ideal)(const model::StepTimes&, int);
  bool k_readers;
};

void RunKSweep(const KSweep& sweep, const CompactionBenchConfig& base,
               const std::function<void(int, CompactionBenchConfig*,
                                        DbBenchConfig*)>& at) {
  const CompactionRun one = RunCompaction(base);
  const model::StepTimes steps = model::StepTimes::FromProfile(one.profile);
  std::printf("model knee: %d %s (%s crossover); max ideal speedup %.2fx\n",
              sweep.knee(steps), sweep.axis, sweep.knee_eq,
              sweep.ideal(steps, 1000));

  const int w = static_cast<int>(std::strlen(sweep.axis)) + 1;
  std::printf("\n%-*s %14s %9s %9s", w, sweep.axis, "bw MiB/s", "speedup",
              "ideal");
  if (sweep.k_readers) std::printf(" %16s", "k readers MiB/s");
  std::printf(" %12s\n", "IOPS");
  for (int k = 1; k <= 6; k++) {
    CompactionBenchConfig cfg = base;
    DbBenchConfig dbcfg;
    at(k, &cfg, &dbcfg);
    const CompactionRun run = RunCompaction(cfg);
    std::printf("%-*d %14.1f %8.2fx %8.2fx", w, k, run.bandwidth_mib_s,
                Ratio(run.bandwidth_mib_s, one.bandwidth_mib_s),
                sweep.ideal(steps, k));
    if (sweep.k_readers) {
      CompactionBenchConfig readers = cfg;
      readers.mode = CompactionMode::kSPPCP;
      readers.read_parallelism = k;
      std::printf(" %16.1f", RunCompaction(readers).bandwidth_mib_s);
    }
    std::printf(" %12.0f\n", RunDbFill(dbcfg).iops);
  }
}

// E7: the paper's S-PPCP is PCP with S1 and S7 striped over a k-disk
// RAID0 (Eq. 4). SimDevice stripes every transfer and S1 reads at least
// a full stripe per request, so both panels run plain PCP on Hdd(k)
// (DESIGN.md decision 14); the "k readers" column records how the
// executor's reader-lane dimension, which the engine dropped, compares.
void SppcpSweep() {
  CompactionBenchConfig base = Input(DeviceProfile::Hdd(1));
  base.mode = CompactionMode::kPCP;
  RunKSweep({"disks", "Eq. 4", model::SppcpSaturationDisks,
             model::SppcpIdealSpeedup, /*k_readers=*/true},
            base, [](int k, CompactionBenchConfig* cfg, DbBenchConfig* db) {
              cfg->device = DeviceProfile::Hdd(k);
              db->device = DeviceProfile::Hdd(k);
              db->mode = CompactionMode::kPCP;
              db->num_entries = static_cast<uint64_t>(20000 * Scale());
              db->time_dilation = 3.0;
            });
}

// E8 runs in slow motion (DESIGN.md §Substitutions): each compute stage
// sleeps 7x its real CPU time and the SSD model is slowed by the same
// factor, preserving every stage-time ratio while letting k compute
// workers overlap for real on a host with few cores.
void CppcpSweep() {
  constexpr double kDilation = 8.0;
  CompactionBenchConfig base = Input(DeviceProfile::Ssd(), 2);
  base.mode = CompactionMode::kPCP;
  base.time_dilation = kDilation;
  base.subtask_bytes = 256 << 10;
  RunKSweep({"threads", "Eq. 6", model::CppcpSaturationThreads,
             model::CppcpIdealSpeedup, /*k_readers=*/false},
            base, [](int k, CompactionBenchConfig* cfg, DbBenchConfig* db) {
              cfg->mode = k == 1 ? CompactionMode::kPCP
                                 : CompactionMode::kCPPCP;
              cfg->compute_parallelism = k;
              db->device = DeviceProfile::Ssd();
              db->mode = cfg->mode;
              db->compute_parallelism = k;
              db->time_dilation = kDilation;
              db->num_entries = static_cast<uint64_t>(10000 * Scale());
            });
}

// E9: Eqs. 1-7 against measurement. One SCP run's step times predict
// each executor's bandwidth, which a run of that executor then measures,
// on a single disk and (for S-PPCP) a 3-disk array of the same kind.
void ModelVsMeasured(const char* label, const DeviceProfile& single,
                     const DeviceProfile& striped3) {
  std::printf("\n--- %s ---\n", label);
  const CompactionBenchConfig base = Input(single);
  const CompactionRun scp = RunCompaction(base);
  const model::StepTimes t = model::StepTimes::FromProfile(scp.profile);

  std::printf("measured step times: %s\n", model::Describe(t).c_str());
  std::printf("%-28s %16s %16s %9s\n", "executor", "predicted MiB/s",
              "measured MiB/s", "ratio");
  auto row = [](const char* name, double predicted, const CompactionRun& run) {
    std::printf("%-28s %16.1f %16.1f %8.2f\n", name, ToMiB(predicted),
                run.bandwidth_mib_s,
                predicted > 0 ? run.bandwidth_mib_s / ToMiB(predicted) : 0);
  };
  row("SCP (Eq.1)", model::ScpBandwidth(t), scp);

  CompactionBenchConfig pcp = base;
  pcp.mode = CompactionMode::kPCP;
  row("PCP (Eq.2)", model::PcpBandwidth(t), RunCompaction(pcp));

  CompactionBenchConfig sppcp = base;
  sppcp.device = striped3;
  sppcp.mode = CompactionMode::kSPPCP;
  sppcp.read_parallelism = 3;
  row("S-PPCP k=3 (Eq.4)", model::SppcpBandwidth(t, 3), RunCompaction(sppcp));

  // C-PPCP is compared in the x8 slow-motion domain (as in E8), against
  // a prediction from a dilated SCP run's step times.
  CompactionBenchConfig dilated = base;
  dilated.time_dilation = 8.0;
  const model::StepTimes td =
      model::StepTimes::FromProfile(RunCompaction(dilated).profile);
  CompactionBenchConfig cppcp = dilated;
  cppcp.mode = CompactionMode::kCPPCP;
  cppcp.compute_parallelism = 3;
  row("C-PPCP k=3 (Eq.6, x8 domain)", model::CppcpBandwidth(td, 3),
      RunCompaction(cppcp));
}

// E10: the paper's "+77% bandwidth / +62% throughput" (PCP) and "+89% /
// +64%" (PPCP) over SCP on SSD. Bandwidth is measured at the executor
// level (isolated, like §IV-C): SCP and PCP in real time, and the C-PPCP
// margin over PCP in the x8 slow-motion domain where k compute workers
// can overlap, applied multiplicatively. Throughput is measured in the
// DB, every configuration in the same x3 domain.
void Headline() {
  const struct {
    const char* name;
    CompactionMode mode;
    int computers;
  } configs[] = {
      {"SCP (baseline)", CompactionMode::kSCP, 1},
      {"PCP", CompactionMode::kPCP, 1},
      {"C-PPCP k=2", CompactionMode::kCPPCP, 2},
  };
  auto run_bw = [](CompactionMode mode, int computers, double dilation) {
    CompactionBenchConfig cfg = Input(DeviceProfile::Ssd());
    cfg.mode = mode;
    cfg.compute_parallelism = computers;
    cfg.time_dilation = dilation;
    return RunCompactionMedian(cfg).bandwidth_mib_s;
  };

  double bw[3] = {};
  bw[0] = run_bw(CompactionMode::kSCP, 1, 1.0);
  bw[1] = run_bw(CompactionMode::kPCP, 1, 1.0);
  const double pcp_dilated = run_bw(CompactionMode::kPCP, 1, 8.0);
  const double cppcp_dilated = run_bw(CompactionMode::kCPPCP, 2, 8.0);
  bw[2] = bw[1] * (pcp_dilated > 0 ? cppcp_dilated / pcp_dilated : 1.0);

  double iops[3] = {};
  for (int i = 0; i < 3; i++) {
    DbBenchConfig cfg;
    cfg.device = DeviceProfile::Ssd();
    cfg.mode = configs[i].mode;
    cfg.compute_parallelism = configs[i].computers;
    cfg.time_dilation = 3.0;
    cfg.num_entries = static_cast<uint64_t>(40000 * Scale());
    iops[i] = RunDbFillMedian(cfg).iops;
  }

  std::printf("%-16s %16s %10s %12s %10s\n", "configuration",
              "bw MiB/s", "bw gain", "IOPS (x3)", "IOPS gain");
  for (int i = 0; i < 3; i++) {
    std::printf("%-16s %16.1f %9.0f%% %12.0f %9.0f%%\n", configs[i].name,
                bw[i], bw[0] > 0 ? 100.0 * (bw[i] / bw[0] - 1) : 0, iops[i],
                iops[0] > 0 ? 100.0 * (iops[i] / iops[0] - 1) : 0);
  }
  std::printf("\npaper:            PCP +77%% bandwidth / +62%% throughput;"
              "  PPCP +89%% / +64%%\n");
}

struct Figure {
  const char* id;
  const char* title;
  const char* reproduces;
  const char* expect;
  void (*run)();
};

const Figure kFigures[] = {
    {"E1", "SCP execution-time breakdown",
     "Figure 5(a) on HDD, Figure 5(b) on SSD",
     "expect: HDD read>40%, I/O>60% (I/O-bound); "
     "SSD compute>60%, write>read (CPU-bound)",
     [] { PerDevice("5", Breakdown); }},
    {"E2", "SCP breakdown vs key-value size",
     "Figure 8(a) on HDD, Figure 8(b) on SSD",
     "expect: sort share falls as kv size grows; crc steps <5%; "
     "compress is the costliest compute step",
     [] { PerDevice("8", SharesByKvSize); }},
    {"E3", "SCP breakdown vs sub-task size",
     "Figure 9(a) on HDD, Figure 9(b) on SSD",
     "expect: write share falls as sub-task size grows; HDD stays "
     "I/O-bound, SSD stays CPU-bound",
     [] { PerDevice("9", SharesBySubtask); }},
    {"E4", "SCP vs PCP across dataset sizes",
     "Figure 10(a)-(c) on HDD, Figure 10(d)-(f) on SSD",
     "expect: PCP IOPS +>=25% (HDD) / +>=45% (SSD); PCP compaction "
     "bandwidth +>=45% (HDD) / +>=65% (SSD); measured < ideal (Eq. 3)",
     [] {
       // Sub-task sizes match each device's regime: seek-dominated HDDs
       // need larger I/Os (Fig 9a), SSDs peak near small-to-middle sizes
       // (Fig 11a).
       DbScpVsPcp("HDD (Fig 10 a-c)", DeviceProfile::Hdd(), 256 << 10);
       DbScpVsPcp("SSD (Fig 10 d-f)", DeviceProfile::Ssd(), 64 << 10);
     }},
    {"E5", "bandwidth vs sub-task size (SSD)", "Figure 11(a)",
     "expect: SCP monotonically rising; PCP peaking at a middle "
     "sub-task size (paper: 512 KB), above SCP everywhere",
     [] {
       ScpVsPcp("subtask", "KB", {64, 128, 256, 512, 1024, 2048, 4096},
                [](int kb) {
                  CompactionBenchConfig cfg = Input(DeviceProfile::Ssd());
                  cfg.subtask_bytes = static_cast<size_t>(kb) << 10;
                  return cfg;
                });
     }},
    {"E6", "bandwidth vs compaction size (SSD)", "Figure 11(b)",
     "expect: SCP flat; PCP rising until ~6 sub-tasks then flat; "
     "PCP above SCP for all sizes",
     [] {
       ScpVsPcp("input", "MB", {1, 2, 3, 4, 5, 6, 8, 10}, [](int mb) {
         CompactionBenchConfig cfg = Input(DeviceProfile::Ssd(), mb);
         cfg.lower_bytes = 2 * cfg.upper_bytes;
         cfg.subtask_bytes = 1 << 20;  // paper: fixed 1 MB sub-tasks
         return cfg;
       });
     }},
    {"E7", "S-PPCP (PCP on a striped HDD RAID0) vs disk count",
     "Figure 12(a)-(c)",
     "expect: bandwidth/IOPS rise with disks, then plateau at the "
     "CPU-bound knee predicted by Eq. 4/5 (printed as 'model knee')",
     SppcpSweep},
    {"E8", "C-PPCP vs compute-thread count (SSD, slow-motion x8)",
     "Figure 12(d)-(f)",
     "expect: big gain at 2 threads, then an I/O-bound plateau at the "
     "knee predicted by Eq. 6/7 (printed as 'model knee')",
     CppcpSweep},
    {"E9", "analytic model vs measurement", "Equations 1-7 (Section III)",
     "expect: measured/predicted ratio near 1.0, measured a bit below "
     "prediction (pipeline fill/drain; paper: ~-10%)",
     [] {
       ModelVsMeasured("HDD", DeviceProfile::Hdd(), DeviceProfile::Hdd(3));
       ModelVsMeasured("SSD", DeviceProfile::Ssd(), DeviceProfile::Ssd(3));
     }},
    {"E10", "the paper's headline improvements (SSD)",
     "Section I / Section IV headline numbers",
     "expect: PCP bandwidth ~ +77%, IOPS ~ +62%; C-PPCP adds a "
     "further margin (paper: +89% / +64%)",
     Headline},
};

}  // namespace

int main(int argc, char** argv) {
  std::string want;
  flags::FlagSet set("bench_paper --figure=<id>|all");
  set.Add("figure", &want, "the figure to run: an id below, or all");
  set.ParseFlags(argc, argv);
  bool ran = false;
  for (const Figure& f : kFigures) {
    if (want != "all" && want != f.id) continue;
    const std::string title = std::string(f.id) + " — " + f.title;
    PrintHeader(title.c_str(), f.reproduces, f.expect);
    f.run();
    PrintLateness();
    ran = true;
  }
  if (ran) return 0;
  std::string ids = "--figure=" + want + " names no figure; ids:";
  for (const Figure& f : kFigures) {
    ids += std::string("\n  ") + f.id + "  " + f.reproduces;
  }
  set.Fail(ids);
}
