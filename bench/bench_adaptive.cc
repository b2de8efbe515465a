// bench_adaptive: closes the loop the paper leaves open.
//
// The paper's evaluation (Figs 6 and 12) shows the best compaction
// procedure flipping between C-PPCP and S-PPCP (PCP on a striped device)
// as the pipeline moves between CPU- and I/O-bound regimes — but its
// procedures are chosen offline. This bench runs a workload whose regime shifts mid-run (small
// highly compressible values, then large incompressible ones) through
// every static procedure and through the adaptive CompactionScheduler
// (docs/TUNING.md), and gates the adaptive run at >= 0.90x of the best
// static choice *per phase*: the scheduler must track the shift closely
// enough that no phase pays more than ~10% for not being pinned.
//
// Usage:
//   bench_adaptive           full sweep + gate (exit 1 on gate failure)
//   bench_adaptive --smoke   tiny adaptive-only run; prints one
//                            adaptive_decision line per compaction for
//                            CI to grep, and exits 1 unless the two
//                            phases settle on different procedures
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/obs/event_listener.h"
#include "src/workload/generator.h"

namespace pipelsm::bench {
namespace {

// Phase calibration, on the 7x-slowed striped SSD with 2.5x compute
// dilation. The dilation keeps phase 1 compute-bound: per sub-task, its
// compute step over the slower I/O step (the advisor's step_ms after
// each phase). Since the planner lists a table's first block only in
// the sub-tasks it overlaps, phase 1's sub-tasks decode fewer blocks.
// At 2x the smoke then read phase 1 at 1.06-1.76x (median 1.46x; before
// that planner change 1.28-1.64x, median 1.51x) and settled both phases
// on PCP in 4 of 28 runs (before: 0 of 26). At 2.5x phase 1 reads
// 1.20-2.30x (median 1.82x) and phase 2 0.47-0.57x, and the smoke
// settled C-PPCP then PCP in 27 of 28 runs. The full gate passed 4 of 5
// runs at 2.5x and at 2x, and 2 of 3 before that planner change; 3x
// failed it (0.83x/0.89x). The notes below are the 2x calibration of an
// older compaction path.
// The phases run in order under static PCP on a 4-core VM and
// give per-sub-task step times of read 0.40-0.45 ms / compute 0.80-1.20
// ms / write 0.42-0.48 ms in phase 1 (10x-compressible values expand
// tenfold in the merge: compute over the slower I/O stage 1.9-2.6x) and
// read 0.25-0.27 / compute 0.28-0.32 / write 0.32 ms in phase 2 (0.86-
// 0.99x). The scheduler takes C-PPCP only at a 1.1x Eq. 7 gain, so phase
// 2 runs PCP, which on this striped Env is the paper's S-PPCP. The smoke
// run keeps phase 1 at full size: halved, it held too few deep merges,
// measured 1.0-2.1x and settled on PCP in 2 of 8 runs; at full size the
// smoke reads 1.9-2.5x in phase 1 and 0.62-0.73x in phase 2. At 6x the
// full run's phase 2 read 0.88-1.01x, too close to 1.1x, so 7x is the
// centre.
constexpr double kDeviceDilation = 7.0;
constexpr double kTimeDilation = 2.5;
constexpr double kGate = 0.90;

// Phase 2's keys sort after phase 1's (key_prefix), so its jobs hold its
// own data only; interleaved keys would drag phase 1's compressible data
// through every early phase-2 merge and keep those jobs compute-bound.
struct PhaseSpec {
  const char* name;
  uint64_t num_entries;
  size_t value_size;
  double compressibility;
  uint32_t seed;
  const char* key_prefix;
};

struct PhaseResult {
  double seconds = 0;
  uint64_t raw_bytes = 0;
  double mib_s = 0;
};

struct Decision {
  std::string executor;
  int compute_parallelism = 1;
  bool adaptive = false;
  std::string rationale;
};

class DecisionListener : public obs::EventListener {
 public:
  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    Decision d;
    d.executor = info.executor;
    d.compute_parallelism = info.compute_parallelism;
    d.adaptive = info.adaptive;
    d.rationale = info.scheduler_rationale;
    std::lock_guard<std::mutex> lock(mu_);
    decisions_.push_back(std::move(d));
  }

  std::vector<Decision> decisions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return decisions_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Decision> decisions_;
};

struct RunConfig {
  const char* label = "";
  bool adaptive = false;
  CompactionMode mode = CompactionMode::kPCP;
  int compute_parallelism = 1;
};

struct RunResult {
  std::vector<PhaseResult> phases;
  std::vector<Decision> decisions;
  std::vector<size_t> phase_ends;  // decisions.size() after each phase
  std::string scheduler_json;
  std::string advisor_json;
};

RunResult RunPhased(const RunConfig& cfg,
                    const std::vector<PhaseSpec>& phases) {
  SimEnv env(DilatedProfile(DeviceProfile::Ssd(4), kDeviceDilation));
  DecisionListener listener;

  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.compaction_mode = cfg.mode;
  options.compute_parallelism = cfg.compute_parallelism;
  options.adaptive_compaction = cfg.adaptive;
  options.max_compute_workers = 4;
  // The gate charges the adaptive run for its transition lag, so react
  // as fast as one clean profile allows.
  options.scheduler_hysteresis_jobs = 1;
  options.scheduler_warmup_jobs = 1;
  options.compaction_time_dilation = kTimeDilation;
  options.write_buffer_size = 16 << 10;
  options.max_file_size = 16 << 10;
  options.subtask_bytes = 16 << 10;
  options.block_size = 4 << 10;
  options.listeners.push_back(&listener);

  DB* raw = nullptr;
  Status s = DB::Open(options, "/db", &raw);
  if (!s.ok()) {
    std::fprintf(stderr, "DB::Open failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<DB> db(raw);

  RunResult result;
  for (const PhaseSpec& phase : phases) {
    WorkloadGenerator gen(phase.num_entries, 16, phase.value_size,
                          KeyOrder::kRandom, phase.seed,
                          phase.compressibility);
    PhaseResult r;
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < phase.num_entries; i++) {
      s = db->Put(WriteOptions(), phase.key_prefix + gen.Key(i),
                  gen.Value(i));
      if (!s.ok()) {
        std::fprintf(stderr, "Put failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
      // Quiesce periodically so each phase spreads over several
      // compaction jobs (as a sustained workload would) instead of one
      // catch-up job after the memtable backlog.
      if ((i + 1) % (phase.num_entries / 4) == 0) {
        s = db->WaitForCompactions();
        if (!s.ok()) {
          std::fprintf(stderr, "wait failed: %s\n", s.ToString().c_str());
          std::exit(1);
        }
      }
    }
    s = db->WaitForCompactions();
    if (!s.ok()) {
      std::fprintf(stderr, "wait failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    r.raw_bytes = phase.num_entries * (16 + phase.value_size);
    result.phase_ends.push_back(listener.decisions().size());
    r.mib_s = r.seconds > 0 ? ToMiB(double(r.raw_bytes)) / r.seconds : 0;
    result.phases.push_back(r);
  }

  db->GetProperty("pipelsm.scheduler", &result.scheduler_json);
  db->GetProperty("pipelsm.advisor", &result.advisor_json);
  result.decisions = listener.decisions();
  return result;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // The smoke run halves only the I/O-bound phase (see the calibration
  // note above kDeviceDilation).
  const double scale = smoke ? 1.0 : Scale();
  const double io_scale = smoke ? 0.5 : scale;
  const std::vector<PhaseSpec> phases = {
      {"cpu-bound (100B values, compressible)",
       uint64_t(16000 * scale), 100, 1.0, 301, ""},
      {"io-bound (4KB values, incompressible)",
       uint64_t(2400 * io_scale), 4096, 0.0, 302, "z"},
  };

  if (smoke) {
    PrintHeader("Adaptive compaction scheduling (smoke)",
                "the missing online half of Figs 6/12",
                "tiny phase-shift run; decisions printed, no gate");
    RunConfig cfg;
    cfg.label = "adaptive";
    cfg.adaptive = true;
    RunResult run = RunPhased(cfg, phases);
    for (const Decision& d : run.decisions) {
      std::printf(
          "adaptive_decision procedure=%s compute_k=%d adaptive=%d "
          "rationale=\"%s\"\n",
          d.executor.c_str(), d.compute_parallelism,
          d.adaptive ? 1 : 0, d.rationale.c_str());
    }
    std::printf("SCHEDULER %s\n", run.scheduler_json.c_str());
    std::printf("ADVISOR %s\n", run.advisor_json.c_str());
    // Each phase's settled procedure is its last job's executor.
    if (run.phase_ends[0] == 0 || run.phase_ends[1] == run.phase_ends[0]) {
      std::fprintf(stderr, "a smoke phase scheduled no compactions\n");
      return 1;
    }
    const std::string& end1 = run.decisions[run.phase_ends[0] - 1].executor;
    const std::string& end2 = run.decisions.back().executor;
    std::printf("SETTLED phase1=%s phase2=%s\n", end1.c_str(), end2.c_str());
    if (end1 == end2) {
      std::fprintf(stderr, "both phases settled on %s\n", end1.c_str());
      return 1;
    }
    return 0;
  }

  PrintHeader(
      "Adaptive compaction scheduling vs per-phase static oracles",
      "the missing online half of Figs 6/12 (procedures chosen offline)",
      "phase-shifting fill; gate: adaptive >= 0.90x best static per phase");

  const std::vector<RunConfig> statics = {
      {"SCP", false, CompactionMode::kSCP, 1},
      {"PCP", false, CompactionMode::kPCP, 1},
      {"C-PPCP k=4", false, CompactionMode::kCPPCP, 4},
  };

  std::printf("%-14s", "config");
  for (const PhaseSpec& p : phases) std::printf("  %28s", p.name);
  std::printf("\n");

  std::vector<RunResult> static_results;
  for (const RunConfig& cfg : statics) {
    static_results.push_back(RunPhased(cfg, phases));
    std::printf("%-14s", cfg.label);
    for (const PhaseResult& r : static_results.back().phases) {
      std::printf("  %22.2f MiB/s", r.mib_s);
    }
    std::printf("\n");
  }

  RunConfig adaptive_cfg;
  adaptive_cfg.label = "adaptive";
  adaptive_cfg.adaptive = true;
  const RunResult adaptive = RunPhased(adaptive_cfg, phases);
  std::printf("%-14s", adaptive_cfg.label);
  for (const PhaseResult& r : adaptive.phases) {
    std::printf("  %22.2f MiB/s", r.mib_s);
  }
  std::printf("\n\n");

  std::printf("SCHEDULER %s\n", adaptive.scheduler_json.c_str());
  std::printf("ADVISOR %s\n\n", adaptive.advisor_json.c_str());

  bool gate_ok = true;
  for (size_t p = 0; p < phases.size(); p++) {
    double best = 0;
    const char* best_label = "";
    for (size_t c = 0; c < statics.size(); c++) {
      if (static_results[c].phases[p].mib_s > best) {
        best = static_results[c].phases[p].mib_s;
        best_label = statics[c].label;
      }
    }
    const double ratio =
        best > 0 ? adaptive.phases[p].mib_s / best : 1.0;
    const bool ok = ratio >= kGate;
    gate_ok = gate_ok && ok;
    std::printf("GATE %-40s oracle=%s (%.2f MiB/s)  adaptive/oracle=%.2fx  "
                "[%s]\n",
                phases[p].name, best_label, best, ratio,
                ok ? "pass" : "FAIL");
  }
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace pipelsm::bench

int main(int argc, char** argv) { return pipelsm::bench::Main(argc, argv); }
