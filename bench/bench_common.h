// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) and prints the
// same series the figure plots, plus the analytic model's prediction.
// Absolute numbers will differ from the paper's 2013 testbed; the shapes
// (who wins, by what factor, where crossovers fall) are the reproduction
// target.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/compaction/executor.h"
#include "src/db/db.h"
#include "src/env/sim_env.h"
#include "src/model/model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/driver.h"
#include "src/workload/table_gen.h"

namespace pipelsm::bench {

// Scale factor for dataset sizes: PIPELSM_BENCH_SCALE=4 quadruples every
// workload (closer to the paper, slower to run). Default 1 finishes the
// whole bench suite in minutes on a laptop.
inline double Scale() {
  const char* s = std::getenv("PIPELSM_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline double ToMiB(double bytes) { return bytes / (1024.0 * 1024.0); }

// Every bench run fills a metrics registry (queue stalls, step times —
// docs/OBSERVABILITY.md) and returns its JSON snapshot; set
// PIPELSM_BENCH_METRICS=1 to also print each blob as it is produced, so
// any bench emits machine-readable telemetry alongside its table.
inline void MaybePrintMetrics(const char* what, const std::string& json) {
  const char* flag = std::getenv("PIPELSM_BENCH_METRICS");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return;
  std::printf("METRICS %s %s\n", what, json.c_str());
}

struct CompactionRun {
  StepProfile profile;
  double wall_seconds = 0;
  double bandwidth_mib_s = 0;  // input bytes / wall seconds
  uint64_t output_files = 0;
  uint64_t output_bytes = 0;
  std::string metrics_json;    // registry snapshot for this run
};

struct CompactionBenchConfig {
  DeviceProfile device = DeviceProfile::Ssd();
  CompactionMode mode = CompactionMode::kSCP;
  int read_parallelism = 1;
  int compute_parallelism = 1;
  double time_dilation = 1.0;

  // Optional: collect per-sub-task stage spans of the run (the caller
  // owns the collector and decides when/where to WriteFile it).
  obs::TraceCollector* trace = nullptr;

  uint64_t upper_bytes = 4 << 20;  // paper Fig 11(a) default input
  uint64_t lower_bytes = 8 << 20;
  size_t key_size = 16;    // paper §IV-A
  size_t value_size = 100;
  size_t subtask_bytes = 512 << 10;
  size_t block_size = 4 << 10;
  uint64_t max_output_file_size = 2 << 20;
  uint32_t seed = 301;
};

// Generates fresh inputs on a simulated device and runs one compaction
// through the selected executor. Exits on error (benches are scripts).
inline CompactionRun RunCompaction(const CompactionBenchConfig& cfg) {
  SimEnv env(DilatedProfile(cfg.device, cfg.time_dilation));
  InternalKeyComparator icmp(BytewiseComparator());

  TableGenOptions gen;
  gen.env = &env;
  gen.icmp = &icmp;
  gen.upper_bytes = cfg.upper_bytes;
  gen.lower_bytes = cfg.lower_bytes;
  gen.key_size = cfg.key_size;
  gen.value_size = cfg.value_size;
  gen.block_size = cfg.block_size;
  gen.seed = cfg.seed;
  CompactionInputs inputs;
  Status s = GenerateCompactionInputs(gen, &inputs);
  if (!s.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  // Input generation also charged the device; settle the model clock by
  // resetting stats (timing state in channels is wall-clock based and
  // already in the past by the time the run starts).
  env.device()->ResetStats();

  CompactionJobOptions job;
  job.icmp = &icmp;
  job.subtask_bytes = cfg.subtask_bytes;
  job.table.block_size = cfg.block_size;
  job.max_output_file_size = cfg.max_output_file_size;
  job.read_parallelism = cfg.read_parallelism;
  job.compute_parallelism = cfg.compute_parallelism;
  job.time_dilation = cfg.time_dilation;

  obs::MetricsRegistry registry;
  job.metrics = &registry;
  job.trace = cfg.trace;

  auto executor = NewCompactionExecutor(cfg.mode);
  CountingSink sink(&env, "/out");
  CompactionRun run;
  s = executor->Run(job, inputs.tables, &sink, &run.profile);
  if (!s.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  run.metrics_json = registry.ToJson();
  MaybePrintMetrics(CompactionModeName(cfg.mode), run.metrics_json);
  run.wall_seconds = run.profile.wall_nanos * 1e-9;
  run.bandwidth_mib_s =
      run.wall_seconds > 0 ? ToMiB(run.profile.input_bytes) / run.wall_seconds
                           : 0;
  run.output_files = sink.outputs().size();
  run.output_bytes = sink.total_output_bytes();
  return run;
}

struct DbRun {
  double iops = 0;             // paper's "IOPS": insert ops/sec
  double compaction_mib_s = 0; // compaction bandwidth over wall time
  CompactionMetrics metrics;
  std::string metrics_json;    // GetProperty("pipelsm.metrics") snapshot
};

struct DbBenchConfig {
  DeviceProfile device = DeviceProfile::Ssd();
  CompactionMode mode = CompactionMode::kPCP;
  int compute_parallelism = 1;
  double time_dilation = 1.0;

  uint64_t num_entries = 50000;
  size_t key_size = 16;
  size_t value_size = 100;
  KeyOrder order = KeyOrder::kRandom;

  // The paper writes 10M-80M entries against a 4 MB memtable / 2 MB
  // SSTables (~300-2300 memtable flushes). These benches scale the
  // dataset down ~100x, so the tree shape is preserved by scaling the
  // component sizes down equally — otherwise nothing ever compacts and
  // the experiment degenerates.
  size_t write_buffer_size = 256 << 10;
  size_t max_file_size = 256 << 10;
  size_t subtask_bytes = 64 << 10;

  // Compaction policy knobs (docs/COMPACTION.md).
  CompactionStyle style = CompactionStyle::kLeveled;
  int tiered_run_count = 4;
  int max_subcompactions = 1;
};

// Fills a fresh DB on a simulated device and reports system throughput +
// compaction bandwidth (Figs 10 and 12, panels (a)(b)(d)(e)).
inline DbRun RunDbFill(const DbBenchConfig& cfg) {
  SimEnv env(DilatedProfile(cfg.device, cfg.time_dilation));
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.compaction_mode = cfg.mode;
  options.compute_parallelism = cfg.compute_parallelism;
  options.compaction_time_dilation = cfg.time_dilation;
  options.write_buffer_size = cfg.write_buffer_size;
  options.max_file_size = cfg.max_file_size;
  options.subtask_bytes = cfg.subtask_bytes;
  options.block_size = 4 << 10;  // paper §IV-A
  options.compaction_style = cfg.style;
  options.tiered_run_count = cfg.tiered_run_count;
  options.max_subcompactions = cfg.max_subcompactions;

  DB* raw = nullptr;
  Status s = DB::Open(options, "/db", &raw);
  if (!s.ok()) {
    std::fprintf(stderr, "DB::Open failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<DB> db(raw);

  FillOptions fill;
  fill.num_entries = cfg.num_entries;
  fill.key_size = cfg.key_size;
  fill.value_size = cfg.value_size;
  fill.order = cfg.order;
  FillResult result;
  s = RunFill(db.get(), fill, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "fill failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  DbRun run;
  run.iops = result.ops_per_sec;
  run.compaction_mib_s = ToMiB(result.compaction_bandwidth);
  run.metrics = result.compaction;
  db->GetProperty("pipelsm.metrics", &run.metrics_json);
  MaybePrintMetrics(CompactionModeName(cfg.mode), run.metrics_json);
  return run;
}

// Median-of-N wrapper smoothing out compaction-scheduling discretization
// noise at the benches' scaled-down dataset sizes.
inline DbRun RunDbFillMedian(const DbBenchConfig& cfg, int reps = 3) {
  std::vector<DbRun> runs;
  for (int i = 0; i < reps; i++) {
    runs.push_back(RunDbFill(cfg));
  }
  auto median_by = [&](auto key) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(key(r));
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  DbRun median = runs[reps / 2];
  median.iops = median_by([](const DbRun& r) { return r.iops; });
  median.compaction_mib_s =
      median_by([](const DbRun& r) { return r.compaction_mib_s; });
  return median;
}

inline CompactionRun RunCompactionMedian(const CompactionBenchConfig& cfg,
                                         int reps = 3) {
  std::vector<CompactionRun> runs;
  for (int i = 0; i < reps; i++) {
    runs.push_back(RunCompaction(cfg));
  }
  std::sort(runs.begin(), runs.end(),
            [](const CompactionRun& a, const CompactionRun& b) {
              return a.bandwidth_mib_s < b.bandwidth_mib_s;
            });
  return runs[runs.size() / 2];
}

inline void PrintHeader(const char* title, const char* figure,
                        const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", figure);
  std::printf("%s\n", what);
  std::printf("================================================================\n");
}

}  // namespace pipelsm::bench
