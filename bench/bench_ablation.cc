// Ablations for the design choices DESIGN.md calls out:
//
//  A1. Inter-stage queue depth — the paper creates "a queue for data
//      communication" between adjacent stages but does not size it; this
//      sweep shows the bandwidth/memory trade-off and why a small depth
//      suffices (the slowest stage governs throughput; depth only buys
//      jitter absorption).
//  A2. S1 read shape — one device read per block vs S1's per-table
//      windows of sub-task size ("the I/O size is equal to the sub-task
//      size"), on the paper's two-component input and on a pile-up of
//      overlapping tables. Reports device reads per MiB and MiB/s. On
//      Hdd(4) with 64 KiB sub-tasks it also compares the sub-task window
//      with the DB's full-stripe window (gated: fewer reads per MiB).
//  A3. Combined parallelism (R>1 AND C>1) — the generalized executor
//      runs both parallel variants at once, the natural next step the
//      paper's §III-C sets up (removing both bottlenecks together).
//  A4. (removed with the pipelined flush option: flushes share
//      compaction's table writer; flush overlap returns with flush-as-a-job.)
//  A6. Write amplification by compaction policy — overwrite-heavy fill
//      under each Options::compaction_style; RESULT write_amp is
//      bytes-written amplification: compaction output bytes / user
//      bytes (docs/COMPACTION.md). Tiered should beat leveled here.
//  A7. Key-range sub-compactions — a manual full-range compaction with
//      max_subcompactions 1 vs 4 on a multi-stripe device must produce
//      byte-identical scans, with the split measurably faster.
#include "bench_common.h"

using namespace pipelsm;
using namespace pipelsm::bench;

namespace {

CompactionBenchConfig BaseCfg(const DeviceProfile& device) {
  CompactionBenchConfig cfg;
  cfg.device = device;
  cfg.mode = CompactionMode::kPCP;
  cfg.upper_bytes = static_cast<uint64_t>((4 << 20) * Scale());
  cfg.lower_bytes = static_cast<uint64_t>((8 << 20) * Scale());
  cfg.subtask_bytes = 256 << 10;
  return cfg;
}

// ---- A6 helper: overwrite-heavy DB fill under one compaction policy ----

struct StyleWaRun {
  double user_mib = 0;
  double compaction_mib = 0;
  double write_amp = 0;  // compaction bytes written / user bytes
  uint64_t compactions = 0;
};

StyleWaRun RunOverwriteFill(CompactionStyle style) {
  DbBenchConfig cfg;
  cfg.device = DeviceProfile::Ssd();
  cfg.mode = CompactionMode::kPCP;
  cfg.write_buffer_size = 64 << 10;  // many flushes -> deep tree
  cfg.max_file_size = 64 << 10;
  cfg.subtask_bytes = 32 << 10;
  cfg.style = style;
  cfg.tiered_run_count = 4;
  SimEnv env(cfg.device);
  std::unique_ptr<DB> db = OpenBenchDb(cfg, &env);

  // Each distinct key is rewritten ~15x on average, so most compaction
  // input is shadowed versions — the regime where policy choice moves
  // write amplification the most.
  const uint64_t writes = static_cast<uint64_t>(60000 * Scale());
  const uint64_t distinct = static_cast<uint64_t>(4000 * Scale());
  WorkloadGenerator gen(distinct, 16, 100, KeyOrder::kRandom);
  uint32_t rng = 301;
  uint64_t user_bytes = 0;
  for (uint64_t i = 0; i < writes; i++) {
    rng = rng * 1664525u + 1013904223u;  // Numerical Recipes LCG
    const uint64_t k = rng % distinct;
    const std::string key = gen.Key(k);
    const std::string value = gen.Value(k);
    user_bytes += key.size() + value.size();
    if (!db->Put(WriteOptions(), key, value).ok()) std::exit(1);
  }
  db->WaitForCompactions();

  const CompactionMetrics m = db->GetCompactionMetrics();
  StyleWaRun run;
  run.user_mib = ToMiB(static_cast<double>(user_bytes));
  run.compaction_mib = ToMiB(static_cast<double>(m.compaction_bytes_written));
  run.write_amp = user_bytes > 0 ? static_cast<double>(
                                       m.compaction_bytes_written) /
                                       static_cast<double>(user_bytes)
                                 : 0;
  run.compactions = m.compactions;
  return run;
}

// ---- A7 helpers: sub-compaction equivalence + speedup ----

// FNV-1a over every (key, value) the DB serves, in scan order. Two DBs
// with identical logical contents hash identically.
uint64_t ScanChecksum(DB* db, uint64_t* entries) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const Slice& s) {
    for (size_t i = 0; i < s.size(); i++) {
      h ^= static_cast<unsigned char>(s.data()[i]);
      h *= 1099511628211ull;
    }
  };
  *entries = 0;
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    mix(it->key());
    mix(it->value());
    (*entries)++;
  }
  if (!it->status().ok()) std::exit(1);
  return h;
}

struct SubcompactionRun {
  double compact_seconds = 0;  // wall time of the manual CompactRange
  uint64_t checksum = 0;
  uint64_t entries = 0;
};

SubcompactionRun RunSubcompaction(int max_subcompactions) {
  // SCP is deliberate: one SCP job is single-threaded, so key-range
  // fan-out is its only source of concurrency and the speedup isolates
  // what splitting itself buys. (Under the pipelined executors a lone
  // job already spends the granted compute budget internally, so
  // splitting merely redistributes it.) Four stripes + four granted
  // workers: max_subcompactions=4 runs 4 concurrent SCP pipelines over
  // the striped device. The x8 slow-motion domain lets their compute
  // overlap genuinely on small hosts, as in A3.
  DbBenchConfig cfg;
  cfg.device = DeviceProfile::Ssd(4);
  cfg.mode = CompactionMode::kSCP;
  cfg.time_dilation = 8.0;
  cfg.compute_parallelism = 4;
  cfg.max_subcompactions = max_subcompactions;
  SimEnv env(DilatedProfile(cfg.device, cfg.time_dilation));
  std::unique_ptr<DB> db = OpenBenchDb(cfg, &env);

  FillOptions fill;
  fill.num_entries = static_cast<uint64_t>(30000 * Scale());
  FillResult result;
  if (!RunFill(db.get(), fill, &result).ok()) std::exit(1);

  SubcompactionRun run;
  Stopwatch sw;
  db->CompactRange(nullptr, nullptr);
  run.compact_seconds = sw.ElapsedSeconds();
  run.checksum = ScanChecksum(db.get(), &run.entries);
  return run;
}

}  // namespace

int main() {
  PrintHeader("bench_ablation — design-choice ablations",
              "DESIGN.md §5 (queue depth, S1 read shape, combined R+C)",
              "A1: bandwidth ~flat across depths (slowest stage governs); "
              "A2: windowed S1 issues ~1 read per sub-task-sized window "
              "of each table however many tables overlap, ~100x fewer than "
              "per-block reads, worth ~5x MiB/s on SSD (command latency) "
              "and more on HDD once many tables force seeks between them; "
              "on Hdd(4) with 64 KiB sub-tasks a full-stripe window issues "
              "~1/4 of the sub-task window's reads and ~2x its MiB/s; "
              "A3: R&C together beats either alone when both resources "
              "can bottleneck");

  // ---- A1: queue depth (SSD, PCP) ----
  std::printf("\nA1. inter-stage queue depth (SSD, PCP, 256 KB sub-tasks)\n");
  std::printf("%-8s %14s\n", "depth", "PCP MiB/s");
  for (size_t depth : {1, 2, 4, 8, 16}) {
    CompactionBenchConfig cfg = BaseCfg(DeviceProfile::Ssd());
    cfg.queue_depth = depth;
    CompactionRun run = RunCompaction(cfg);
    std::printf("%-8zu %14.1f\n", depth, run.bandwidth_mib_s);
  }

  // ---- A2: S1 read shape (SCP, to isolate S1) ----
  // "5 tables": the paper's upper component in one table over a lower
  // component in four, so each sub-task lists long runs from two tables.
  // "12 tables": eight upper tables that each span the whole key range
  // (a level-0 pile-up) over the same four, so each sub-task lists short
  // runs from nine tables. Per-block reads pay the device's per-command
  // cost once per block; windowed reads once per sub-task-sized window of
  // each table, whatever the number of tables.
  std::printf("\nA2. S1 reads: per-block vs windowed (SCP, %zu KiB "
              "sub-tasks)\n",
              BaseCfg(DeviceProfile::Ssd()).subtask_bytes >> 10);
  std::printf("%-14s %-10s %14s %14s %12s %12s %7s\n", "device", "inputs",
              "reads/MiB blk", "reads/MiB win", "MiB/s blk", "MiB/s win",
              "gain");
  for (const DeviceProfile& device :
       {DeviceProfile::Ssd(), DeviceProfile::Hdd(4)}) {
    for (int upper_tables : {1, 8}) {
      CompactionBenchConfig cfg = BaseCfg(device);
      cfg.mode = CompactionMode::kSCP;
      cfg.upper_tables = upper_tables;
      cfg.coalesce_reads = false;
      CompactionRun per_block = RunCompaction(cfg);
      cfg.coalesce_reads = true;
      CompactionRun windowed = RunCompaction(cfg);
      const uint64_t block_ops = per_block.read_ops;
      const uint64_t window_ops = windowed.read_ops;
      const double mib = ToMiB(windowed.profile.input_bytes);
      const double gain =
          per_block.bandwidth_mib_s > 0
              ? windowed.bandwidth_mib_s / per_block.bandwidth_mib_s
              : 0;
      const std::string shape =
          std::to_string(upper_tables + 4) + " tables";
      std::printf("%-14s %-10s %14.1f %14.1f %12.1f %12.1f %6.2fx\n",
                  device.name.c_str(), shape.c_str(), block_ops / mib,
                  window_ops / mib, per_block.bandwidth_mib_s,
                  windowed.bandwidth_mib_s, gain);
      std::printf("RESULT {\"ablation\":\"s1_reads\",\"device\":\"%s\","
                  "\"input_tables\":%d,\"per_block_reads_per_mib\":%.2f,"
                  "\"windowed_reads_per_mib\":%.2f,"
                  "\"per_block_mib_s\":%.2f,\"windowed_mib_s\":%.2f}\n",
                  device.name.c_str(), upper_tables + 4, block_ops / mib,
                  window_ops / mib, per_block.bandwidth_mib_s,
                  windowed.bandwidth_mib_s);
    }
  }

  // Full stripe: with fill_hdd's 64 KiB sub-tasks on Hdd(4), whose stripe
  // unit is also 64 KiB, a sub-task-sized read lands on one disk and pays
  // one positioning for one chunk. The DB's window, max(sub-task, one
  // full stripe), reads all four disks at once. Read counts are device
  // counts, so the gate below is deterministic.
  {
    CompactionBenchConfig cfg = BaseCfg(DeviceProfile::Hdd(4));
    cfg.mode = CompactionMode::kSCP;
    cfg.subtask_bytes = 64 << 10;
    std::printf("\nA2. S1 reads on %s, %zu KiB sub-tasks: sub-task vs "
                "full-stripe window (SCP)\n",
                cfg.device.name.c_str(), cfg.subtask_bytes >> 10);
    std::printf("%-10s %14s %14s %12s %12s %7s\n", "inputs",
                "reads/MiB sub", "reads/MiB str", "MiB/s sub", "MiB/s str",
                "gain");
    for (int upper_tables : {1, 8}) {
      cfg.upper_tables = upper_tables;
      cfg.stripe_window = false;
      CompactionRun subtask = RunCompaction(cfg);
      cfg.stripe_window = true;
      CompactionRun stripe = RunCompaction(cfg);
      const uint64_t subtask_ops = subtask.read_ops;
      const uint64_t stripe_ops = stripe.read_ops;
      const double mib = ToMiB(stripe.profile.input_bytes);
      const double gain = subtask.bandwidth_mib_s > 0
                              ? stripe.bandwidth_mib_s /
                                    subtask.bandwidth_mib_s
                              : 0;
      const std::string shape =
          std::to_string(upper_tables + 4) + " tables";
      std::printf("%-10s %14.1f %14.1f %12.1f %12.1f %6.2fx\n",
                  shape.c_str(), subtask_ops / mib, stripe_ops / mib,
                  subtask.bandwidth_mib_s, stripe.bandwidth_mib_s, gain);
      std::printf("RESULT {\"ablation\":\"s1_stripe\",\"device\":\"%s\","
                  "\"input_tables\":%d,\"subtask_kib\":%zu,"
                  "\"subtask_window_reads_per_mib\":%.2f,"
                  "\"stripe_window_reads_per_mib\":%.2f,"
                  "\"subtask_window_mib_s\":%.2f,"
                  "\"stripe_window_mib_s\":%.2f}\n",
                  cfg.device.name.c_str(), upper_tables + 4,
                  cfg.subtask_bytes >> 10, subtask_ops / mib,
                  stripe_ops / mib, subtask.bandwidth_mib_s,
                  stripe.bandwidth_mib_s);
      if (stripe_ops >= subtask_ops) {
        std::fprintf(stderr,
                     "A2 FAILED: the stripe window issued %llu reads, the "
                     "sub-task window %llu, on %d tables\n",
                     static_cast<unsigned long long>(stripe_ops),
                     static_cast<unsigned long long>(subtask_ops),
                     upper_tables + 4);
        return 1;
      }
    }
  }

  // ---- A3: combined storage+computation parallelism ----
  // HDD RAID0x3 makes I/O cheap; k=3 computers then lift the new compute
  // bottleneck — something neither S-PPCP nor C-PPCP does alone.
  // Runs in the x8 slow-motion domain so compute workers can overlap.
  std::printf("\nA3. combined parallelism (HDD RAID0x3, x8 domain)\n");
  std::printf("%-22s %14s\n", "configuration", "bw MiB/s (x8)");
  struct {
    const char* name;
    CompactionMode mode;
    int readers, computers;
  } cases[] = {
      {"PCP (1r,1c)", CompactionMode::kPCP, 1, 1},
      {"S-PPCP (3r,1c)", CompactionMode::kSPPCP, 3, 1},
      {"C-PPCP (1r,3c)", CompactionMode::kCPPCP, 1, 3},
      {"combined (3r,3c)", CompactionMode::kSPPCP, 3, 3},
  };
  for (const auto& c : cases) {
    CompactionBenchConfig cfg = BaseCfg(DeviceProfile::Hdd(3));
    cfg.mode = c.mode;
    cfg.read_parallelism = c.readers;
    cfg.compute_parallelism = c.computers;
    cfg.time_dilation = 8.0;
    CompactionRun run = RunCompaction(cfg);
    std::printf("%-22s %14.1f\n", c.name, run.bandwidth_mib_s);
  }

  // ---- A6: write amplification by compaction policy ----
  // Overwrite-heavy fill: leveled re-merges the same shadowed versions
  // into L1+ again and again; tiered defers merging until T runs stack
  // up, so each byte is rewritten far fewer times (docs/COMPACTION.md).
  std::printf("\nA6. write amplification by compaction policy "
              "(overwrite-heavy fill, SSD)\n");
  std::printf("%-14s %10s %16s %11s %13s\n", "style", "user MiB",
              "compaction MiB", "write-amp", "compactions");
  double wa_by_style[3] = {0, 0, 0};
  for (CompactionStyle style :
       {CompactionStyle::kLeveled, CompactionStyle::kTiered,
        CompactionStyle::kLazyLeveling}) {
    StyleWaRun run = RunOverwriteFill(style);
    wa_by_style[static_cast<int>(style)] = run.write_amp;
    std::printf("%-14s %10.1f %16.1f %11.2f %13llu\n",
                CompactionStyleName(style), run.user_mib, run.compaction_mib,
                run.write_amp,
                static_cast<unsigned long long>(run.compactions));
    std::printf("RESULT {\"ablation\":\"write_amp\",\"style\":\"%s\","
                "\"user_mib\":%.2f,\"compaction_mib\":%.2f,"
                "\"write_amp\":%.3f}\n",
                CompactionStyleName(style), run.user_mib, run.compaction_mib,
                run.write_amp);
  }
  {
    const double leveled = wa_by_style[static_cast<int>(CompactionStyle::kLeveled)];
    const double tiered = wa_by_style[static_cast<int>(CompactionStyle::kTiered)];
    std::printf("tiered %s leveled on bytes-written write amplification "
                "(%.2f vs %.2f)\n", tiered < leveled ? "beats" : "DOES NOT beat",
                tiered, leveled);
    if (tiered >= leveled) {
      std::fprintf(stderr, "A6 FAILED: expected tiered write-amp < leveled\n");
      return 1;
    }
  }

  // ---- A7: key-range sub-compactions ----
  std::printf("\nA7. sub-compaction split (manual full compaction, SCP, "
              "SSD RAID0x4, x8 domain)\n");
  SubcompactionRun serial = RunSubcompaction(1);
  SubcompactionRun split = RunSubcompaction(4);
  std::printf("%-26s %10.1f ms\n", "max_subcompactions=1",
              serial.compact_seconds * 1e3);
  std::printf("%-26s %10.1f ms  (%.2fx speedup)\n", "max_subcompactions=4",
              split.compact_seconds * 1e3,
              split.compact_seconds > 0
                  ? serial.compact_seconds / split.compact_seconds
                  : 0);
  std::printf("RESULT {\"ablation\":\"subcompaction\",\"serial_ms\":%.1f,"
              "\"split_ms\":%.1f,\"speedup\":%.3f,\"identical\":%s}\n",
              serial.compact_seconds * 1e3, split.compact_seconds * 1e3,
              split.compact_seconds > 0
                  ? serial.compact_seconds / split.compact_seconds
                  : 0,
              serial.checksum == split.checksum &&
                      serial.entries == split.entries
                  ? "true"
                  : "false");
  if (serial.checksum != split.checksum || serial.entries != split.entries) {
    std::fprintf(stderr,
                 "A7 FAILED: scans differ (entries %llu vs %llu, "
                 "checksum %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(serial.entries),
                 static_cast<unsigned long long>(split.entries),
                 static_cast<unsigned long long>(serial.checksum),
                 static_cast<unsigned long long>(split.checksum));
    return 1;
  }
  std::printf("scan oracle: %llu entries, checksums identical\n",
              static_cast<unsigned long long>(split.entries));
  return 0;
}
