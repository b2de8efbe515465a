// db_bench: the measurement CLI (mirrors LevelDB's tool of the same name,
// which the paper's evaluation drove). Runs a comma-separated list of
// workloads against one DB instance and reports throughput + latency
// percentiles per workload.
//
//   db_bench [--flag=value ...]
//
// Workloads (--benchmarks=, run left to right, default
// "fillrandom,readrandom,overwrite,readseq,stats"):
//   fillseq      insert --num entries in key order
//   fillrandom   insert --num entries in a pseudo-random order
//   overwrite    re-insert the same key space (new values)
//   readrandom   --reads random point lookups (verified)
//   readmissing  --reads lookups for keys that do not exist
//   readseq      one full forward scan
//   readreverse  one full backward scan
//   deleterandom delete --reads random keys
//   mixedwhilewriting
//                --reads mixed ops: each op is a Get with probability
//                --read_ratio% (else a Put), keys drawn per --dist over
//                the --num key space. The same workload bench_server
//                drives over the wire, so in-process vs served numbers in
//                EXPERIMENTS.md are apples to apples.
//   compact      CompactRange over everything
//   wait         drain background compactions
//   stats        print the DB's internal stats + compaction profile
//   metrics      print the pipeline metrics registry as JSON
//                (GetProperty "pipelsm.metrics" — see docs/OBSERVABILITY.md)
//
// Key flags:
//   --db=PATH                DB directory (default /tmp/pipelsm_bench)
//   --device=posix|ssd|hdd|hddx<k>|null
//                            storage: the real FS or a simulated device
//   --compaction=scp|pcp|cppcp
//                            (sppcp fails DB::Open: the paper's S-PPCP is
//                            --compaction=pcp on --device=hddx<k>)
//   --compaction_style=leveled|tiered|lazy
//                            which-to-compact policy (docs/COMPACTION.md)
//   --tiered_run_count=N     runs per level before tiered/lazy compacts
//   --max_subcompactions=N   key-range fan-out ceiling for one job
//   --num=N --reads=N --key_size=N --value_size=N --batch=N
//   --value_threshold=N      key-value separation: values >= N bytes go
//                            to the value log (0 = off)
//   --write_buffer_kb=N --file_kb=N --subtask_kb=N --block=N
//   --compute_parallelism=N
//   --adaptive               per-job executor choice by the compaction
//                            scheduler (Options::adaptive_compaction)
//   --max_compute_workers=N  adaptive bound on the chosen k
//   --hysteresis=N           consecutive agreeing admissions before the
//                            scheduler switches executor
//   --warmup_jobs=N          compactions digested before adapting
//   --bloom_bits_per_key=N   per-key bloom bits (0 = no filters)
//   --filter_partition_bytes=N
//                            partitioned-filter partition size
//   --cache_size=N           block cache capacity, bytes (default 8MiB)
//   --cache_shards=N         block cache lock shards (0 = auto,
//                            1 = single-mutex baseline)
//   --read_ratio=N           mixedwhilewriting: percent of ops that are
//                            Gets (default 50)
//   --dist=uniform|zipfian   mixedwhilewriting key distribution
//   --zipf_theta=X           Zipfian skew (default 0.99)
//   --value_compressibility=X
//                            fraction of each value that compresses away
//                            (default 0.5; 0 = incompressible)
//   --dilation=X             compaction slow-motion factor
//   --histogram              print full latency histograms
//   --trace_path=PATH        write a Chrome trace_event JSON of every
//                            compaction/flush pipeline (load the file in
//                            chrome://tracing or https://ui.perfetto.dev)
//   --metrics_json=PATH      dump the final metrics registry JSON to PATH
//   --stats_interval_seconds=N
//                            print pipelsm.stats to stdout every N seconds
//                            while workloads run, and turn on the DB's own
//                            periodic stats dump (Options::
//                            stats_dump_period_sec) so LOG gets them too
//   --advisor                print `ADVISOR <json>` (the pipelsm.advisor
//                            bottleneck verdict) and `SCHEDULER <json>`
//                            (the pipelsm.scheduler decision state) after
//                            every workload
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/db/db.h"
#include "src/db/write_batch.h"
#include "src/env/sim_env.h"
#include "src/obs/metrics.h"
#include "src/util/histogram.h"
#include "src/util/stopwatch.h"
#include "src/workload/generator.h"

namespace pipelsm {
namespace {

struct Flags {
  std::string benchmarks = "fillrandom,readrandom,overwrite,readseq,stats";
  std::string db = "/tmp/pipelsm_bench";
  std::string device = "posix";
  std::string compaction = "pcp";
  std::string compaction_style = "leveled";
  int tiered_run_count = 4;
  int max_subcompactions = 1;
  uint64_t num = 100000;
  uint64_t reads = 10000;
  size_t key_size = 16;
  size_t value_size = 100;
  size_t value_threshold = 0;  // 0 = key-value separation off
  uint64_t batch = 1;
  size_t write_buffer_kb = 4096;
  size_t file_kb = 2048;
  size_t subtask_kb = 512;
  size_t block = 4096;
  int compute_parallelism = 1;
  bool adaptive = false;
  int max_compute_workers = 4;
  int hysteresis = 3;
  int warmup_jobs = 2;
  int bloom_bits_per_key = 0;
  size_t filter_partition_bytes = 4096;
  size_t cache_size = 8 << 20;
  size_t cache_shards = 0;
  int read_ratio = 50;
  std::string dist = "uniform";
  double zipf_theta = 0.99;
  double value_compressibility = 0.5;
  double dilation = 1.0;
  bool histogram = false;
  uint32_t seed = 301;
  std::string trace_path;
  std::string metrics_json;
  uint64_t stats_interval_seconds = 0;
  bool advisor = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

template <typename T>
bool ParseNumFlag(const char* arg, const char* name, T* out) {
  std::string v;
  if (!ParseFlag(arg, name, &v)) return false;
  *out = static_cast<T>(std::strtoull(v.c_str(), nullptr, 10));
  return true;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--flag=value ...] (see header comment)\n",
               argv0);
  std::exit(2);
}

class Benchmark {
 public:
  explicit Benchmark(const Flags& flags) : flags_(flags) {
    if (flags_.device == "posix") {
      env_ = Env::Posix();
    } else {
      DeviceProfile profile;
      if (flags_.device == "ssd") {
        profile = DeviceProfile::Ssd();
      } else if (flags_.device == "hdd") {
        profile = DeviceProfile::Hdd();
      } else if (flags_.device.rfind("hddx", 0) == 0) {
        profile = DeviceProfile::Hdd(std::atoi(flags_.device.c_str() + 4));
      } else if (flags_.device == "null") {
        profile = DeviceProfile::Null();
      } else {
        std::fprintf(stderr, "unknown --device=%s\n", flags_.device.c_str());
        std::exit(2);
      }
      sim_env_ = std::make_unique<SimEnv>(profile);
      env_ = sim_env_.get();
    }

    options_.env = env_;
    options_.create_if_missing = true;
    if (flags_.compaction == "scp") {
      options_.compaction_mode = CompactionMode::kSCP;
    } else if (flags_.compaction == "pcp") {
      options_.compaction_mode = CompactionMode::kPCP;
    } else if (flags_.compaction == "sppcp") {
      options_.compaction_mode = CompactionMode::kSPPCP;
    } else if (flags_.compaction == "cppcp") {
      options_.compaction_mode = CompactionMode::kCPPCP;
    } else {
      std::fprintf(stderr, "unknown --compaction=%s\n",
                   flags_.compaction.c_str());
      std::exit(2);
    }
    if (flags_.compaction_style == "leveled") {
      options_.compaction_style = CompactionStyle::kLeveled;
    } else if (flags_.compaction_style == "tiered") {
      options_.compaction_style = CompactionStyle::kTiered;
    } else if (flags_.compaction_style == "lazy") {
      options_.compaction_style = CompactionStyle::kLazyLeveling;
    } else {
      std::fprintf(stderr, "unknown --compaction_style=%s\n",
                   flags_.compaction_style.c_str());
      std::exit(2);
    }
    options_.tiered_run_count = flags_.tiered_run_count;
    options_.max_subcompactions = flags_.max_subcompactions;
    options_.write_buffer_size = flags_.write_buffer_kb << 10;
    options_.max_file_size = flags_.file_kb << 10;
    options_.subtask_bytes = flags_.subtask_kb << 10;
    options_.block_size = flags_.block;
    options_.compute_parallelism = flags_.compute_parallelism;
    options_.adaptive_compaction = flags_.adaptive;
    options_.max_compute_workers = flags_.max_compute_workers;
    options_.scheduler_hysteresis_jobs = flags_.hysteresis;
    options_.scheduler_warmup_jobs = flags_.warmup_jobs;
    options_.compaction_time_dilation = flags_.dilation;
    options_.value_separation_threshold = flags_.value_threshold;
    options_.trace_path = flags_.trace_path;
    options_.stats_dump_period_sec =
        static_cast<unsigned int>(flags_.stats_interval_seconds);
    options_.bloom_bits_per_key = flags_.bloom_bits_per_key;
    options_.filter_partition_bytes = flags_.filter_partition_bytes;
    options_.block_cache_size = flags_.cache_size;
    options_.block_cache_shards = flags_.cache_shards;

    DestroyDB(flags_.db, options_);
    DB* raw = nullptr;
    Status s = DB::Open(options_, flags_.db, &raw);
    if (!s.ok()) {
      std::fprintf(stderr, "open %s: %s\n", flags_.db.c_str(),
                   s.ToString().c_str());
      std::exit(1);
    }
    db_.reset(raw);

    if (flags_.stats_interval_seconds > 0) {
      stats_printer_ = std::thread([this] { StatsPrinterMain(); });
    }

    std::printf("pipelsm db_bench\n");
    std::printf("  db=%s device=%s compaction=%s%s style=%s"
                " max_subcompactions=%d\n",
                flags_.db.c_str(), flags_.device.c_str(),
                flags_.compaction.c_str(), flags_.adaptive ? " (adaptive)" : "",
                CompactionStyleName(options_.compaction_style),
                flags_.max_subcompactions);
    std::printf("  entries=%llu (%zuB key + %zuB value), reads=%llu\n",
                static_cast<unsigned long long>(flags_.num), flags_.key_size,
                flags_.value_size,
                static_cast<unsigned long long>(flags_.reads));
    std::printf(
        "  memtable=%zuKB sstable=%zuKB subtask=%zuKB bloom=%d bits\n",
        flags_.write_buffer_kb, flags_.file_kb, flags_.subtask_kb,
        flags_.bloom_bits_per_key);
    std::printf("  cache=%zuKB shards=%zu filter_partition=%zuB\n",
                flags_.cache_size >> 10, flags_.cache_shards,
                flags_.filter_partition_bytes);
    std::printf("--------------------------------------------------\n");
  }

  void Run() {
    std::string list = flags_.benchmarks;
    size_t pos = 0;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      std::string name = list.substr(pos, comma - pos);
      pos = comma + 1;
      if (!name.empty()) {
        RunOne(name);
        if (flags_.advisor) {
          std::string json;
          if (db_->GetProperty("pipelsm.advisor", &json)) {
            std::printf("ADVISOR %s\n", json.c_str());
          }
          if (db_->GetProperty("pipelsm.scheduler", &json)) {
            std::printf("SCHEDULER %s\n", json.c_str());
          }
        }
      }
    }
  }

 private:
  // Block-cache hit/miss totals, read from the counters the DB's own
  // block cache is bound to in its metrics registry.
  void CacheCounters(uint64_t* hits, uint64_t* misses) {
    obs::MetricsRegistry* registry = db_->MetricsHandle();
    *hits = registry->RegisterCounter("cache.block.hits", "")->value();
    *misses = registry->RegisterCounter("cache.block.misses", "")->value();
  }

  // Prints the block-cache hit rate over one workload's window.
  void ReportCache(uint64_t hits_before, uint64_t misses_before) {
    uint64_t hits = 0, misses = 0;
    CacheCounters(&hits, &misses);
    hits -= hits_before;
    misses -= misses_before;
    const uint64_t lookups = hits + misses;
    if (lookups == 0) return;
    std::printf("              (block cache: %.1f%% hit rate, %llu hits, "
                "%llu misses)\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(lookups),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
  }

  WorkloadGenerator Gen(KeyOrder order) const {
    return WorkloadGenerator(flags_.num, flags_.key_size, flags_.value_size,
                             order, flags_.seed,
                             flags_.value_compressibility);
  }

  void Report(const std::string& name, uint64_t ops, double seconds,
              const Histogram& latency, uint64_t bytes = 0) {
    std::printf("%-13s %10.0f ops/s", name.c_str(),
                seconds > 0 ? ops / seconds : 0);
    if (bytes > 0) {
      std::printf("  %7.1f MiB/s", bytes / seconds / 1048576.0);
    }
    if (latency.Num() > 0) {
      std::printf("  lat(us) avg=%.1f p95=%.1f p99=%.1f max=%.0f",
                  latency.Average(), latency.Percentile(95),
                  latency.Percentile(99), latency.Max());
    }
    std::printf("  (%llu ops in %.2fs)\n",
                static_cast<unsigned long long>(ops), seconds);
    if (flags_.histogram && latency.Num() > 0) {
      std::printf("%s", latency.ToString().c_str());
    }
  }

  void Fill(const std::string& name, KeyOrder order) {
    WorkloadGenerator gen = Gen(order);
    Histogram latency;
    Stopwatch total;
    WriteBatch batch;
    uint64_t in_batch = 0;
    uint64_t bytes = 0;
    for (uint64_t i = 0; i < flags_.num; i++) {
      Stopwatch op;
      batch.Put(gen.Key(i), gen.Value(i));
      bytes += flags_.key_size + flags_.value_size;
      if (++in_batch >= flags_.batch || i + 1 == flags_.num) {
        Status s = db_->Write(WriteOptions(), &batch);
        if (!s.ok()) Fail(name, s);
        batch.Clear();
        in_batch = 0;
      }
      latency.Add(op.ElapsedNanos() / 1000.0);
    }
    Report(name, flags_.num, total.ElapsedSeconds(), latency, bytes);
  }

  void ReadRandom(const std::string& name, bool missing) {
    WorkloadGenerator gen = Gen(KeyOrder::kRandom);
    Random rnd(flags_.seed + 7);
    uint64_t cache_hits = 0, cache_misses = 0;
    CacheCounters(&cache_hits, &cache_misses);
    Histogram latency;
    Stopwatch total;
    uint64_t found = 0;
    std::string value;
    for (uint64_t i = 0; i < flags_.reads; i++) {
      const uint64_t idx = rnd.Next() % flags_.num;
      std::string key = gen.Key(idx);
      if (missing) key.back() = '.';
      Stopwatch op;
      Status s = db_->Get(ReadOptions(), key, &value);
      latency.Add(op.ElapsedNanos() / 1000.0);
      if (s.ok()) {
        found++;
        if (!missing && value != gen.Value(idx)) {
          std::fprintf(stderr, "%s: value mismatch at %llu\n", name.c_str(),
                       static_cast<unsigned long long>(idx));
          std::exit(1);
        }
      } else if (!s.IsNotFound()) {
        Fail(name, s);
      }
    }
    Report(name, flags_.reads, total.ElapsedSeconds(), latency);
    std::printf("              (%llu of %llu found)\n",
                static_cast<unsigned long long>(found),
                static_cast<unsigned long long>(flags_.reads));
    ReportCache(cache_hits, cache_misses);
  }

  void Scan(const std::string& name, bool reverse) {
    Histogram latency;
    Stopwatch total;
    uint64_t entries = 0, bytes = 0;
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    for (reverse ? it->SeekToLast() : it->SeekToFirst(); it->Valid();
         reverse ? it->Prev() : it->Next()) {
      entries++;
      bytes += it->key().size() + it->value().size();
    }
    if (!it->status().ok()) Fail(name, it->status());
    Report(name, entries, total.ElapsedSeconds(), latency, bytes);
  }

  void DeleteRandom(const std::string& name) {
    WorkloadGenerator gen = Gen(KeyOrder::kRandom);
    Random rnd(flags_.seed + 13);
    Histogram latency;
    Stopwatch total;
    for (uint64_t i = 0; i < flags_.reads; i++) {
      Stopwatch op;
      Status s = db_->Delete(WriteOptions(), gen.Key(rnd.Next() % flags_.num));
      if (!s.ok()) Fail(name, s);
      latency.Add(op.ElapsedNanos() / 1000.0);
    }
    Report(name, flags_.reads, total.ElapsedSeconds(), latency);
  }

  void MixedWhileWriting(const std::string& name) {
    WorkloadGenerator gen = Gen(KeyOrder::kRandom);
    Random rnd(flags_.seed + 23);
    ZipfianGenerator zipf(flags_.num, flags_.zipf_theta, flags_.seed + 29);
    const bool zipfian = flags_.dist == "zipfian";
    if (!zipfian && flags_.dist != "uniform") {
      std::fprintf(stderr, "unknown --dist=%s\n", flags_.dist.c_str());
      std::exit(2);
    }
    uint64_t cache_hits = 0, cache_misses = 0;
    CacheCounters(&cache_hits, &cache_misses);
    Histogram read_lat, write_lat;
    Stopwatch total;
    uint64_t gets = 0, puts = 0, found = 0;
    std::string value;
    for (uint64_t i = 0; i < flags_.reads; i++) {
      const uint64_t idx =
          zipfian ? zipf.Next() : rnd.Next() % flags_.num;
      const bool is_get =
          static_cast<int>(rnd.Next() % 100) < flags_.read_ratio;
      Stopwatch op;
      if (is_get) {
        Status s = db_->Get(ReadOptions(), gen.Key(idx), &value);
        read_lat.Add(op.ElapsedNanos() / 1000.0);
        if (s.ok()) {
          found++;
        } else if (!s.IsNotFound()) {
          Fail(name, s);
        }
        gets++;
      } else {
        Status s = db_->Put(WriteOptions(), gen.Key(idx), gen.Value(idx));
        write_lat.Add(op.ElapsedNanos() / 1000.0);
        if (!s.ok()) Fail(name, s);
        puts++;
      }
    }
    const double seconds = total.ElapsedSeconds();
    Report(name, flags_.reads, seconds, read_lat);
    std::printf("              (%llu gets [%llu found], %llu puts, "
                "dist=%s",
                static_cast<unsigned long long>(gets),
                static_cast<unsigned long long>(found),
                static_cast<unsigned long long>(puts), flags_.dist.c_str());
    if (write_lat.Num() > 0) {
      std::printf(", put lat avg=%.1fus p99=%.1fus", write_lat.Average(),
                  write_lat.Percentile(99));
    }
    std::printf(")\n");
    ReportCache(cache_hits, cache_misses);
  }

  void RunOne(const std::string& name) {
    if (name == "fillseq") {
      Fill(name, KeyOrder::kSequential);
    } else if (name == "fillrandom" || name == "overwrite") {
      Fill(name, KeyOrder::kRandom);
    } else if (name == "readrandom") {
      ReadRandom(name, /*missing=*/false);
    } else if (name == "readmissing") {
      ReadRandom(name, /*missing=*/true);
    } else if (name == "readseq") {
      Scan(name, /*reverse=*/false);
    } else if (name == "readreverse") {
      Scan(name, /*reverse=*/true);
    } else if (name == "deleterandom") {
      DeleteRandom(name);
    } else if (name == "mixedwhilewriting") {
      MixedWhileWriting(name);
    } else if (name == "compact") {
      Stopwatch sw;
      db_->CompactRange(nullptr, nullptr);
      std::printf("%-13s done in %.2fs\n", name.c_str(), sw.ElapsedSeconds());
    } else if (name == "wait") {
      Stopwatch sw;
      Status s = db_->WaitForCompactions();
      if (!s.ok()) Fail(name, s);
      std::printf("%-13s drained in %.2fs\n", name.c_str(),
                  sw.ElapsedSeconds());
    } else if (name == "stats") {
      std::string stats;
      if (db_->GetProperty("pipelsm.stats", &stats)) {
        std::printf("%s\n", stats.c_str());
      }
    } else if (name == "metrics") {
      std::string json;
      if (db_->GetProperty("pipelsm.metrics", &json)) {
        std::printf("%s\n", json.c_str());
      }
    } else {
      std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
      std::exit(2);
    }
  }

 public:
  // Dumps the metrics blob, closes the DB (which flushes the trace file),
  // and reports where the artifacts went. Call once, after Run().
  void Finish() {
    if (stats_printer_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_stop_ = true;
      }
      stats_cv_.notify_all();
      stats_printer_.join();
    }
    if (!flags_.metrics_json.empty()) {
      std::string json;
      if (db_->GetProperty("pipelsm.metrics", &json)) {
        std::FILE* f = std::fopen(flags_.metrics_json.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot open %s\n",
                       flags_.metrics_json.c_str());
          std::exit(1);
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("metrics JSON written to %s\n",
                    flags_.metrics_json.c_str());
      }
    }
    db_.reset();  // the DB writes Options::trace_path on close
    if (!flags_.trace_path.empty()) {
      // The DB only logs a write failure (into its own, possibly
      // simulated, log); confirm the file actually landed on the host.
      std::FILE* f = std::fopen(flags_.trace_path.c_str(), "r");
      if (f == nullptr) {
        std::fprintf(stderr, "trace was NOT written to %s (unwritable?)\n",
                     flags_.trace_path.c_str());
        std::exit(1);
      }
      std::fclose(f);
      std::printf("trace written to %s (load in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  flags_.trace_path.c_str());
    }
  }

 private:
  [[noreturn]] void Fail(const std::string& name, const Status& s) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }

  // Prints pipelsm.stats to stdout every --stats_interval_seconds while
  // the workloads run (the DB's own dump goes to its LOG file; operators
  // watching a long fill want it on the console).
  void StatsPrinterMain() {
    const auto period = std::chrono::seconds(flags_.stats_interval_seconds);
    std::unique_lock<std::mutex> lock(stats_mu_);
    while (!stats_stop_) {
      if (stats_cv_.wait_for(lock, period, [this] { return stats_stop_; })) {
        break;
      }
      std::string stats;
      if (db_->GetProperty("pipelsm.stats", &stats)) {
        std::printf("---- stats @interval ----\n%s", stats.c_str());
        std::fflush(stdout);
      }
    }
  }

  const Flags flags_;
  std::unique_ptr<SimEnv> sim_env_;
  Env* env_ = nullptr;
  Options options_;
  std::unique_ptr<DB> db_;
  std::thread stats_printer_;
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;
  bool stats_stop_ = false;
};

}  // namespace
}  // namespace pipelsm

using namespace pipelsm;

int main(int argc, char** argv) {
  pipelsm::Flags flags;
  for (int i = 1; i < argc; i++) {
    std::string unused_bool;
    if (ParseFlag(argv[i], "benchmarks", &flags.benchmarks) ||
        ParseFlag(argv[i], "db", &flags.db) ||
        ParseFlag(argv[i], "device", &flags.device) ||
        ParseFlag(argv[i], "compaction", &flags.compaction) ||
        ParseFlag(argv[i], "compaction_style", &flags.compaction_style) ||
        ParseNumFlag(argv[i], "tiered_run_count", &flags.tiered_run_count) ||
        ParseNumFlag(argv[i], "max_subcompactions",
                     &flags.max_subcompactions) ||
        ParseNumFlag(argv[i], "num", &flags.num) ||
        ParseNumFlag(argv[i], "reads", &flags.reads) ||
        ParseNumFlag(argv[i], "key_size", &flags.key_size) ||
        ParseNumFlag(argv[i], "value_size", &flags.value_size) ||
        ParseNumFlag(argv[i], "value_threshold", &flags.value_threshold) ||
        ParseNumFlag(argv[i], "batch", &flags.batch) ||
        ParseNumFlag(argv[i], "write_buffer_kb", &flags.write_buffer_kb) ||
        ParseNumFlag(argv[i], "file_kb", &flags.file_kb) ||
        ParseNumFlag(argv[i], "subtask_kb", &flags.subtask_kb) ||
        ParseNumFlag(argv[i], "block", &flags.block) ||
        ParseNumFlag(argv[i], "compute_parallelism",
                     &flags.compute_parallelism) ||
        ParseNumFlag(argv[i], "max_compute_workers",
                     &flags.max_compute_workers) ||
        ParseNumFlag(argv[i], "hysteresis", &flags.hysteresis) ||
        ParseNumFlag(argv[i], "warmup_jobs", &flags.warmup_jobs) ||
        ParseNumFlag(argv[i], "bloom_bits_per_key",
                     &flags.bloom_bits_per_key) ||
        ParseNumFlag(argv[i], "filter_partition_bytes",
                     &flags.filter_partition_bytes) ||
        ParseNumFlag(argv[i], "cache_size", &flags.cache_size) ||
        ParseNumFlag(argv[i], "cache_shards", &flags.cache_shards) ||
        ParseNumFlag(argv[i], "read_ratio", &flags.read_ratio) ||
        ParseFlag(argv[i], "dist", &flags.dist) ||
        ParseNumFlag(argv[i], "seed", &flags.seed) ||
        ParseFlag(argv[i], "trace_path", &flags.trace_path) ||
        ParseFlag(argv[i], "metrics_json", &flags.metrics_json) ||
        ParseNumFlag(argv[i], "stats_interval_seconds",
                     &flags.stats_interval_seconds)) {
      continue;
    }
    if (std::strcmp(argv[i], "--advisor") == 0) {
      flags.advisor = true;
      continue;
    }
    if (std::strcmp(argv[i], "--adaptive") == 0) {
      flags.adaptive = true;
      continue;
    }
    std::string v;
    if (ParseFlag(argv[i], "dilation", &v)) {
      flags.dilation = std::atof(v.c_str());
      continue;
    }
    if (ParseFlag(argv[i], "value_compressibility", &v)) {
      flags.value_compressibility = std::atof(v.c_str());
      continue;
    }
    if (ParseFlag(argv[i], "zipf_theta", &v)) {
      flags.zipf_theta = std::atof(v.c_str());
      continue;
    }
    if (std::strcmp(argv[i], "--histogram") == 0) {
      flags.histogram = true;
      continue;
    }
    std::fprintf(stderr, "unrecognized flag: %s\n", argv[i]);
    pipelsm::Usage(argv[0]);
  }

  pipelsm::Benchmark bench(flags);
  bench.Run();
  bench.Finish();
  return 0;
}
