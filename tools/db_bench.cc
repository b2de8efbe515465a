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
// Flags: the table in main(), one help line each; an unknown flag (--help
// included) or a malformed value prints it and exits 2.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/db/db.h"
#include "src/obs/metrics.h"
#include "src/util/histogram.h"
#include "src/util/stopwatch.h"
#include "src/workload/driver.h"
#include "src/workload/generator.h"
#include "tools/engine_flags.h"

namespace pipelsm {
namespace {

struct Flags {
  std::string benchmarks = "fillrandom,readrandom,overwrite,readseq,stats";
  std::string db = "/tmp/pipelsm_bench";
  std::string device = "posix";
  EngineFlags engine;
  uint64_t num = 100000;
  uint64_t reads = 10000;
  size_t key_size = 16;
  size_t value_size = 100;
  uint64_t batch = 1;
  size_t block = 4096;
  bool adaptive = false;
  int max_compute_workers = 4;
  int hysteresis = 3;
  int warmup_jobs = 2;
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

class Benchmark {
 public:
  // `options` carries the engine flags; `device` is the parsed --device.
  Benchmark(const Flags& flags, Device device, Options options)
      : flags_(flags), device_(std::move(device)), options_(options) {
    options_.env = device_.env;
    options_.create_if_missing = true;
    options_.block_size = flags_.block;
    options_.adaptive_compaction = flags_.adaptive;
    options_.max_compute_workers = flags_.max_compute_workers;
    options_.scheduler_hysteresis_jobs = flags_.hysteresis;
    options_.scheduler_warmup_jobs = flags_.warmup_jobs;
    options_.compaction_time_dilation = flags_.dilation;
    options_.trace_path = flags_.trace_path;
    options_.stats_dump_period_sec =
        static_cast<unsigned int>(flags_.stats_interval_seconds);

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

    const EngineFlags& engine = flags_.engine;
    std::printf("pipelsm db_bench\n");
    std::printf("  db=%s device=%s compaction=%s%s style=%s"
                " max_subcompactions=%d\n",
                flags_.db.c_str(), flags_.device.c_str(),
                engine.compaction.c_str(), flags_.adaptive ? " (adaptive)" : "",
                CompactionStyleName(options_.compaction_style),
                engine.max_subcompactions);
    std::printf("  entries=%llu (%zuB key + %zuB value), reads=%llu\n",
                static_cast<unsigned long long>(flags_.num), flags_.key_size,
                flags_.value_size,
                static_cast<unsigned long long>(flags_.reads));
    std::printf(
        "  memtable=%zuKB sstable=%zuKB subtask=%zuKB bloom=%d bits\n",
        engine.write_buffer_kb, engine.file_kb, engine.subtask_kb,
        engine.bloom_bits_per_key);
    std::printf("  cache=%zuKB shards=%zu filter_partition=%zuB\n",
                engine.cache_size >> 10, engine.cache_shards,
                engine.filter_partition_bytes);
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
    FillOptions fill;
    fill.num_entries = flags_.num;
    fill.key_size = flags_.key_size;
    fill.value_size = flags_.value_size;
    fill.order = order;
    fill.seed = flags_.seed;
    fill.value_compressibility = flags_.value_compressibility;
    fill.wait_for_compactions = false;
    fill.batch_size = flags_.batch;
    FillResult result;
    Status s = RunFill(db_.get(), fill, &result);
    if (!s.ok()) Fail(name, s);
    Report(name, flags_.num, result.seconds, result.latency_micros,
           flags_.num * (flags_.key_size + flags_.value_size));
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
  Device device_;  // outlives db_
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
  Flags f;
  flags::FlagSet set("db_bench [--flag=value ...]");
  set.Add("benchmarks", &f.benchmarks,
          "comma-separated workloads, run left to right (header comment)");
  set.Add("db", &f.db, "DB directory");
  set.Add("device", &f.device, kDeviceHelp);
  f.engine.Register(&set);
  set.Add("num", &f.num, "entries a fill inserts; the key space");
  set.Add("reads", &f.reads, "ops of each read, delete and mixed workload");
  set.Add("key_size", &f.key_size, "key bytes");
  set.Add("value_size", &f.value_size, "value bytes");
  set.Add("batch", &f.batch, "entries per WriteBatch in a fill");
  set.Add("block", &f.block, "SSTable block size, bytes");
  set.Switch("adaptive", &f.adaptive,
             "the compaction scheduler picks each job's executor");
  set.Add("max_compute_workers", &f.max_compute_workers,
          "adaptive: bound on the chosen compute k");
  set.Add("hysteresis", &f.hysteresis,
          "adaptive: agreeing admissions before the executor switches");
  set.Add("warmup_jobs", &f.warmup_jobs,
          "adaptive: compactions digested before adapting");
  set.Add("read_ratio", &f.read_ratio,
          "mixedwhilewriting: percent of ops that are Gets");
  set.Add("dist", &f.dist, "mixedwhilewriting keys: uniform or zipfian");
  set.Add("zipf_theta", &f.zipf_theta, "Zipfian skew");
  set.Add("value_compressibility", &f.value_compressibility,
          "fraction of each value that compresses away (0 = none)");
  set.Add("dilation", &f.dilation, "compaction slow-motion factor");
  set.Switch("histogram", &f.histogram, "print full latency histograms");
  set.Add("seed", &f.seed, "workload generator seed");
  set.Add("trace_path", &f.trace_path,
          "write a Chrome trace_event JSON of every compaction and flush");
  set.Add("metrics_json", &f.metrics_json,
          "dump the final metrics registry JSON here");
  set.Add("stats_interval_seconds", &f.stats_interval_seconds,
          "print pipelsm.stats every N seconds, and dump it to LOG (0 = off)");
  set.Switch("advisor", &f.advisor,
             "print ADVISOR and SCHEDULER JSON after every workload");
  set.ParseFlags(argc, argv);

  Options options;
  Device device;
  Status s = f.engine.ApplyTo(&options);
  if (s.ok()) s = OpenDevice(f.device, &device);
  if (!s.ok()) set.Fail(s.ToString());

  Benchmark bench(f, std::move(device), options);
  bench.Run();
  bench.Finish();
  return 0;
}
