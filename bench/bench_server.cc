// bench_server: loopback throughput of the network service layer vs the
// same workload in-process (the ISSUE 4 acceptance gate: served fills
// with group commit should hold >= 50% of in-process fillrandom).
//
// Phase 1 fills a fresh DB in-process (RunFill, db_bench's fillrandom).
// Phase 2 starts a Server on an ephemeral loopback port and drives the
// same number of PUTs through the pipelined client: --connections pooled
// sockets shared by --threads driver threads, each keeping --window
// async requests in flight. The server's writing worker turns each
// connection's queued PUTs into one batch and hands every waiting
// connection's batch to one DB::WriteMany, which the engine's writer
// queue folds into one WAL record, so with --sync the server amortizes
// the WAL sync the in-process single-writer loop pays per PUT; that and
// pipelining are what the served side has against the framing + TCP
// tax. A final report prints both rates, the served/in-process ratio,
// and the histogram of writes (connection batches) per WAL record
// (db.write_group_size).
//
// Flags: the table in main(), one help line each. --device runs both
// phases on the same storage; a simulated device (hdd, ssd, hddx<k>,
// ssdx<k>) charges its modelled time as real sleeps, so multi-shard I/O
// overlap is a wall-clock effect even on one core, and the profile stays
// fixed across shard counts so scaling numbers compare.
//
// The report ends with one machine-readable line:
//   RESULT {"shards":...,"served_ops_s":...,"per_shard":[...],...}
// so the multi-shard scaling gate in EXPERIMENTS.md can be checked by
// parsing stdout instead of scraping prose.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/db/db.h"
#include "src/server/server.h"
#include "src/shard/router.h"
#include "src/shard/sharded_db.h"
#include "src/util/histogram.h"
#include "src/util/stopwatch.h"
#include "src/workload/driver.h"
#include "src/workload/generator.h"
#include "tools/engine_flags.h"

namespace pipelsm {
namespace {

struct Flags {
  uint64_t num = 200000;
  int connections = 64;
  int threads = 8;
  size_t window = 128;
  size_t key_size = 16;
  size_t value_size = 100;
  int read_ratio = 0;
  bool sync = false;
  uint32_t seed = 301;
  int io_threads = 0;  // 0 = auto: one per shard (min 1)
  size_t shards = 1;
  bool no_arbiter = false;
  int compute_workers = 4;
  std::string device = "posix";
  std::string dist = "uniform";
  double zipf_theta = 0.99;
  EngineFlags engine;  // the read-path three: cache size, shards, bloom
};

// Each phase starts from an empty disk: a fresh SimEnv per call (or
// posix, which DestroyDB empties). `device` outlives the DB.
Options MakeDbOptions(const Flags& flags, Device* device) {
  Options options;
  OpenDevice(flags.device, device);  // main() checked the spelling
  flags.engine.ApplyTo(&options);    // and the compaction mode (pcp)
  options.env = device->env;
  options.create_if_missing = true;
  return options;
}

std::unique_ptr<DB> OpenFresh(const std::string& path,
                              const Options& options) {
  DestroyDB(path, options);
  DB* raw = nullptr;
  Status s = DB::Open(options, path, &raw);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s: %s\n", path.c_str(), s.ToString().c_str());
    std::exit(1);
  }
  return std::unique_ptr<DB>(raw);
}

// Phase 1: db_bench's fillrandom, one synced-or-not Put per entry.
double InProcessFill(const Flags& flags, const std::string& path) {
  Device device;
  std::unique_ptr<DB> db = OpenFresh(path, MakeDbOptions(flags, &device));
  FillOptions fill;
  fill.num_entries = flags.num;
  fill.key_size = flags.key_size;
  fill.value_size = flags.value_size;
  fill.seed = flags.seed;
  fill.wait_for_compactions = false;
  fill.sync = flags.sync;
  FillResult result;
  Status s = RunFill(db.get(), fill, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "in-process put: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  db->WaitForCompactions();
  return result.ops_per_sec;
}

// One driver thread, keeping `window` futures in flight.
//
// Unsharded (`router == nullptr`): drives the index slice [begin, end).
// Sharded: drives ONLY `my_shard`'s keys — each driver scans the whole
// index space and claims every sub_count-th key owned by its shard, so
// every key is sent exactly once fleet-wide. Partitioning drivers by
// shard matters: a mixed pipeline stalls head-of-line on the slowest
// shard (any window holds every shard's futures, so one shard's write
// stall blocks all drivers); dedicated drivers keep the healthy shards'
// pipelines full while the stalled one backs up alone.
void DriveSlice(client::Client* cli, const WorkloadGenerator& gen,
                uint64_t begin, uint64_t end, const Flags& flags,
                uint32_t thread_seed, std::atomic<uint64_t>* errors,
                const shard::ShardRouter* router, size_t my_shard,
                size_t sub_index, size_t sub_count) {
  std::deque<std::future<client::Result>> inflight;
  Random rnd(thread_seed);
  ZipfianGenerator zipf(flags.num, flags.zipf_theta, thread_seed + 17);
  const bool zipfian = flags.dist == "zipfian";
  auto reap = [&](size_t keep) {
    cli->Flush();  // buffered frames must hit the wire before we block
    while (inflight.size() > keep) {
      client::Result r = inflight.front().get();
      inflight.pop_front();
      if (!r.status.ok() && !r.status.IsNotFound()) {
        errors->fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  uint64_t matched = 0;
  for (uint64_t i = begin; i < end; i++) {
    std::string key = gen.Key(i);
    if (router != nullptr) {
      if (router->ShardOf(key) != my_shard) continue;
      if ((matched++ % sub_count) != sub_index) continue;
    }
    const bool is_get =
        flags.read_ratio > 0 &&
        static_cast<int>(rnd.Next() % 100) < flags.read_ratio;
    if (is_get) {
      const uint64_t idx = zipfian ? zipf.Next() : rnd.Next() % flags.num;
      inflight.push_back(cli->AsyncGet(gen.Key(idx)));
    } else {
      inflight.push_back(cli->AsyncPut(key, gen.Value(i)));
    }
    // Reap half the window at once: the first get() blocks until the
    // server's coalesced reply burst lands, after which the rest are
    // already fulfilled — one driver block/wake cycle per ~window/2 ops
    // instead of one per op.
    if (inflight.size() >= flags.window) reap(flags.window / 2);
  }
  reap(0);
}

// 10^n clamped below the uint64 ceiling (the bench keyspace spans the
// full decimal width of its keys; see SplitDecimalKeyspace call below).
uint64_t Pow10(size_t n) {
  uint64_t v = 1;
  for (size_t i = 0; i < n && i < 19; i++) v *= 10;
  return v;
}

// Per-shard and aggregate numbers from one served phase, for both the
// human report and the machine-readable RESULT line.
struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

struct ServedStats {
  double ops_per_sec = 0;
  double read_ops_per_sec = 0;  // served GETs only
  uint64_t gets = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<uint64_t> shard_write_ops;  // empty when unsharded
  std::string arbiter_json;               // "{}" when unsharded / off
  std::string batch_histogram;
  LatencySummary put_latency;  // server-side dispatch-to-reply micros
  LatencySummary get_latency;

  double hit_rate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups > 0
               ? static_cast<double>(cache_hits) / static_cast<double>(lookups)
               : 0.0;
  }
};

LatencySummary SummarizeLatency(obs::MetricsRegistry* registry,
                                const std::string& name) {
  const Histogram snap = registry->RegisterHistogram(name, "")->Snapshot();
  LatencySummary out;
  out.count = snap.Num();
  if (out.count > 0) {
    out.p50 = snap.Percentile(50);
    out.p95 = snap.Percentile(95);
    out.p99 = snap.Percentile(99);
  }
  return out;
}

// Phase 2: the same workload through the loopback server.
ServedStats ServedFill(const Flags& flags, const std::string& path) {
  Device device;
  Options options = MakeDbOptions(flags, &device);
  // Unsharded, the DB-wide stall gate is the right backpressure. Sharded,
  // it is NOT wired: one shard's hard stall would park reads on EVERY
  // connection and serialize the whole fleet on the slowest shard. The
  // per-connection in-flight cap plus shard affinity already deliver
  // per-shard backpressure (a stalled shard's sockets fill their window
  // and pause; the other shards' sockets keep streaming).
  server::WriteStallGate gate;
  if (flags.shards <= 1) options.listeners.push_back(&gate);

  std::unique_ptr<DB> db;
  shard::ShardedDB* sharded = nullptr;
  std::vector<std::string> boundaries;
  if (flags.shards > 1) {
    // Random-order bench keys are uniform over the whole decimal width
    // of the key, so split [0, 10^key_size) — NOT [0, num): splitting by
    // index count would put every key in shard 0.
    const size_t eff_key = flags.key_size < 8 ? 8 : flags.key_size;
    boundaries = shard::ShardRouter::SplitDecimalKeyspace(
        Pow10(eff_key), eff_key, flags.shards);
    shard::ShardedOptions shopts;
    shopts.num_shards = flags.shards;
    shopts.boundary_keys = boundaries;
    shopts.enable_arbiter = !flags.no_arbiter;
    shopts.arbiter.compute_workers = flags.compute_workers;
    shard::ShardedDB::Destroy(path, options);
    shard::ShardedDB* raw = nullptr;
    Status s = shard::ShardedDB::Open(options, shopts, path, &raw);
    if (!s.ok()) {
      std::fprintf(stderr, "sharded open %s: %s\n", path.c_str(),
                   s.ToString().c_str());
      std::exit(1);
    }
    db.reset(raw);
    sharded = raw;
  } else {
    db = OpenFresh(path, options);
  }

  server::ServerOptions sopts;
  sopts.host = "127.0.0.1";
  sopts.port = 0;  // ephemeral
  sopts.sync_writes = flags.sync;
  sopts.stall_gate = flags.shards <= 1 ? &gate : nullptr;
  sopts.request_queue_depth = 4096;
  sopts.num_io_threads = flags.io_threads > 0
                             ? flags.io_threads
                             : static_cast<int>(flags.shards);
  server::Server srv(db.get(), sopts);
  Status s = srv.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  client::ClientOptions copts;
  copts.host = "127.0.0.1";
  copts.port = srv.port();
  copts.num_connections = flags.connections;
  // Coalesce async sends: 16 consecutive submissions share a socket and
  // ride one send() (drivers Flush before blocking on futures).
  copts.connection_stride = 16;
  copts.pipeline_buffer_bytes = 16 * 1024;
  // Keyed requests stick to their shard's connection group, so each
  // shard's writer queue fills from dedicated sockets.
  copts.shard_affinity_boundaries = boundaries;
  client::Client cli(copts);

  WorkloadGenerator gen(flags.num, flags.key_size, flags.value_size,
                        KeyOrder::kRandom, flags.seed);
  std::atomic<uint64_t> errors{0};
  int threads = flags.threads > 0 ? flags.threads : 1;
  if (flags.shards > 1) {
    // Round up to a multiple of the shard count so every shard gets the
    // same number of dedicated drivers.
    const int per = (threads + flags.shards - 1) / flags.shards;
    threads = per * static_cast<int>(flags.shards);
  }
  Stopwatch total;
  std::vector<std::thread> drivers;
  for (int t = 0; t < threads; t++) {
    if (flags.shards > 1) {
      const size_t my_shard = t % flags.shards;
      const size_t sub_index = t / flags.shards;
      const size_t sub_count = threads / flags.shards;
      drivers.emplace_back(DriveSlice, &cli, std::cref(gen), 0, flags.num,
                           std::cref(flags), flags.seed + 31 * (t + 1),
                           &errors, &sharded->router(), my_shard,
                           sub_index, sub_count);
    } else {
      const uint64_t begin = flags.num * t / threads;
      const uint64_t end = flags.num * (t + 1) / threads;
      drivers.emplace_back(DriveSlice, &cli, std::cref(gen), begin, end,
                           std::cref(flags), flags.seed + 31 * (t + 1),
                           &errors, nullptr, 0, 0, 1);
    }
  }
  for (auto& d : drivers) d.join();
  const double seconds = total.ElapsedSeconds();

  if (errors.load() > 0) {
    std::fprintf(stderr, "served phase: %llu request errors\n",
                 static_cast<unsigned long long>(errors.load()));
    std::exit(1);
  }

  // Writes per group, from the engines' writer queues (merged over the
  // shards of a fleet).
  Histogram snap;
  const size_t engines = sharded != nullptr ? sharded->num_shards() : 1;
  for (size_t i = 0; i < engines; i++) {
    DB* engine = sharded != nullptr ? sharded->shard(i) : db.get();
    snap.Merge(engine->MetricsHandle()
                   ->RegisterHistogram("db.write_group_size", "")
                   ->Snapshot());
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "write group size: count=%llu avg=%.1f p95=%.0f max=%.0f",
                static_cast<unsigned long long>(snap.Num()), snap.Average(),
                snap.Percentile(95), snap.Max());

  ServedStats stats;
  stats.ops_per_sec = flags.num / seconds;
  stats.batch_histogram = buf;
  stats.arbiter_json = "{}";
  stats.gets =
      srv.metrics_registry()->RegisterCounter("server.req.get", "")->value();
  stats.read_ops_per_sec = seconds > 0 ? stats.gets / seconds : 0;
  // The DB (or the fleet, when sharded) owns its block cache, so the
  // cache's stats are bound in the registry MetricsHandle() returns.
  obs::MetricsRegistry* registry = db->MetricsHandle();
  stats.cache_hits = registry->RegisterCounter("cache.block.hits", "")->value();
  stats.cache_misses =
      registry->RegisterCounter("cache.block.misses", "")->value();
  stats.put_latency =
      SummarizeLatency(srv.metrics_registry(), "server.req_micros.put");
  stats.get_latency =
      SummarizeLatency(srv.metrics_registry(), "server.req_micros.get");
  if (sharded != nullptr) {
    for (size_t i = 0; i < sharded->num_shards(); i++) {
      stats.shard_write_ops.push_back(sharded->shard(i)
                                          ->MetricsHandle()
                                          ->RegisterCounter("db.write_ops", "")
                                          ->value());
    }
  }

  srv.Drain();
  db->WaitForCompactions();
  // After the drive and compaction settle: peak/in-use lane occupancy
  // proves the budget held (or "{}" when unsharded / arbiter off).
  std::string arbiter;
  if (db->GetProperty("pipelsm.arbiter", &arbiter)) {
    stats.arbiter_json = arbiter;
  }
  return stats;
}

}  // namespace
}  // namespace pipelsm

int main(int argc, char** argv) {
  pipelsm::Flags flags;
  pipelsm::flags::FlagSet set("bench_server [--flag=value ...]");
  set.Add("num", &flags.num, "PUTs per phase");
  set.Add("connections", &flags.connections, "pooled client sockets");
  set.Add("threads", &flags.threads, "driver threads");
  set.Add("window", &flags.window, "async requests in flight per driver");
  set.Add("key_size", &flags.key_size, "key bytes");
  set.Add("value_size", &flags.value_size, "value bytes");
  set.Add("read_ratio", &flags.read_ratio,
          "percent of served ops that are GETs (50 compares against "
          "db_bench mixedwhilewriting)");
  set.Add("dist", &flags.dist, "GET keys: uniform or zipfian (hot keys)");
  set.Add("zipf_theta", &flags.zipf_theta, "Zipfian skew");
  flags.engine.Register(&set,
                        {"cache_size", "cache_shards", "bloom_bits_per_key"});
  set.Switch("sync", &flags.sync,
             "sync the WAL for every write group, in both phases");
  set.Add("seed", &flags.seed, "workload generator seed");
  set.Add("shards", &flags.shards,
          "serve a ShardedDB of N key-range shards splitting the keyspace "
          "evenly; the client rides shard affinity");
  set.Add("io_threads", &flags.io_threads,
          "server epoll loops (0 = one per shard)");
  set.Switch("no_arbiter", &flags.no_arbiter,
             "disable the fleet CompactionArbiter (free-for-all baseline)");
  set.Add("compute_workers", &flags.compute_workers,
          "compute workers the arbiter rations among the shards' jobs");
  set.Add("device", &flags.device, pipelsm::kDeviceHelp);
  set.ParseFlags(argc, argv);
  if (flags.shards < 1) flags.shards = 1;
  pipelsm::Device check;
  const pipelsm::Status s = pipelsm::OpenDevice(flags.device, &check);
  if (!s.ok()) set.Fail(s.ToString());
  if (flags.dist != "uniform" && flags.dist != "zipfian") {
    set.Fail("unknown --dist=" + flags.dist + " (uniform|zipfian)");
  }

  std::printf("bench_server: %llu ops, %d connections, %d threads, "
              "window %zu, read_ratio %d%%, dist=%s, sync=%d, shards=%zu, "
              "arbiter=%d, device=%s, cache=%zuKB/%zu shards, bloom=%d\n",
              static_cast<unsigned long long>(flags.num), flags.connections,
              flags.threads, flags.window, flags.read_ratio,
              flags.dist.c_str(), flags.sync ? 1 : 0, flags.shards,
              flags.no_arbiter ? 0 : 1, flags.device.c_str(),
              flags.engine.cache_size >> 10, flags.engine.cache_shards,
              flags.engine.bloom_bits_per_key);

  const double local =
      pipelsm::InProcessFill(flags, "/tmp/pipelsm_bench_server_local");
  std::printf("in-process fill: %10.0f ops/s\n", local);

  const pipelsm::ServedStats served =
      pipelsm::ServedFill(flags, "/tmp/pipelsm_bench_server_net");
  std::printf("served fill:     %10.0f ops/s  (loopback, pipelined)\n",
              served.ops_per_sec);
  std::printf("%s\n", served.batch_histogram.c_str());
  std::printf("put latency (server, micros): p50=%.0f p95=%.0f p99=%.0f "
              "(n=%llu)\n",
              served.put_latency.p50, served.put_latency.p95,
              served.put_latency.p99,
              static_cast<unsigned long long>(served.put_latency.count));
  if (served.get_latency.count > 0) {
    std::printf("get latency (server, micros): p50=%.0f p95=%.0f p99=%.0f "
                "(n=%llu)\n",
                served.get_latency.p50, served.get_latency.p95,
                served.get_latency.p99,
                static_cast<unsigned long long>(served.get_latency.count));
  }
  for (size_t i = 0; i < served.shard_write_ops.size(); i++) {
    std::printf("shard %zu: %llu entries written (db.write_ops)\n", i,
                static_cast<unsigned long long>(served.shard_write_ops[i]));
  }
  if (served.gets > 0) {
    std::printf("read throughput: %10.0f gets/s  (block cache: %.1f%% hit "
                "rate, %llu hits, %llu misses)\n",
                served.read_ops_per_sec, 100.0 * served.hit_rate(),
                static_cast<unsigned long long>(served.cache_hits),
                static_cast<unsigned long long>(served.cache_misses));
  }
  const double ratio = local > 0 ? served.ops_per_sec / local : 0;
  std::printf("served/in-process ratio: %.2f  (acceptance floor 0.50)\n",
              ratio);

  // Machine-readable summary (EXPERIMENTS.md scaling gate parses this).
  std::string result;
  char head[320];
  std::snprintf(head, sizeof(head),
                "RESULT {\"shards\":%zu,\"arbiter\":%s,\"sync\":%s,"
                "\"device\":\"%s\",\"num\":%llu,\"in_process_ops_s\":%.0f,"
                "\"served_ops_s\":%.0f,\"ratio\":%.3f,\"per_shard\":[",
                flags.shards, flags.no_arbiter ? "false" : "true",
                flags.sync ? "true" : "false", flags.device.c_str(),
                static_cast<unsigned long long>(flags.num), local,
                served.ops_per_sec, ratio);
  result = head;
  for (size_t i = 0; i < served.shard_write_ops.size(); i++) {
    if (i) result += ",";
    char row[96];
    std::snprintf(row, sizeof(row), "{\"shard\":%zu,\"write_ops\":%llu}", i,
                  static_cast<unsigned long long>(served.shard_write_ops[i]));
    result += row;
  }
  char lat[256];
  std::snprintf(lat, sizeof(lat),
                "],\"latency_micros\":{\"put\":{\"count\":%llu,\"p50\":%.0f,"
                "\"p95\":%.0f,\"p99\":%.0f},\"get\":{\"count\":%llu,"
                "\"p50\":%.0f,\"p95\":%.0f,\"p99\":%.0f}}",
                static_cast<unsigned long long>(served.put_latency.count),
                served.put_latency.p50, served.put_latency.p95,
                served.put_latency.p99,
                static_cast<unsigned long long>(served.get_latency.count),
                served.get_latency.p50, served.get_latency.p95,
                served.get_latency.p99);
  result += lat;
  char cache[256];
  std::snprintf(cache, sizeof(cache),
                ",\"dist\":\"%s\",\"cache_shards\":%zu,\"read_ops_s\":%.0f,"
                "\"cache\":{\"hits\":%llu,\"misses\":%llu,\"hit_rate\":%.4f}",
                flags.dist.c_str(), flags.engine.cache_shards,
                served.read_ops_per_sec,
                static_cast<unsigned long long>(served.cache_hits),
                static_cast<unsigned long long>(served.cache_misses),
                served.hit_rate());
  result += cache;
  result += ",\"arbiter_state\":" + served.arbiter_json + "}";
  std::printf("%s\n", result.c_str());
  return ratio >= 0.5 ? 0 : 1;
}
