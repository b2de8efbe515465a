// pipelsm_server: stand-alone network daemon serving one DB over the
// binary protocol (docs/SERVER.md).
//
//   pipelsm_server --db=PATH [--flag=value ...]
//
// Flags:
//   --db=PATH               DB directory (default /tmp/pipelsm_server)
//   --host=ADDR --port=N    listen address (default 0.0.0.0:7380; port 0
//                           binds an ephemeral port and prints it)
//   --io_threads=N          epoll I/O loops (default 2)
//   --workers=N             read-path worker threads (default 4)
//   --compaction=scp|pcp|cppcp
//   --compaction_style=leveled|tiered|lazy
//                           which picker preset shapes jobs (must not
//                           change across reopens of one directory)
//   --tiered_run_count=N    sorted runs a tiered/lazy level accumulates
//                           before merging (default 4)
//   --max_subcompactions=N  key-range fan-out per compaction job
//                           (default 1 = off)
//   --write_buffer_kb=N --file_kb=N --subtask_kb=N
//   --compute_parallelism=N
//   --group_window_micros=N group-commit gather window (default 100)
//   --nosync                WriteOptions::sync=false for group commits
//   --create_if_missing=0|1 (default 1)
//   --value_threshold=N     key-value separation: values >= N bytes live
//                           in the value log (0 = off, docs/VALUE_LOG.md)
//   --cache_size=N          block cache capacity in bytes (default 8MiB;
//                           sharded fleets share ONE cache of this size —
//                           docs/READ_PATH.md)
//   --cache_shards=N        block cache lock shards (0 = auto from CPU
//                           count, 1 = single-mutex baseline)
//   --bloom_bits_per_key=N  bloom filter bits per key (0 = no filters)
//   --filter_partition_bytes=N
//                           partitioned-filter partition size (default 4096)
//   --cursor_ttl_micros=N   idle streaming cursors expire after this
//                           (default 60s; 0 = never)
//   --max_cursors=N         open streaming cursor cap (default 1024)
//   --max_scan_entries=N --max_scan_bytes=N
//                           per-reply caps for SCAN and cursor batches
//                           (defaults 10000 / 4MiB)
//   --shards=N              serve a range-sharded fleet of N engines
//                           under one root (default 1 = plain DB)
//   --shard_boundaries=a,b  comma-separated boundary keys (N-1 of them,
//                           sorted; required on first open with
//                           --shards>1, optional on reopen — the SHARDS
//                           manifest wins; docs/SHARDING.md)
//   --arbiter_compute_workers=N
//                           compute workers the fleet arbiter rations
//                           among the jobs each shard's scheduler
//                           chooses (default 4)
//   --no_arbiter            per-shard free-for-all compaction admission
//   --admin_port=N          HTTP observability endpoint (GET /metrics
//                           /stats /advisor /arbiter /healthz;
//                           docs/OBSERVABILITY.md). -1 =
//                           disabled (default); 0 = ephemeral, printed
//                           at startup
//   --slow_request_micros=N requests slower than this end to end log one
//                           "EVENT slow_request" breakdown line
//                           (default 1s; 0 = off)
//   --trace_file=PATH       sample requests into a trace collector and
//                           write Chrome trace JSON there on shutdown
//   --trace_sample_every=N  sample every Nth request (default 64)
//
// SIGTERM/SIGINT triggers a graceful drain: stop accepting, answer every
// accepted request, flush sockets, quiesce compactions, close the DB,
// exit 0. SIGPIPE is ignored process-wide so a peer closing mid-reply
// surfaces as an EPIPE send error on that connection, not process death.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/db/db.h"
#include "src/obs/trace.h"
#include "src/server/server.h"
#include "src/shard/sharded_db.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void HandleShutdownSignal(int sig) {
  const char b = static_cast<char>(sig);
  [[maybe_unused]] ssize_t r = ::write(g_signal_pipe[1], &b, 1);
}

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

}  // namespace

int main(int argc, char** argv) {
  std::string db_path = "/tmp/pipelsm_server";
  std::string compaction = "pcp";
  std::string compaction_style = "leveled";
  int tiered_run_count = 4;
  int max_subcompactions = 1;
  size_t write_buffer_kb = 4096;
  size_t file_kb = 2048;
  size_t subtask_kb = 512;
  int compute_parallelism = 1;
  size_t value_threshold = 0;
  size_t cache_size = 8 << 20;
  size_t cache_shards = 0;
  int bloom_bits_per_key = 0;
  size_t filter_partition_bytes = 4096;
  int create_if_missing = 1;
  size_t shards = 1;
  std::string shard_boundaries;
  bool arbiter = true;
  int arbiter_compute_workers = 4;
  std::string trace_file;
  pipelsm::server::ServerOptions sopts;

  for (int i = 1; i < argc; i++) {
    if (ParseFlag(argv[i], "db", &db_path) ||
        ParseFlag(argv[i], "host", &sopts.host) ||
        ParseNumFlag(argv[i], "port", &sopts.port) ||
        ParseNumFlag(argv[i], "io_threads", &sopts.num_io_threads) ||
        ParseNumFlag(argv[i], "workers", &sopts.num_workers) ||
        ParseFlag(argv[i], "compaction", &compaction) ||
        ParseFlag(argv[i], "compaction_style", &compaction_style) ||
        ParseNumFlag(argv[i], "tiered_run_count", &tiered_run_count) ||
        ParseNumFlag(argv[i], "max_subcompactions", &max_subcompactions) ||
        ParseNumFlag(argv[i], "write_buffer_kb", &write_buffer_kb) ||
        ParseNumFlag(argv[i], "file_kb", &file_kb) ||
        ParseNumFlag(argv[i], "subtask_kb", &subtask_kb) ||
        ParseNumFlag(argv[i], "compute_parallelism", &compute_parallelism) ||
        ParseNumFlag(argv[i], "group_window_micros",
                     &sopts.group_commit_window_micros) ||
        ParseNumFlag(argv[i], "create_if_missing", &create_if_missing) ||
        ParseNumFlag(argv[i], "value_threshold", &value_threshold) ||
        ParseNumFlag(argv[i], "cache_size", &cache_size) ||
        ParseNumFlag(argv[i], "cache_shards", &cache_shards) ||
        ParseNumFlag(argv[i], "bloom_bits_per_key", &bloom_bits_per_key) ||
        ParseNumFlag(argv[i], "filter_partition_bytes",
                     &filter_partition_bytes) ||
        ParseNumFlag(argv[i], "cursor_ttl_micros", &sopts.cursor_ttl_micros) ||
        ParseNumFlag(argv[i], "max_cursors", &sopts.max_cursors) ||
        ParseNumFlag(argv[i], "max_scan_entries", &sopts.max_scan_entries) ||
        ParseNumFlag(argv[i], "max_scan_bytes", &sopts.max_scan_bytes) ||
        ParseNumFlag(argv[i], "shards", &shards) ||
        ParseFlag(argv[i], "shard_boundaries", &shard_boundaries) ||
        ParseNumFlag(argv[i], "arbiter_compute_workers",
                     &arbiter_compute_workers) ||
        ParseNumFlag(argv[i], "slow_request_micros",
                     &sopts.slow_request_micros) ||
        ParseFlag(argv[i], "trace_file", &trace_file) ||
        ParseNumFlag(argv[i], "trace_sample_every",
                     &sopts.trace_sample_every)) {
      continue;
    }
    if (std::strncmp(argv[i], "--admin_port=", 13) == 0) {
      sopts.admin_port = std::atoi(argv[i] + 13);  // -1 stays "disabled"
      continue;
    }
    if (std::strcmp(argv[i], "--nosync") == 0) {
      sopts.sync_writes = false;
      continue;
    }
    if (std::strcmp(argv[i], "--no_arbiter") == 0) {
      arbiter = false;
      continue;
    }
    std::fprintf(stderr, "unrecognized flag: %s (see header comment)\n",
                 argv[i]);
    return 2;
  }

  // A peer that disappears mid-reply must cost one connection, not the
  // process.
  ::signal(SIGPIPE, SIG_IGN);

  pipelsm::Options options;
  options.create_if_missing = (create_if_missing != 0);
  options.write_buffer_size = write_buffer_kb << 10;
  options.max_file_size = file_kb << 10;
  options.subtask_bytes = subtask_kb << 10;
  options.compute_parallelism = compute_parallelism;
  options.value_separation_threshold = value_threshold;
  options.block_cache_size = cache_size;
  options.block_cache_shards = cache_shards;
  options.bloom_bits_per_key = bloom_bits_per_key;
  options.filter_partition_bytes = filter_partition_bytes;
  options.tiered_run_count = tiered_run_count;
  options.max_subcompactions = max_subcompactions;
  pipelsm::Status parsed = pipelsm::ParseCompactionStyle(
      compaction_style, &options.compaction_style);
  if (parsed.ok()) {
    parsed = pipelsm::ParseCompactionMode(compaction, &options.compaction_mode);
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }

  // The gate goes into the DB's listeners before Open, so write stalls
  // reach the server's I/O loops from the first request.
  pipelsm::server::WriteStallGate stall_gate;
  options.listeners.push_back(&stall_gate);
  sopts.stall_gate = &stall_gate;

  std::unique_ptr<pipelsm::DB> db;
  pipelsm::Status s;
  if (shards > 1 || !shard_boundaries.empty()) {
    pipelsm::shard::ShardedOptions shopts;
    shopts.num_shards = shards;
    for (size_t pos = 0; pos < shard_boundaries.size();) {
      const size_t comma = shard_boundaries.find(',', pos);
      const size_t end =
          comma == std::string::npos ? shard_boundaries.size() : comma;
      shopts.boundary_keys.push_back(shard_boundaries.substr(pos, end - pos));
      pos = end + 1;
    }
    if (shards <= 1 && !shopts.boundary_keys.empty()) {
      shopts.num_shards = shopts.boundary_keys.size() + 1;  // inferred
    }
    shopts.enable_arbiter = arbiter;
    shopts.arbiter.compute_workers = arbiter_compute_workers;
    pipelsm::shard::ShardedDB* raw = nullptr;
    s = pipelsm::shard::ShardedDB::Open(options, shopts, db_path, &raw);
    if (s.ok()) db.reset(raw);
  } else {
    pipelsm::DB* raw = nullptr;
    s = pipelsm::DB::Open(options, db_path, &raw);
    if (s.ok()) db.reset(raw);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "open %s: %s\n", db_path.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<pipelsm::obs::TraceCollector> trace;
  if (!trace_file.empty()) {
    trace = std::make_unique<pipelsm::obs::TraceCollector>();
    sopts.trace = trace.get();
  }
  pipelsm::server::Server server(db.get(), sopts);

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = HandleShutdownSignal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("pipelsm_server listening on %s:%d (db=%s, shards=%zu)\n",
              sopts.host.c_str(), server.port(), db_path.c_str(),
              shards > 1 ? shards : 1);
  if (server.admin_port() >= 0) {
    std::printf("admin endpoint on %s:%d (/metrics /stats /healthz)\n",
                sopts.host.c_str(), server.admin_port());
  }
  std::fflush(stdout);

  // Block until SIGTERM/SIGINT.
  char sig = 0;
  while (true) {
    const ssize_t r = ::read(g_signal_pipe[0], &sig, 1);
    if (r == 1) break;
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
  }
  std::printf("signal %d: draining\n", sig);
  std::fflush(stdout);

  server.Drain();
  if (trace) {
    pipelsm::Status ts = trace->WriteFile(trace_file);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace dump %s: %s\n", trace_file.c_str(),
                   ts.ToString().c_str());
    }
  }
  s = db->WaitForCompactions();
  if (!s.ok()) {
    std::fprintf(stderr, "compaction drain: %s\n", s.ToString().c_str());
  }
  db.reset();
  std::printf("clean shutdown\n");
  return 0;
}
