// pipelsm_server: stand-alone network daemon serving one DB over the
// binary protocol (docs/SERVER.md).
//
//   pipelsm_server --db=PATH [--flag=value ...]
//
// Flags: the table in main(), one help line each; an unknown flag (--help
// included) or a malformed value prints it and exits 2.
//
// SIGTERM/SIGINT triggers a graceful drain: stop accepting, answer every
// accepted request, flush sockets, quiesce compactions, close the DB,
// exit 0. SIGPIPE is ignored process-wide so a peer closing mid-reply
// surfaces as an EPIPE send error on that connection, not process death.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/db/db.h"
#include "src/obs/trace.h"
#include "src/server/server.h"
#include "src/shard/sharded_db.h"
#include "tools/engine_flags.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void HandleShutdownSignal(int sig) {
  const char b = static_cast<char>(sig);
  [[maybe_unused]] ssize_t r = ::write(g_signal_pipe[1], &b, 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path = "/tmp/pipelsm_server";
  pipelsm::EngineFlags engine;
  int create_if_missing = 1;
  size_t shards = 1;
  std::string shard_boundaries;
  bool no_arbiter = false;
  bool nosync = false;
  int arbiter_compute_workers = 4;
  std::string trace_file;
  pipelsm::server::ServerOptions sopts;

  pipelsm::flags::FlagSet set("pipelsm_server --db=PATH [--flag=value ...]");
  set.Add("db", &db_path, "DB directory");
  set.Add("host", &sopts.host, "listen address");
  set.Add("port", &sopts.port, "listen port (0 = ephemeral, printed)");
  set.Add("io_threads", &sopts.num_io_threads, "epoll I/O loops");
  set.Add("workers", &sopts.num_workers,
          "request worker threads; at most one writes at a time");
  engine.Register(&set);
  set.Switch("nosync", &nosync, "WriteOptions::sync=false for served writes");
  set.Add("create_if_missing", &create_if_missing, "0 or 1");
  set.Add("cursor_ttl_micros", &sopts.cursor_ttl_micros,
          "idle streaming cursors expire after this (0 = never)");
  set.Add("max_cursors", &sopts.max_cursors, "open streaming cursor cap");
  set.Add("max_scan_entries", &sopts.max_scan_entries,
          "per-reply entry cap for SCAN and cursor batches");
  set.Add("max_scan_bytes", &sopts.max_scan_bytes,
          "per-reply byte cap for SCAN and cursor batches");
  set.Add("shards", &shards,
          "serve a range-sharded fleet of N engines under one root");
  set.Add("shard_boundaries", &shard_boundaries,
          "N-1 sorted comma-separated boundary keys; needed on a fleet's "
          "first open, the SHARDS manifest wins on reopen (docs/SHARDING.md)");
  set.Add("arbiter_compute_workers", &arbiter_compute_workers,
          "compute workers the fleet arbiter rations among shards' jobs");
  set.Switch("no_arbiter", &no_arbiter,
             "per-shard free-for-all compaction admission");
  set.Add("admin_port", &sopts.admin_port,
          "HTTP /metrics /stats /advisor /arbiter /healthz endpoint "
          "(-1 = off, 0 = ephemeral; docs/OBSERVABILITY.md)");
  set.Add("slow_request_micros", &sopts.slow_request_micros,
          "log an EVENT slow_request line for slower requests (0 = off)");
  set.Add("trace_file", &trace_file,
          "sample requests and write Chrome trace JSON here on shutdown");
  set.Add("trace_sample_every", &sopts.trace_sample_every,
          "sample every Nth request");
  set.ParseFlags(argc, argv);
  sopts.sync_writes = !nosync;

  pipelsm::Options options;
  const pipelsm::Status parsed = engine.ApplyTo(&options);
  if (!parsed.ok()) set.Fail(parsed.ToString());
  options.create_if_missing = (create_if_missing != 0);

  // A peer that disappears mid-reply must cost one connection, not the
  // process.
  ::signal(SIGPIPE, SIG_IGN);

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
    shopts.enable_arbiter = !no_arbiter;
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
