// Network service layer: a multithreaded epoll TCP server exposing one DB
// over the binary protocol in src/server/protocol.h (docs/SERVER.md).
//
// The design mirrors the paper's pipeline argument at request scope: the
// read (socket), compute (DB), and write (socket) stages of every request
// are independent, so they run on different threads connected by a
// bounded queue, and the slowest stage — not the sum — governs throughput:
//
//   I/O threads (epoll, level-triggered, non-blocking)
//     thread 0 also owns the listen socket and accepts, handing new
//     connections round-robin to the loops; each loop reads its sockets,
//     feeds a FrameDecoder, and dispatches complete requests:
//       PING                      answered inline,
//       GET / STATS /
//       SCAN_OPEN|NEXT|CLOSE      -> request queue (BoundedQueue)
//       PUT / DELETE / WRITE_BATCH-> the connection's write lane; when
//                                    no worker is writing, one write
//                                    entry in the request queue
//   Worker pool (util/thread_pool) drains the request queue and executes
//     against the DB. At most one worker writes at a time, so reads keep
//     the others even while that one waits in a WAL sync. Each round, the
//     writing worker takes every waiting lane, parses each lane's writes,
//     in arrival order, into one WriteBatch, hands all the batches to one
//     DB::WriteMany, and sends each lane's replies in one send(). The
//     engine's writer queue (DBImpl::WriteMany) folds those batches, and
//     any other writer's, into ONE WAL record and, with sync_writes, ONE
//     WAL sync; a lone write never waits for company or a timer. A
//     connection's writes are in one batch per round, so they commit in
//     the order they were sent.
//   Responses are written back by the worker that produced them (under
//     the connection's lock); what does not fit in the socket buffer lands
//     in a per-connection outbox flushed by the owning loop via EPOLLOUT.
//
// Backpressure (never buffer unboundedly):
//   * per-connection in-flight cap — a connection with too many
//     unanswered requests stops being read until half drain;
//   * per-connection outbox cap — a reader slower than its SCAN results
//     stops being read until the outbox flushes;
//   * DB write stalls — wire write_stall_listener() into
//     Options::listeners and the server parks EPOLLIN on every connection
//     while the DB reports kStopped, surfacing the stall to clients as
//     TCP backpressure instead of heap growth.
//
// Drain (SIGTERM path): stop accepting, park reads, let the queue run
// dry (every accepted request is answered), flush outboxes, close
// connections, join threads. EVENT lines server_start / conn_open /
// conn_close / drain_begin / drain_end land in the info log.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/db/db.h"
#include "src/db/write_batch.h"
#include "src/obs/event_listener.h"
#include "src/obs/logger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/protocol.h"
#include "src/util/bounded_queue.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace pipelsm::shard {
class ShardedDB;
}  // namespace pipelsm::shard

namespace pipelsm::server {

// DB write-stall state shared between the DB's listener callbacks and the
// server's I/O loops. Create one BEFORE DB::Open, add it to
// Options::listeners, then hand it to ServerOptions::stall_gate; the
// server parks every connection's reads while the gate reports kStopped.
// Safe to fire with the DB mutex held: the update is an atomic count plus
// a non-blocking notifier (the server's wakeup pipes).
//
// The gate COUNTS stalled sources rather than storing the last event:
// with a ShardedDB every shard fires transitions into the same gate, and
// last-writer-wins would let shard B's return-to-normal clear shard A's
// active stop. state() reports kStopped while ANY source is stopped.
// Callers firing by hand must supply honest `previous` values (the DB
// does; see DBImpl's transition-edge firing).
class WriteStallGate : public obs::EventListener {
 public:
  void OnWriteStallChange(const obs::WriteStallInfo& info) override {
    using obs::WriteStallCondition;
    if (info.condition == WriteStallCondition::kStopped &&
        info.previous != WriteStallCondition::kStopped) {
      stopped_.fetch_add(1, std::memory_order_acq_rel);
    } else if (info.condition != WriteStallCondition::kStopped &&
               info.previous == WriteStallCondition::kStopped) {
      int v = stopped_.load(std::memory_order_acquire);
      while (v > 0 && !stopped_.compare_exchange_weak(
                          v, v - 1, std::memory_order_acq_rel)) {
      }
    }
    std::lock_guard<std::mutex> l(mu_);
    if (notifier_) notifier_();
  }

  obs::WriteStallCondition state() const {
    return stopped_.load(std::memory_order_acquire) > 0
               ? obs::WriteStallCondition::kStopped
               : obs::WriteStallCondition::kNormal;
  }

  // Called on every stall transition; must not block (DB mutex is held).
  // Pass nullptr to detach (the server does, on Drain).
  void SetNotifier(std::function<void()> notifier) {
    std::lock_guard<std::mutex> l(mu_);
    notifier_ = std::move(notifier);
  }

 private:
  std::atomic<int> stopped_{0};
  std::mutex mu_;
  std::function<void()> notifier_;
};

struct ServerOptions {
  std::string host = "0.0.0.0";
  int port = 7380;  // 0 = ephemeral; read the bound port via port()

  int num_io_threads = 2;
  // Request workers. At most one of them writes at a time, so with two or
  // more, reads always find a worker.
  int num_workers = 4;

  // Depth of the request queue. A full queue blocks the pushing I/O
  // loop, which stops socket reads — backpressure, not OOM.
  size_t request_queue_depth = 1024;

  // WriteOptions::sync for every served write. Writes that reach the
  // engine's writer queue together share one WAL sync.
  bool sync_writes = true;

  // Hard cap on the entries of one cursor batch (SCAN_OPEN / SCAN_NEXT
  // reply). Client::Scan returns one batch, so this also caps it.
  uint32_t max_scan_entries = 10000;

  // Hard cap on one cursor batch's payload bytes (keys + values). A hostile
  // limit can otherwise multiply with large (value-log separated)
  // values into an oversized reply allocation that blows straight past
  // the 8 MiB outbox cap in one request. The scan stops early at whichever
  // cap hits first; the reply is still well-formed.
  size_t max_scan_bytes = 4 * 1024 * 1024;

  // -------- streaming SCAN cursors (SCAN_OPEN / SCAN_NEXT / SCAN_CLOSE)
  // Every open cursor pins a DB snapshot, so an abandoned one holds
  // memtables and table files alive forever; the sweeper expires any
  // cursor idle longer than this (its next SCAN_NEXT gets NotFound). It
  // wakes every min(1 s, ttl / 4). 0 = never expire (tests only).
  uint64_t cursor_ttl_micros = 60 * 1000 * 1000;

  // Server-wide cap on simultaneously open cursors; SCAN_OPEN beyond it
  // is refused with Busy.
  size_t max_cursors = 1024;

  // EVENT sink; nullptr falls back to the DB's own info log
  // (DB::InfoLogHandle), then to silence.
  obs::Logger* info_log = nullptr;

  // Instrument registry for server.* metrics; nullptr falls back to the
  // DB's registry (DB::MetricsHandle) so GetProperty("pipelsm.metrics")
  // carries them, then to a private registry.
  obs::MetricsRegistry* metrics = nullptr;

  // Stall gate wired into the DB's Options::listeners (see
  // WriteStallGate). nullptr = no DB-stall backpressure (per-connection
  // caps still apply). Must outlive the server.
  WriteStallGate* stall_gate = nullptr;

  // -------- admin endpoint (docs/OBSERVABILITY.md) --------
  // Port for the HTTP/1.0 admin endpoint (GET /metrics /stats /advisor
  // /arbiter /healthz), served by the same epoll loops as
  // client traffic. -1 = disabled; 0 = ephemeral (read via
  // admin_port()). Binds on `host`. Admin connections are exempt from
  // stall parking and drain parking: /metrics stays scrapable while
  // writes are stopped, and /healthz answers 503 while draining.
  int admin_port = -1;

  // Concurrent admin connections; accepts beyond the cap are refused
  // (closed immediately). Scrapers and dashboards need a handful.
  size_t max_admin_conns = 64;

  // -------- per-request tracing (docs/OBSERVABILITY.md) --------
  // A request whose decode-to-reply-flush time reaches this emits one
  // "EVENT slow_request" line with its per-stage breakdown
  // (queue/db/reply micros) to the info log. 0 = off.
  uint64_t slow_request_micros = 1000 * 1000;

  // When set, every trace_sample_every-th request is recorded into this
  // collector as spans on the server's trace process (whole-request span
  // plus its db stage), alongside the DB's compaction spans when they
  // share a collector. Must outlive the server. nullptr = no sampling.
  obs::TraceCollector* trace = nullptr;
  uint64_t trace_sample_every = 64;
};

class Server {
 public:
  // The DB must outlive the server. To wire stall backpressure, create a
  // WriteStallGate, put it in Options::listeners before DB::Open, and
  // pass it in ServerOptions::stall_gate (optional but recommended).
  Server(DB* db, const ServerOptions& options);
  ~Server();  // drains if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns the I/O loops and the workers.
  Status Start();

  // Graceful shutdown; idempotent. Blocks until every accepted request is
  // answered (or a 5 s flush window expires) and all threads joined.
  void Drain();

  // Bound port (useful with port=0). Valid after Start().
  int port() const { return port_; }

  // Bound admin port; -1 when the endpoint is disabled. Valid after
  // Start().
  int admin_port() const { return admin_port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The gate the server watches: ServerOptions::stall_gate if set, else a
  // private one (which tests may fire by hand via OnWriteStallChange).
  WriteStallGate* stall_gate() { return gate_; }

  // The registry server.* instruments land in (for benches/tests).
  obs::MetricsRegistry* metrics_registry() { return metrics_; }

  size_t active_connections() const;

 private:
  struct Conn;
  struct IoLoop;
  struct Request;
  struct Cursor;

  // End-to-end request timestamps (NowNs clock): decode at dispatch,
  // DB-op start/end at execution; the reply-flush stamp is taken at the
  // emit site. Feeds the slow-request log line and trace sampling.
  struct ReqTiming {
    uint64_t decode_ns = 0;
    uint64_t op_start_ns = 0;
    uint64_t op_end_ns = 0;
  };

  // Binds a non-blocking listening socket on options_.host:`port`
  // (0 = ephemeral) into *fd and reports the bound port. `name` tags
  // errors ("client" / "admin").
  Status Listen(int port, int backlog, const char* name, int* fd,
                int* bound_port);
  void IoLoopMain(size_t index);
  // Accepts every pending connection of one kind (loop 0 only) and hands
  // each to an I/O loop round-robin. Client connections are refused while
  // draining; admin connections are served through the drain but capped
  // at max_admin_conns.
  void AcceptConnections(bool admin);
  void RegisterIncoming(IoLoop& loop);
  void HandleReadable(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);

  // Admin endpoint (HTTP/1.0, one request per connection).
  void HandleAdminReadable(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void HandleAdminRequest(const std::shared_ptr<Conn>& conn,
                          const std::string& method, const std::string& path);
  void SendAdminResponse(const std::shared_ptr<Conn>& conn, int status,
                         const char* content_type, const std::string& body);
  std::string RenderPrometheusMetrics();

  // Monotone request clock: the trace collector's epoch when sampling is
  // on (spans must share it), a private stopwatch otherwise.
  uint64_t NowNs() const;
  // Stamps the reply-flush end of one request: samples a trace span and
  // emits the slow-request line when over threshold.
  void FinishRequest(MessageType type, uint64_t conn_id,
                     const ReqTiming& timing, uint64_t end_ns);
  void DispatchFrame(const std::shared_ptr<Conn>& conn, DecodedFrame&& frame);
  void WorkerPump();
  void HandleRequest(Request& request);
  // Appends a write to `conn`'s lane. A lane that was idle joins
  // write_lanes_, and if no worker is writing, a write entry in the
  // request queue makes the worker that pops it the writing worker.
  void DispatchWrite(const std::shared_ptr<Conn>& conn, Request&& request);
  // Answers n requests Busy: the server is draining.
  void RefuseDraining(const std::shared_ptr<Conn>& conn, Request* requests,
                      size_t n);
  // The writing worker: commits every waiting lane, round after round,
  // until none is waiting.
  void ServeWrites();
  // Commits the writes queued on every lane in *lanes with one
  // DB::WriteMany (one batch per lane) and replies to each, one send()
  // per lane. Leaves in *lanes the lanes that refilled meanwhile; the
  // others are idle again.
  void CommitWrites(std::vector<std::shared_ptr<Conn>>* lanes);
  // Parses a PUT / DELETE / WRITE_BATCH body into *batch; false if it is
  // malformed.
  bool AddWrite(MessageType type, const Slice& body, WriteBatch* batch);
  void SendReply(const std::shared_ptr<Conn>& conn, MessageType type,
                 uint64_t seq, const Status& status, const Slice& payload);
  // Queues `count` encoded reply frames for one send().
  void DeliverReplies(const std::shared_ptr<Conn>& conn,
                      const std::string& frames, size_t count);
  void CloseConn(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                 const char* reason);
  // REQUIRES: conn->mu held.
  void UpdateInterestLocked(Conn& conn);
  void TryFlushLocked(Conn& conn);
  void WakeAllLoops();
  void ObserveLatency(MessageType type, uint64_t micros);

  // Streaming cursor plumbing (SCAN_OPEN / SCAN_NEXT / SCAN_CLOSE; see
  // docs/READ_PATH.md). Handlers run on worker threads via
  // HandleRequest.
  std::shared_ptr<Cursor> FindCursor(uint64_t id);
  // Pulls one bounded batch (max_scan_entries / max_scan_bytes) and
  // encodes the reply payload; sets *done when the iterator is exhausted
  // or the client's limit is reached.
  Status PullCursorBatch(const std::shared_ptr<Cursor>& cursor,
                         std::string* payload, bool* done);
  // Removes the cursor from the registry and releases its iterator and
  // snapshot exactly once; `counter` (closed/expired) bumps only if this
  // call actually retired it. Safe to race with a concurrent batch pull.
  void CloseCursor(const std::shared_ptr<Cursor>& cursor,
                   obs::Counter* counter);
  void CloseCursorsForConn(uint64_t conn_id);
  void CloseAllCursors();
  void SweepExpiredCursors();
  void CursorSweeperMain();

  DB* const db_;
  // Non-null when db_ is a ShardedDB: /metrics renders each shard's
  // registry under its shard label. ShardedDB::WriteMany routes writes,
  // so N shards sync N WALs in parallel (docs/SHARDING.md).
  shard::ShardedDB* sharded_ = nullptr;
  const ServerOptions options_;

  obs::Logger* info_log_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry own_metrics_;

  int listen_fd_ = -1;
  int port_ = 0;
  int admin_fd_ = -1;
  int admin_port_ = -1;

  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::unique_ptr<BoundedQueue<Request>> request_queue_;
  std::unique_ptr<ThreadPool> workers_;
  // Write lanes waiting for the writing worker. writing_ is true while a
  // worker commits lanes or a write entry in request_queue_ will start
  // one, so at most one worker writes at a time.
  std::mutex write_mu_;
  std::vector<std::shared_ptr<Conn>> write_lanes_;  // guarded by write_mu_
  bool writing_ = false;                            // guarded by write_mu_
  WriteStallGate own_gate_;
  WriteStallGate* gate_ = nullptr;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_loop_{0};
  std::atomic<uint64_t> trace_sampler_{0};
  Stopwatch epoch_;  // NowNs clock when no trace collector is attached
  uint32_t trace_pid_ = 0;  // server's trace process (0 = no collector)

  // server.* instruments (registered in Start()).
  obs::Gauge* conns_active_ = nullptr;
  obs::Counter* conns_total_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* read_pauses_ = nullptr;
  obs::Counter* req_counters_[kNumMessageTypes] = {};
  obs::HistogramMetric* req_micros_[kNumMessageTypes] = {};
  // Admin endpoint + request tracing instruments.
  obs::Gauge* admin_conns_active_ = nullptr;
  obs::Counter* admin_requests_ = nullptr;
  obs::Counter* admin_http_errors_ = nullptr;
  obs::Counter* slow_requests_ = nullptr;
  obs::Gauge* requests_inflight_ = nullptr;
  obs::Gauge* draining_gauge_ = nullptr;

  // Streaming cursor registry: id -> open cursor. Lock order is
  // cursors_mu_ THEN Cursor::mu (lookups drop cursors_mu_ before
  // touching the cursor; closers erase first, destroy after).
  std::mutex cursors_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Cursor>> cursors_;
  std::atomic<uint64_t> next_cursor_id_{1};
  std::thread cursor_sweeper_;
  std::mutex sweeper_mu_;
  std::condition_variable sweeper_cv_;
  bool sweeper_stop_ = false;
  obs::Counter* cursors_opened_ = nullptr;
  obs::Counter* cursors_closed_ = nullptr;
  obs::Counter* cursors_expired_ = nullptr;
  obs::Counter* cursor_batches_ = nullptr;
  obs::Gauge* cursors_active_ = nullptr;
};

}  // namespace pipelsm::server
