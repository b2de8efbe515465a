// Pipelined client for the pipelsm server (wire format in
// src/server/protocol.h, semantics in docs/SERVER.md).
//
// Each pooled connection keeps ONE TCP stream busy with many requests in
// flight: senders frame-and-send under a small lock, a per-connection
// reader thread matches replies to callers by sequence number. The
// in-flight window is bounded (backpressure mirrors the server's), so a
// burst of async calls blocks in Submit instead of buffering unboundedly.
//
// Two call styles over the same engine:
//   * sync  — Put/Get/... block for the reply (with per-request timeout);
//   * async — AsyncPut/... return std::future<Result> immediately, letting
//     one thread keep the pipeline full (this is what bench_server uses).
//
// Connections are established lazily and re-established on next use after
// an error; in-flight requests on a broken connection fail with IOError.
// Thread-safe: any number of threads may share one Client.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/server/protocol.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm::client {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 7380;

  // Pooled TCP connections; requests round-robin across them.
  int num_connections = 1;

  // Send coalescing for the async API. 0 (default) sends every frame
  // immediately. When > 0, async submissions are buffered per connection
  // and written out once the buffer reaches this many bytes, a sync call
  // lands on the pool, or Flush() is called. Callers that enable this
  // MUST Flush() before blocking on a future, or the buffered requests
  // may never reach the server. Sync calls always flush, so they are
  // safe either way.
  size_t pipeline_buffer_bytes = 0;

  // How many consecutive submissions share one pooled connection before
  // round-robin advances. > 1 concentrates bursts so coalesced sends
  // (both this buffer and the server's batched replies) carry more
  // frames per syscall. 1 = classic per-request round-robin.
  size_t connection_stride = 1;

  // Shard affinity against a sharded server (docs/SHARDING.md): the
  // server's boundary keys, sorted ascending. When non-empty, the pool
  // is partitioned into boundaries.size() + 1 groups (connection i
  // serves shard i % groups) and every KEYED request (put/delete/get)
  // rides a connection of its key's group — so each shard's writes
  // arrive on dedicated sockets instead of interleaving all shards over
  // all sockets. Keyless requests
  // (ping/scan/stats/batch) still round-robin over the whole pool.
  // Size num_connections as a multiple of the shard count.
  std::vector<std::string> shard_affinity_boundaries;
};

// Outcome of one request. `value` holds GET/STATS payloads; `entries`,
// `cursor_id` and `done` are set on SCAN_OPEN / SCAN_NEXT replies.
struct Result {
  Status status;
  std::string value;
  std::vector<std::pair<std::string, std::string>> entries;
  uint64_t cursor_id = 0;
  bool done = false;
};

class ScanStream;

class Client {
 public:
  explicit Client(const ClientOptions& options);
  ~Client();  // fails outstanding futures, joins reader threads

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- sync API (async + bounded wait) ----
  Status Ping();
  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  Status WriteBatch(const std::vector<server::BatchOp>& ops);
  Status Get(const Slice& key, std::string* value);
  // One-shot scan: the first batch of a server cursor, so at most
  // min(limit, max_scan_entries) entries (limit 0 = that cap), cut early
  // at max_scan_bytes. Closes the cursor before returning if the server
  // still holds it. The cursor counts against the server's max_cursors
  // while the call runs, so Scan returns Busy when the cap is reached.
  Status Scan(const Slice& start_key, uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* entries);
  Status Stats(const Slice& property, std::string* value);

  // ---- streaming scan (server-side cursor; docs/READ_PATH.md) ----
  // One bounded batch from a server cursor. `done` means the server
  // exhausted the scan (or hit the limit) and already released the
  // cursor — no SCAN_CLOSE needed.
  struct CursorBatch {
    uint64_t cursor_id = 0;
    bool done = false;
    std::vector<std::pair<std::string, std::string>> entries;
  };

  // Low-level, one frame per call. Every op for a cursor rides the
  // connection that opened it (the server drops a cursor when its
  // opening connection dies); the client tracks that internally, so
  // callers just pass the id around. limit 0 = scan to the end.
  Status ScanOpen(const Slice& start_key, uint32_t limit, CursorBatch* batch);
  Status ScanNext(uint64_t cursor_id, CursorBatch* batch);
  Status ScanClose(uint64_t cursor_id);  // idempotent

  // Pipelined iteration: opens a cursor and keeps ONE prefetched batch
  // in flight, so the server builds batch N+1 while the caller consumes
  // batch N. Must not outlive the client. Not thread-safe (one thread
  // per stream; other threads may still use the client).
  std::unique_ptr<ScanStream> NewScanStream(const Slice& start_key,
                                            uint32_t limit);

  // ---- async API ----
  // The server commits one connection's writes in the order it reads
  // them. Consecutive calls may ride different pooled connections, so
  // two async writes to one key are ordered only with num_connections =
  // 1 (or by waiting for the first reply).
  std::future<Result> AsyncPing();
  std::future<Result> AsyncPut(const Slice& key, const Slice& value);
  std::future<Result> AsyncDelete(const Slice& key);
  std::future<Result> AsyncWriteBatch(const std::vector<server::BatchOp>& ops);
  std::future<Result> AsyncGet(const Slice& key);
  std::future<Result> AsyncStats(const Slice& property);

  // Waits up to 10 s for `future`; a timeout yields Status::Busy without
  // invalidating the future.
  Result Wait(std::future<Result>& future);

  // Writes out any requests held back by pipeline_buffer_bytes. Required
  // before blocking on async futures when buffering is enabled; a no-op
  // otherwise. Send failures surface through the affected futures.
  void Flush();

 private:
  friend class ScanStream;

  struct Connection;

  // Appends one request frame with the given sequence number: one of the
  // server::Encode*Request builders, so client and tests share one body
  // encoder per message type.
  using Encoder = std::function<void(uint64_t seq, std::string* wire)>;

  // Allocates a sequence number, frames the request with `encode` onto a
  // pooled connection and registers a pending slot; the reader thread
  // completes the future. The frame goes out immediately unless
  // pipeline_buffer_bytes holds it back for coalescing. `key` (nullable)
  // steers the connection choice under shard_affinity_boundaries; it
  // does not change the wire format. `pinned` (nullable) bypasses
  // PickConnection entirely — cursor ops must stick to the connection
  // that opened the cursor.
  std::future<Result> Submit(const Encoder& encode, const Slice* key = nullptr,
                             Connection* pinned = nullptr);
  // The cursor frames on `conn`, the connection that holds (or is to
  // open) the cursor; ScanOpen/ScanNext/ScanClose and ScanStream share
  // them.
  std::future<Result> SendScanOpen(const Slice& start_key, uint32_t limit,
                                    Connection* conn);
  std::future<Result> SendScanNext(uint64_t cursor_id, Connection* conn);
  std::future<Result> SendScanClose(uint64_t cursor_id, Connection* conn);
  // Flush() + Wait(): the sync API lands here so buffered frames always
  // reach the wire before the caller blocks.
  Result SyncWait(std::future<Result> future);
  std::future<Result> FailedFuture(const Status& status);
  Connection* PickConnection(const Slice* key);
  Status EnsureConnected(Connection& conn);
  void ReaderLoop(Connection* conn);
  static void FailAllPending(Connection& conn, const Status& status);

  const ClientOptions options_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<size_t> next_conn_{0};
  std::vector<std::unique_ptr<Connection>> pool_;

  // cursor id -> the pooled connection that opened it (raw pointers into
  // pool_, which outlives every cursor). Entries retire on done / close
  // / error.
  std::mutex cursor_conns_mu_;
  std::unordered_map<uint64_t, Connection*> cursor_conns_;
};

// Streaming scan handle (Client::NewScanStream). Usage mirrors a DB
// iterator:
//
//   auto stream = client.NewScanStream("user.", 0);
//   for (; stream->Valid(); stream->Next()) use(stream->key(), ...);
//   Status s = stream->status();   // OK on clean end-of-scan
//
// The destructor closes the server cursor if the scan was abandoned
// mid-stream.
class ScanStream {
 public:
  ~ScanStream();

  ScanStream(const ScanStream&) = delete;
  ScanStream& operator=(const ScanStream&) = delete;

  bool Valid() const { return status_.ok() && pos_ < batch_.size(); }
  const std::string& key() const { return batch_[pos_].first; }
  const std::string& value() const { return batch_[pos_].second; }
  void Next();

  // OK while streaming and after a clean end; the first transport or
  // server error sticks (and invalidates the stream).
  const Status& status() const { return status_; }

  // Early teardown (idempotent; the destructor calls it). Returns the
  // SCAN_CLOSE outcome, OK if the server already released the cursor.
  Status Close();

 private:
  friend class Client;
  ScanStream(Client* client, const Slice& start_key, uint32_t limit);

  // Issues the next SCAN_NEXT if the server still holds the cursor and
  // nothing is in flight.
  void MaybePrefetch();

  Client* const client_;
  Client::Connection* conn_ = nullptr;
  uint64_t cursor_id_ = 0;
  Status status_;
  bool done_ = false;    // server released the cursor
  bool closed_ = false;  // Close() ran
  std::vector<std::pair<std::string, std::string>> batch_;
  size_t pos_ = 0;
  std::future<Result> prefetch_;
  bool prefetch_active_ = false;
};

}  // namespace pipelsm::client
