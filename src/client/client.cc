#include "src/client/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace pipelsm::client {

using server::DecodedFrame;
using server::FrameDecoder;
using server::MessageType;

namespace {

// Reply deadline for the sync API and for future waits done through
// Client::Wait.
constexpr auto kRequestTimeout = std::chrono::seconds(10);

// Unanswered requests per connection; Submit blocks above this.
constexpr size_t kMaxInflightPerConnection = 128;

}  // namespace

struct Client::Connection {
  std::mutex mu;  // guards fd, pending, reader bookkeeping
  // Serializes frame bytes onto the socket. Never held together with mu
  // except in the order mu -> send_mu; the fd is only closed while both
  // are held, so a sender holding send_mu alone can trust its fd.
  std::mutex send_mu;
  std::condition_variable window_cv;
  int fd = -1;
  bool broken = false;  // reconnect on next use
  std::atomic<uint64_t> generation{0};
  std::unordered_map<uint64_t, std::promise<Result>> pending;
  std::thread reader;

  // Guarded by send_mu: duplicate fd/generation so Flush() can operate
  // without mu, plus frames held back for coalescing. The buffer is
  // cleared whenever the fd changes (close and connect both hold
  // send_mu), so buffered bytes always belong to the current socket.
  int send_fd = -1;
  uint64_t send_generation = 0;
  std::string sendbuf;
};

namespace {

Status SysError(const char* context) {
  return Status::IOError(context, std::strerror(errno));
}

// Writes the whole buffer, retrying EINTR and partial sends. The socket is
// blocking, so "short" writes only happen on signals.
Status SendAll(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (w > 0) {
      done += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return SysError("send");
  }
  return Status::OK();
}

}  // namespace

Client::Client(const ClientOptions& options) : options_(options) {
  const int n = options_.num_connections > 0 ? options_.num_connections : 1;
  for (int i = 0; i < n; i++) {
    pool_.push_back(std::make_unique<Connection>());
  }
}

Client::~Client() {
  for (auto& conn : pool_) {
    std::thread reader;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      if (conn->fd >= 0) {
        ::shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader's recv
      }
      reader = std::move(conn->reader);
    }
    if (reader.joinable()) reader.join();
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->fd >= 0) {
      std::lock_guard<std::mutex> sl(conn->send_mu);
      ::close(conn->fd);
      conn->fd = -1;
      conn->send_fd = -1;
      conn->sendbuf.clear();
    }
    FailAllPending(*conn, Status::IOError("client destroyed"));
  }
}

void Client::FailAllPending(Connection& conn, const Status& status) {
  // REQUIRES: conn.mu held.
  for (auto& [seq, promise] : conn.pending) {
    Result r;
    r.status = status;
    promise.set_value(std::move(r));
  }
  conn.pending.clear();
  conn.window_cv.notify_all();
}

Client::Connection* Client::PickConnection(const Slice* key) {
  const size_t stride =
      options_.connection_stride > 0 ? options_.connection_stride : 1;
  const auto& bounds = options_.shard_affinity_boundaries;
  if (key != nullptr && !bounds.empty()) {
    // Keyed + affinity: stay inside the key's shard group. Group g owns
    // pool slots g, g+groups, g+2*groups, ... (interleaved so any pool
    // size works); round-robin within the group by the global ticket.
    const size_t groups = bounds.size() + 1;
    const size_t shard = static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), *key,
                         [](const Slice& a, const std::string& b) {
                           return a.compare(Slice(b)) < 0;
                         }) -
        bounds.begin());
    // Slots this group owns; with fewer connections than shards some
    // groups are empty and fall back to a modulo pick.
    const size_t slots =
        pool_.size() / groups + (shard < pool_.size() % groups ? 1 : 0);
    if (slots == 0) return pool_[shard % pool_.size()].get();
    const size_t t = next_conn_.fetch_add(1, std::memory_order_relaxed);
    const size_t within = (t / stride) % slots;
    return pool_[shard + within * groups].get();
  }
  const size_t t = next_conn_.fetch_add(1, std::memory_order_relaxed);
  return pool_[(t / stride) % pool_.size()].get();
}

Status Client::EnsureConnected(Connection& conn) {
  // REQUIRES: conn.mu held.
  if (conn.fd >= 0 && !conn.broken) return Status::OK();
  if (conn.fd >= 0) {
    // Broken: the reader already exited (or will, on seeing the closed
    // fd). Reap it before starting a fresh one.
    ::shutdown(conn.fd, SHUT_RDWR);
    std::thread reader = std::move(conn.reader);
    if (reader.joinable()) {
      conn.mu.unlock();
      reader.join();
      conn.mu.lock();
    }
    {
      std::lock_guard<std::mutex> sl(conn.send_mu);
      ::close(conn.fd);
      conn.fd = -1;
      conn.send_fd = -1;
      conn.sendbuf.clear();
    }
    FailAllPending(conn, Status::IOError("connection reset"));
  }
  conn.broken = false;

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return SysError("socket");
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host", options_.host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const Status s = SysError("connect");
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  conn.fd = fd;
  const uint64_t gen =
      conn.generation.fetch_add(1, std::memory_order_release) + 1;
  {
    std::lock_guard<std::mutex> sl(conn.send_mu);
    conn.send_fd = fd;
    conn.send_generation = gen;
    conn.sendbuf.clear();
  }
  conn.reader = std::thread([this, c = &conn] { ReaderLoop(c); });
  return Status::OK();
}

void Client::ReaderLoop(Connection* conn) {
  int fd;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    fd = conn->fd;
    generation = conn->generation.load(std::memory_order_acquire);
  }
  FrameDecoder decoder;  // the server's frame ceiling
  char buf[64 * 1024];
  Status exit_status = Status::IOError("connection closed");
  while (true) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    decoder.Append(buf, static_cast<size_t>(r));
    DecodedFrame frame;
    bool fatal = false;
    while (true) {
      const FrameDecoder::Result res = decoder.Next(&frame);
      if (res == FrameDecoder::Result::kNeedMore) break;
      if (res == FrameDecoder::Result::kError) {
        exit_status = Status::Corruption("protocol error", decoder.error());
        fatal = true;
        break;
      }
      Result result;
      Slice payload;
      if (!frame.reply ||
          !server::ParseReply(Slice(frame.body), &result.status, &payload)) {
        exit_status = Status::Corruption("malformed reply");
        fatal = true;
        break;
      }
      if (result.status.ok()) {
        if (frame.type == MessageType::kScanOpen ||
            frame.type == MessageType::kScanNext) {
          if (!server::ParseScanBatchPayload(payload, &result.cursor_id,
                                             &result.entries, &result.done)) {
            result.status = Status::Corruption("malformed cursor payload");
          }
        } else {
          result.value.assign(payload.data(), payload.size());
        }
      }
      std::promise<Result> promise;
      bool found = false;
      {
        std::lock_guard<std::mutex> l(conn->mu);
        auto it = conn->pending.find(frame.seq);
        if (it != conn->pending.end()) {
          promise = std::move(it->second);
          conn->pending.erase(it);
          found = true;
          conn->window_cv.notify_one();
        }
      }
      if (found) promise.set_value(std::move(result));
    }
    if (fatal) break;
  }
  std::lock_guard<std::mutex> l(conn->mu);
  if (conn->generation.load(std::memory_order_acquire) == generation) {
    conn->broken = true;
    FailAllPending(*conn, exit_status);
  }
}

std::future<Result> Client::FailedFuture(const Status& status) {
  std::promise<Result> promise;
  Result r;
  r.status = status;
  promise.set_value(std::move(r));
  return promise.get_future();
}

std::future<Result> Client::Submit(const Encoder& encode, const Slice* key,
                                   Connection* pinned) {
  Connection& conn = pinned != nullptr ? *pinned : *PickConnection(key);
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  std::string wire;
  encode(seq, &wire);

  int fd;
  uint64_t generation;
  std::future<Result> future;
  {
    std::unique_lock<std::mutex> lock(conn.mu);
    const Status cs = EnsureConnected(conn);
    if (!cs.ok()) return FailedFuture(cs);
    // Bounded in-flight window: block until the reader drains some
    // replies (or the connection dies under us).
    conn.window_cv.wait(lock, [&] {
      return conn.broken ||
             conn.pending.size() < kMaxInflightPerConnection;
    });
    if (conn.broken) return FailedFuture(Status::IOError("connection reset"));
    fd = conn.fd;
    generation = conn.generation.load(std::memory_order_acquire);
    std::promise<Result> promise;
    future = promise.get_future();
    conn.pending.emplace(seq, std::move(promise));
  }

  // Send outside conn.mu so the reader keeps draining replies while we
  // block in send() — otherwise a full socket buffer deadlocks the pair.
  Status ws;
  {
    std::lock_guard<std::mutex> sl(conn.send_mu);
    if (conn.generation.load(std::memory_order_acquire) != generation) {
      ws = Status::IOError("connection reset");  // reconnected under us
    } else {
      conn.sendbuf.append(wire);
      if (conn.sendbuf.size() >= options_.pipeline_buffer_bytes) {
        ws = SendAll(fd, conn.sendbuf.data(), conn.sendbuf.size());
        conn.sendbuf.clear();
      }
    }
  }
  if (!ws.ok()) {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.generation.load(std::memory_order_acquire) == generation) {
      conn.pending.erase(seq);
      conn.broken = true;
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
      conn.window_cv.notify_all();
    }
    return FailedFuture(ws);
  }
  return future;
}

void Client::Flush() {
  for (auto& c : pool_) {
    Status ws;
    uint64_t generation = 0;
    {
      std::lock_guard<std::mutex> sl(c->send_mu);
      if (c->send_fd < 0 || c->sendbuf.empty()) continue;
      generation = c->send_generation;
      ws = SendAll(c->send_fd, c->sendbuf.data(), c->sendbuf.size());
      c->sendbuf.clear();
    }
    if (!ws.ok()) {
      std::lock_guard<std::mutex> l(c->mu);
      if (c->generation.load(std::memory_order_acquire) == generation &&
          !c->broken) {
        c->broken = true;
        if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
        c->window_cv.notify_all();
      }
    }
  }
}

Result Client::SyncWait(std::future<Result> future) {
  Flush();
  return Wait(future);
}

Result Client::Wait(std::future<Result>& future) {
  if (future.wait_for(kRequestTimeout) != std::future_status::ready) {
    Result r;
    r.status = Status::Busy("request timed out");
    return r;
  }
  return future.get();
}

// ---- async entry points ----

std::future<Result> Client::AsyncPing() {
  return Submit(server::EncodePingRequest);
}

std::future<Result> Client::AsyncPut(const Slice& key, const Slice& value) {
  return Submit(
      [&](uint64_t seq, std::string* wire) {
        server::EncodePutRequest(seq, key, value, wire);
      },
      &key);
}

std::future<Result> Client::AsyncDelete(const Slice& key) {
  return Submit(
      [&](uint64_t seq, std::string* wire) {
        server::EncodeDeleteRequest(seq, key, wire);
      },
      &key);
}

std::future<Result> Client::AsyncWriteBatch(
    const std::vector<server::BatchOp>& ops) {
  return Submit([&](uint64_t seq, std::string* wire) {
    server::EncodeWriteBatchRequest(seq, ops, wire);
  });
}

std::future<Result> Client::AsyncGet(const Slice& key) {
  return Submit(
      [&](uint64_t seq, std::string* wire) {
        server::EncodeGetRequest(seq, key, wire);
      },
      &key);
}

std::future<Result> Client::AsyncStats(const Slice& property) {
  return Submit([&](uint64_t seq, std::string* wire) {
    server::EncodeStatsRequest(seq, property, wire);
  });
}

std::future<Result> Client::SendScanOpen(const Slice& start_key,
                                          uint32_t limit, Connection* conn) {
  return Submit(
      [&](uint64_t seq, std::string* wire) {
        server::EncodeScanOpenRequest(seq, start_key, limit, wire);
      },
      nullptr, conn);
}

std::future<Result> Client::SendScanNext(uint64_t cursor_id,
                                          Connection* conn) {
  return Submit(
      [&](uint64_t seq, std::string* wire) {
        server::EncodeScanNextRequest(seq, cursor_id, wire);
      },
      nullptr, conn);
}

std::future<Result> Client::SendScanClose(uint64_t cursor_id,
                                           Connection* conn) {
  return Submit(
      [&](uint64_t seq, std::string* wire) {
        server::EncodeScanCloseRequest(seq, cursor_id, wire);
      },
      nullptr, conn);
}

// ---- sync wrappers ----

Status Client::Ping() { return SyncWait(AsyncPing()).status; }

Status Client::Put(const Slice& key, const Slice& value) {
  return SyncWait(AsyncPut(key, value)).status;
}

Status Client::Delete(const Slice& key) {
  return SyncWait(AsyncDelete(key)).status;
}

Status Client::WriteBatch(const std::vector<server::BatchOp>& ops) {
  return SyncWait(AsyncWriteBatch(ops)).status;
}

Status Client::Get(const Slice& key, std::string* value) {
  Result r = SyncWait(AsyncGet(key));
  if (r.status.ok()) *value = std::move(r.value);
  return r.status;
}

Status Client::Scan(const Slice& start_key, uint32_t limit,
                    std::vector<std::pair<std::string, std::string>>* entries) {
  CursorBatch batch;
  const Status s = ScanOpen(start_key, limit, &batch);
  if (!s.ok()) return s;
  // The entries are already here; a failed close only leaves the cursor
  // to the server's connection teardown or TTL sweeper.
  if (!batch.done) ScanClose(batch.cursor_id);
  *entries = std::move(batch.entries);
  return s;
}

Status Client::Stats(const Slice& property, std::string* value) {
  Result r = SyncWait(AsyncStats(property));
  if (r.status.ok()) *value = std::move(r.value);
  return r.status;
}

// ---- streaming scan cursors ----

Status Client::ScanOpen(const Slice& start_key, uint32_t limit,
                        CursorBatch* batch) {
  Connection* conn = PickConnection(nullptr);
  Result r = SyncWait(SendScanOpen(start_key, limit, conn));
  if (!r.status.ok()) return r.status;
  batch->cursor_id = r.cursor_id;
  batch->done = r.done;
  batch->entries = std::move(r.entries);
  if (!r.done) {
    std::lock_guard<std::mutex> l(cursor_conns_mu_);
    cursor_conns_[r.cursor_id] = conn;
  }
  return r.status;
}

Status Client::ScanNext(uint64_t cursor_id, CursorBatch* batch) {
  Connection* conn = nullptr;
  {
    std::lock_guard<std::mutex> l(cursor_conns_mu_);
    auto it = cursor_conns_.find(cursor_id);
    if (it != cursor_conns_.end()) conn = it->second;
  }
  Result r = SyncWait(SendScanNext(cursor_id, conn));
  if (r.status.ok()) {
    batch->cursor_id = cursor_id;
    batch->done = r.done;
    batch->entries = std::move(r.entries);
  }
  if (!r.status.ok() || r.done) {
    std::lock_guard<std::mutex> l(cursor_conns_mu_);
    cursor_conns_.erase(cursor_id);
  }
  return r.status;
}

Status Client::ScanClose(uint64_t cursor_id) {
  Connection* conn = nullptr;
  {
    std::lock_guard<std::mutex> l(cursor_conns_mu_);
    auto it = cursor_conns_.find(cursor_id);
    if (it != cursor_conns_.end()) {
      conn = it->second;
      cursor_conns_.erase(it);
    }
  }
  return SyncWait(SendScanClose(cursor_id, conn)).status;
}

std::unique_ptr<ScanStream> Client::NewScanStream(const Slice& start_key,
                                                  uint32_t limit) {
  return std::unique_ptr<ScanStream>(new ScanStream(this, start_key, limit));
}

ScanStream::ScanStream(Client* client, const Slice& start_key, uint32_t limit)
    : client_(client) {
  conn_ = client_->PickConnection(nullptr);
  Result r = client_->SyncWait(client_->SendScanOpen(start_key, limit, conn_));
  status_ = r.status;
  if (!status_.ok()) {
    done_ = true;
    return;
  }
  cursor_id_ = r.cursor_id;
  done_ = r.done;
  batch_ = std::move(r.entries);
  MaybePrefetch();
}

ScanStream::~ScanStream() { Close(); }

void ScanStream::MaybePrefetch() {
  if (done_ || prefetch_active_ || !status_.ok()) return;
  prefetch_ = client_->SendScanNext(cursor_id_, conn_);
  // The request must actually reach the wire NOW — with send coalescing
  // on, an unflushed prefetch would deadlock the consumer against its
  // own buffer.
  client_->Flush();
  prefetch_active_ = true;
}

void ScanStream::Next() {
  if (pos_ < batch_.size()) pos_++;
  while (pos_ >= batch_.size() && !done_ && status_.ok()) {
    if (!prefetch_active_) MaybePrefetch();
    Result r = client_->Wait(prefetch_);
    prefetch_active_ = false;
    status_ = r.status;
    if (!status_.ok()) return;
    done_ = r.done;
    batch_ = std::move(r.entries);
    pos_ = 0;
    MaybePrefetch();
  }
}

Status ScanStream::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (prefetch_active_) {
    // Absorb the in-flight batch; it may carry the done flag that tells
    // us the server already dropped the cursor.
    Result r = client_->Wait(prefetch_);
    prefetch_active_ = false;
    if (r.status.ok()) done_ = r.done;
  }
  if (done_ || cursor_id_ == 0) return Status::OK();
  return client_->SyncWait(client_->SendScanClose(cursor_id_, conn_)).status;
}

}  // namespace pipelsm::client
