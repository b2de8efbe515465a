#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "src/db/write_batch.h"
#include "src/obs/advisor.h"
#include "src/obs/prometheus.h"
#include "src/server/http.h"
#include "src/shard/sharded_db.h"
#include "src/table/iterator.h"
#include "src/util/coding.h"
#include "src/util/stopwatch.h"

namespace pipelsm::server {

namespace {

Status Errno(const std::string& context) {
  return Status::IOError(context, std::strerror(errno));
}

size_t TypeIndex(MessageType type) { return static_cast<size_t>(type); }

bool IsWrite(MessageType type) {
  return type == MessageType::kPut || type == MessageType::kDelete ||
         type == MessageType::kWriteBatch;
}

// Reads pause on a connection holding this many unanswered requests, or
// whose pending response bytes exceed kMaxOutboxBytes.
constexpr size_t kMaxInflightPerConn = 128;
constexpr size_t kMaxOutboxBytes = 8 * 1024 * 1024;

// How long Drain() waits for outboxes to reach the wire.
constexpr uint64_t kDrainFlushTimeoutNanos = 5ull * 1000 * 1000 * 1000;

}  // namespace

// One dispatched request. Writes wait in their connection's lane
// (Conn::writes) with `conn` empty, since the Conn owns them; a write
// type in the request queue carries nothing and wakes a writing worker.
struct Server::Request {
  std::shared_ptr<Conn> conn;
  MessageType type = MessageType::kPing;
  uint64_t seq = 0;
  std::string body;
  Stopwatch queued;  // starts at dispatch; latency includes queue wait
  ReqTiming timing;
  // Writes only: a parse error (answered instead of the commit status).
  Status error;
};

// One accepted connection. The owning I/O loop is the only thread that
// reads the socket and the only one that closes the fd; the workers
// share the fd for send() under mu.
struct Server::Conn {
  uint64_t id = 0;
  size_t loop_index = 0;
  int epfd = -1;  // owning loop's epoll instance (for interest updates)

  FrameDecoder decoder;  // touched only by the owning loop

  // Admin (HTTP) connection: exempt from stall/drain read parking, one
  // request then close-after-flush. parser is touched only by the
  // owning loop, like decoder.
  bool admin = false;
  HttpRequestParser http;

  std::mutex mu;  // guards everything below
  int fd = -1;    // -1 once closed
  std::string outbox;
  size_t out_pos = 0;
  uint32_t armed = 0;  // epoll interest currently installed
  size_t in_flight = 0;
  bool paused_inflight = false;
  bool paused_outbox = false;
  bool error = false;  // response write failed; owner loop must close
  bool closed = false;
  bool close_after_flush = false;  // admin: reply queued, close on drain

  // Write lane: the connection's writes not yet taken by the writing
  // worker, in arrival order. `writes_scheduled` is true from the moment
  // a write finds the lane idle until the writing worker finds it empty
  // again; meanwhile the lane waits in write_lanes_ or is being committed,
  // never both.
  std::vector<Request> writes;
  bool writes_scheduled = false;
};

struct Server::IoLoop {
  size_t index = 0;
  int epfd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  std::thread thread;

  std::mutex mu;  // guards conns + incoming
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::vector<std::shared_ptr<Conn>> incoming;
};

// One open streaming cursor: a DB iterator over a pinned snapshot,
// advanced one bounded batch per SCAN_NEXT (docs/READ_PATH.md). `mu`
// serializes batch pulls against expiry/close/conn-teardown, so the
// iterator is never advanced and destroyed concurrently; `released`
// makes the snapshot hand-back exactly-once no matter which of those
// paths wins.
struct Server::Cursor {
  uint64_t id = 0;
  uint64_t conn_id = 0;
  std::atomic<uint64_t> last_used_ns{0};  // TTL clock, NowNs domain

  std::mutex mu;  // guards everything below
  const Snapshot* snapshot = nullptr;
  std::unique_ptr<Iterator> iter;
  uint64_t remaining = 0;  // entries the client may still receive
  bool released = false;
};

Server::Server(DB* db, const ServerOptions& options)
    : db_(db), options_(options) {
  gate_ = options_.stall_gate ? options_.stall_gate : &own_gate_;
}

Server::~Server() { Drain(); }

size_t Server::active_connections() const {
  const int64_t n = conns_active_ != nullptr ? conns_active_->value() : 0;
  return n > 0 ? static_cast<size_t>(n) : 0;
}

Status Server::Start() {
  // A ShardedDB's shard registries join /metrics; RTTI is how the server
  // stays a plain DB* consumer everywhere else.
  sharded_ = dynamic_cast<shard::ShardedDB*>(db_);
  info_log_ = options_.info_log ? options_.info_log : db_->InfoLogHandle();
  metrics_ = options_.metrics ? options_.metrics : db_->MetricsHandle();
  if (metrics_ == nullptr) metrics_ = &own_metrics_;

  conns_active_ =
      metrics_->RegisterGauge("server.conns_active", "open connections");
  conns_total_ =
      metrics_->RegisterCounter("server.conns_total", "connections accepted");
  bytes_in_ =
      metrics_->RegisterCounter("server.bytes_in", "request bytes read");
  bytes_out_ =
      metrics_->RegisterCounter("server.bytes_out", "response bytes written");
  protocol_errors_ = metrics_->RegisterCounter(
      "server.protocol_errors", "connections dropped on malformed frames");
  read_pauses_ = metrics_->RegisterCounter(
      "server.read_pauses", "times a connection's reads were parked");
  admin_conns_active_ = metrics_->RegisterGauge("server.admin.conns_active",
                                                "open admin connections");
  admin_requests_ = metrics_->RegisterCounter("server.admin.requests",
                                              "admin HTTP requests served");
  admin_http_errors_ = metrics_->RegisterCounter(
      "server.admin.http_errors",
      "admin connections answered 4xx/refused on hostile input");
  slow_requests_ = metrics_->RegisterCounter(
      "server.slow_requests",
      "requests over ServerOptions::slow_request_micros end to end");
  requests_inflight_ = metrics_->RegisterGauge(
      "server.requests_inflight",
      "dispatched client requests not yet answered");
  draining_gauge_ = metrics_->RegisterGauge(
      "server.draining", "1 while a graceful drain is in progress");
  // Slot 0 and the retired type 6 name no request and get no instruments.
  static const char* kNames[kNumMessageTypes] = {
      nullptr, "ping",  "get",       "put",       "del",       "batch",
      nullptr, "stats", "scan_open", "scan_next", "scan_close"};
  for (size_t t = 1; t < kNumMessageTypes; t++) {
    if (kNames[t] == nullptr) continue;
    req_counters_[t] = metrics_->RegisterCounter(
        std::string("server.req.") + kNames[t], "requests served");
    req_micros_[t] = metrics_->RegisterHistogram(
        std::string("server.req_micros.") + kNames[t],
        "request latency (dispatch to reply), micros");
  }
  cursors_opened_ = metrics_->RegisterCounter(
      "cursor.opened", "streaming scan cursors opened");
  cursors_closed_ = metrics_->RegisterCounter(
      "cursor.closed",
      "cursors closed (exhaustion, SCAN_CLOSE, conn close, drain)");
  cursors_expired_ = metrics_->RegisterCounter(
      "cursor.expired", "cursors reclaimed by the TTL sweeper");
  cursor_batches_ = metrics_->RegisterCounter(
      "cursor.batches", "cursor batches served (SCAN_OPEN + SCAN_NEXT)");
  cursors_active_ =
      metrics_->RegisterGauge("cursor.active", "open streaming cursors");
  const size_t num_shards = sharded_ != nullptr ? sharded_->num_shards() : 1;

  Status s = Listen(options_.port, 511, "client", &listen_fd_, &port_);
  if (!s.ok()) return s;
  if (options_.admin_port >= 0) {
    s = Listen(options_.admin_port, 64, "admin", &admin_fd_, &admin_port_);
    if (!s.ok()) return s;
  }
  if (options_.trace != nullptr) {
    trace_pid_ = options_.trace->BeginJob("server requests");
    for (uint32_t t = 1; t < kNumMessageTypes; t++) {
      if (kNames[t] != nullptr) {
        options_.trace->SetLaneName(trace_pid_, t, kNames[t]);
      }
    }
  }

  request_queue_ =
      std::make_unique<BoundedQueue<Request>>(options_.request_queue_depth);

  const int num_loops = options_.num_io_threads > 0 ? options_.num_io_threads
                                                    : 1;
  for (int i = 0; i < num_loops; i++) {
    auto loop = std::make_unique<IoLoop>();
    loop->index = static_cast<size_t>(i);
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epfd < 0) return Errno("epoll_create1");
    int pipefd[2];
    if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) return Errno("pipe2");
    loop->wake_rd = pipefd[0];
    loop->wake_wr = pipefd[1];
    struct epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_rd;
    if (::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wake_rd, &ev) != 0) {
      return Errno("epoll_ctl(wake)");
    }
    if (i == 0) {
      struct epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.fd = listen_fd_;
      if (::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, listen_fd_, &lev) != 0) {
        return Errno("epoll_ctl(listen)");
      }
      if (admin_fd_ >= 0) {
        struct epoll_event aev{};
        aev.events = EPOLLIN;
        aev.data.fd = admin_fd_;
        if (::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, admin_fd_, &aev) != 0) {
          return Errno("epoll_ctl(admin_listen)");
        }
      }
    }
    loops_.push_back(std::move(loop));
  }

  // Stall transitions must poke the loops so parked/unparked interest is
  // re-derived promptly (the notifier is a non-blocking pipe write; see
  // WriteStallGate on why that is all it may do).
  gate_->SetNotifier([this] { WakeAllLoops(); });

  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < loops_.size(); i++) {
    loops_[i]->thread = std::thread([this, i] { IoLoopMain(i); });
  }
  const int num_workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_ = std::make_unique<ThreadPool>(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; i++) {
    workers_->Submit([this] { WorkerPump(); });
  }
  cursor_sweeper_ = std::thread([this] { CursorSweeperMain(); });

  obs::Log(info_log_,
           "EVENT server_start host=%s port=%d admin_port=%d io_threads=%zu "
           "workers=%d sync_writes=%d shards=%zu",
           options_.host.c_str(), port_, admin_port_, loops_.size(),
           num_workers, options_.sync_writes ? 1 : 0, num_shards);
  return Status::OK();
}

Status Server::Listen(int port, int backlog, const char* name, int* fd,
                      int* bound_port) {
  const std::string tag = std::string("(") + name + ")";
  *fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (*fd < 0) return Errno("socket" + tag);
  int one = 1;
  ::setsockopt(*fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host", options_.host);
  }
  if (::bind(*fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind" + tag);
  }
  if (::listen(*fd, backlog) != 0) return Errno("listen" + tag);
  *bound_port = port;
  if (port == 0) {
    struct sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(*fd, reinterpret_cast<struct sockaddr*>(&bound),
                      &len) != 0) {
      return Errno("getsockname" + tag);
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return Status::OK();
}

void Server::HandleAdminReadable(IoLoop& loop,
                                 const std::shared_ptr<Conn>& conn) {
  char buf[4096];
  while (true) {
    {
      std::lock_guard<std::mutex> l(conn->mu);
      // Once the reply is queued the request phase is over; whatever
      // else the client pipelines is discarded by the close.
      if (conn->closed || conn->fd < 0 || conn->close_after_flush) return;
    }
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      switch (conn->http.Feed(buf, static_cast<size_t>(r))) {
        case HttpRequestParser::Result::kNeedMore:
          break;
        case HttpRequestParser::Result::kComplete:
          HandleAdminRequest(conn, conn->http.method(), conn->http.path());
          return;
        case HttpRequestParser::Result::kError:
          admin_http_errors_->Add();
          SendAdminResponse(conn, conn->http.error_status(), "text/plain",
                            "bad request\n");
          return;
      }
      if (static_cast<size_t>(r) < sizeof(buf)) return;
      continue;
    }
    if (r == 0) {
      CloseConn(loop, conn, "admin_eof");
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(loop, conn, "admin_read_error");
    return;
  }
}

void Server::HandleAdminRequest(const std::shared_ptr<Conn>& conn,
                                const std::string& method,
                                const std::string& path) {
  admin_requests_->Add();
  if (method != "GET") {
    admin_http_errors_->Add();
    SendAdminResponse(conn, 405, "text/plain", "method not allowed\n");
    return;
  }
  if (path == "/healthz") {
    if (draining_.load(std::memory_order_acquire)) {
      SendAdminResponse(conn, 503, "text/plain", "draining\n");
    } else {
      SendAdminResponse(conn, 200, "text/plain", "ok\n");
    }
    return;
  }
  if (path == "/metrics") {
    SendAdminResponse(conn, 200, "text/plain; version=0.0.4",
                      RenderPrometheusMetrics());
    return;
  }
  // The remaining endpoints are property pass-throughs.
  const char* property = nullptr;
  const char* content_type = "application/json";
  if (path == "/stats") {
    property = "pipelsm.stats";
    content_type = "text/plain";
  } else if (path == "/advisor") {
    property = "pipelsm.advisor";
  } else if (path == "/arbiter") {
    property = "pipelsm.arbiter";
  }
  if (property == nullptr) {
    admin_http_errors_->Add();
    SendAdminResponse(conn, 404, "text/plain", "not found\n");
    return;
  }
  std::string body;
  if (!db_->GetProperty(property, &body)) {
    // e.g. /arbiter on an unsharded server.
    admin_http_errors_->Add();
    SendAdminResponse(conn, 404, "text/plain", "not found\n");
    return;
  }
  if (!body.empty() && body.back() != '\n') body.push_back('\n');
  SendAdminResponse(conn, 200, content_type, body);
}

void Server::SendAdminResponse(const std::shared_ptr<Conn>& conn, int status,
                               const char* content_type,
                               const std::string& body) {
  const std::string response = BuildHttpResponse(status, content_type, body);
  std::lock_guard<std::mutex> l(conn->mu);
  if (conn->closed || conn->fd < 0 || conn->error) return;
  conn->outbox.append(response);
  conn->close_after_flush = true;
  TryFlushLocked(*conn);
  UpdateInterestLocked(*conn);
  // If the flush already completed, the owning loop notices
  // close_after_flush on its next pass (we may be on it right now —
  // HandleAdminReadable's caller closes synchronously below).
}

std::string Server::RenderPrometheusMetrics() {
  // The server's registry (server.*; the fleet's arbiter.* when sharded)
  // unlabeled, then every engine's registry: each shard's under its
  // shard label, or the one DB's when the server counts elsewhere.
  obs::PrometheusExposition exposition;
  exposition.AddRegistry(*metrics_, {});
  const size_t engines = sharded_ != nullptr ? sharded_->num_shards() : 1;
  for (size_t i = 0; i < engines; i++) {
    DB* engine = sharded_ != nullptr ? sharded_->shard(i) : db_;
    obs::MetricsRegistry* reg = engine->MetricsHandle();
    if (reg == nullptr || reg == metrics_) continue;
    obs::PrometheusLabels labels;
    if (sharded_ != nullptr) labels.emplace_back("shard", std::to_string(i));
    exposition.AddRegistry(*reg, labels);
  }
  return exposition.Render();
}

uint64_t Server::NowNs() const {
  return options_.trace != nullptr ? options_.trace->NowNanos()
                                   : epoch_.ElapsedNanos();
}

void Server::FinishRequest(MessageType type, uint64_t conn_id,
                           const ReqTiming& timing, uint64_t end_ns) {
  requests_inflight_->Add(-1);
  const uint64_t total_micros = (end_ns - timing.decode_ns) / 1000;
  if (options_.trace != nullptr && options_.trace_sample_every > 0 &&
      trace_sampler_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_sample_every ==
          0) {
    const uint32_t lane = static_cast<uint32_t>(TypeIndex(type));
    options_.trace->AddSpan(trace_pid_, lane, "request", "server",
                            timing.decode_ns, end_ns, conn_id);
    if (timing.op_end_ns > timing.op_start_ns) {
      options_.trace->AddSpan(trace_pid_, lane, "db", "server",
                              timing.op_start_ns, timing.op_end_ns, conn_id);
    }
  }
  if (options_.slow_request_micros == 0 ||
      total_micros < options_.slow_request_micros) {
    return;
  }
  slow_requests_->Add();
  const uint64_t queue_micros =
      (timing.op_start_ns - timing.decode_ns) / 1000;
  const uint64_t db_micros = (timing.op_end_ns - timing.op_start_ns) / 1000;
  const uint64_t reply_micros = (end_ns - timing.op_end_ns) / 1000;
  obs::Log(info_log_,
           "EVENT slow_request type=%s conn=%llu total_micros=%llu "
           "queue_micros=%llu db_micros=%llu reply_micros=%llu",
           MessageTypeName(type), static_cast<unsigned long long>(conn_id),
           static_cast<unsigned long long>(total_micros),
           static_cast<unsigned long long>(queue_micros),
           static_cast<unsigned long long>(db_micros),
           static_cast<unsigned long long>(reply_micros));
}

void Server::WakeAllLoops() {
  for (auto& loop : loops_) {
    if (loop->wake_wr >= 0) {
      const char b = 'w';
      [[maybe_unused]] ssize_t r = ::write(loop->wake_wr, &b, 1);
    }
  }
}

void Server::IoLoopMain(size_t index) {
  IoLoop& loop = *loops_[index];
  std::vector<struct epoll_event> events(128);
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epfd, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool refresh_interest = false;
    for (int i = 0; i < n; i++) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_rd) {
        char buf[256];
        while (::read(loop.wake_rd, buf, sizeof(buf)) > 0) {
        }
        if (index == 0 && draining_.load(std::memory_order_acquire) &&
            listen_fd_ >= 0) {
          // The listen fd belongs to loop 0, so only loop 0 closes it —
          // no cross-thread fd-reuse races.
          ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
          ::close(listen_fd_);
          listen_fd_ = -1;
        }
        RegisterIncoming(loop);
        refresh_interest = true;
        continue;
      }
      if (index == 0 && (fd == listen_fd_ || fd == admin_fd_)) {
        AcceptConnections(/*admin=*/fd == admin_fd_);
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> l(loop.mu);
        auto it = loop.conns.find(fd);
        if (it != loop.conns.end()) conn = it->second;
      }
      if (!conn) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConn(loop, conn, "hangup");
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
      bool write_error;
      bool admin_done;
      {
        std::lock_guard<std::mutex> l(conn->mu);
        write_error = conn->error && !conn->closed;
        admin_done = conn->admin && conn->close_after_flush &&
                     !conn->closed && conn->out_pos >= conn->outbox.size();
      }
      if (write_error) {
        CloseConn(loop, conn, "write_error");
        continue;
      }
      if (admin_done) {
        CloseConn(loop, conn, "admin_done");
        continue;
      }
      if (events[i].events & EPOLLIN) {
        if (conn->admin) {
          HandleAdminReadable(loop, conn);
          // The reply usually flushes inside the handler; close now
          // instead of waiting for another epoll event that may never
          // come (the client may simply hold the socket open).
          bool done;
          {
            std::lock_guard<std::mutex> l(conn->mu);
            done = conn->close_after_flush && !conn->closed &&
                   conn->out_pos >= conn->outbox.size();
          }
          if (done) CloseConn(loop, conn, "admin_done");
        } else {
          HandleReadable(loop, conn);
        }
      }
    }
    if (refresh_interest) {
      std::vector<std::shared_ptr<Conn>> snapshot;
      {
        std::lock_guard<std::mutex> l(loop.mu);
        snapshot.reserve(loop.conns.size());
        for (auto& [cfd, c] : loop.conns) snapshot.push_back(c);
      }
      for (auto& c : snapshot) {
        std::lock_guard<std::mutex> l(c->mu);
        UpdateInterestLocked(*c);
      }
    }
  }
  // Shutdown: close whatever is left on this loop.
  std::vector<std::shared_ptr<Conn>> remaining;
  {
    std::lock_guard<std::mutex> l(loop.mu);
    for (auto& [cfd, c] : loop.conns) remaining.push_back(c);
    for (auto& c : loop.incoming) remaining.push_back(c);
    loop.incoming.clear();
  }
  for (auto& c : remaining) CloseConn(loop, c, "drain");
  if (index == 0 && listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The admin socket outlives the drain window (healthz reports 503
  // while it lasts) and dies with its owning loop.
  if (index == 0 && admin_fd_ >= 0) {
    ::close(admin_fd_);
    admin_fd_ = -1;
  }
}

void Server::AcceptConnections(bool admin) {
  const int listen_fd = admin ? admin_fd_ : listen_fd_;
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or the listen socket went away mid-drain
    }
    // Admin conns keep working during drain (for /healthz) but a cap
    // bounds what a hostile scraper can pin; over it, refuse outright.
    const bool refuse =
        admin ? admin_conns_active_->value() >=
                    static_cast<int64_t>(options_.max_admin_conns)
              : draining_.load(std::memory_order_acquire);
    if (refuse) {
      if (admin) admin_http_errors_->Add();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->admin = admin;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->fd = fd;
    conn->loop_index =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    IoLoop& target = *loops_[conn->loop_index];
    conn->epfd = target.epfd;
    {
      std::lock_guard<std::mutex> l(target.mu);
      target.incoming.push_back(conn);
    }
    if (admin) {
      admin_conns_active_->Add(1);
    } else {
      conns_total_->Add();
      conns_active_->Add(1);
      obs::Log(info_log_, "EVENT conn_open id=%llu loop=%zu",
               static_cast<unsigned long long>(conn->id), conn->loop_index);
    }
    if (conn->loop_index == 0) {
      RegisterIncoming(target);  // already on loop 0's thread
    } else {
      const char b = 'w';
      [[maybe_unused]] ssize_t r = ::write(target.wake_wr, &b, 1);
    }
  }
}

void Server::RegisterIncoming(IoLoop& loop) {
  std::vector<std::shared_ptr<Conn>> fresh;
  {
    std::lock_guard<std::mutex> l(loop.mu);
    fresh.swap(loop.incoming);
  }
  for (auto& conn : fresh) {
    std::lock_guard<std::mutex> l(conn->mu);
    struct epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      ::close(conn->fd);
      conn->fd = -1;
      conn->closed = true;
      (conn->admin ? admin_conns_active_ : conns_active_)->Add(-1);
      continue;
    }
    conn->armed = EPOLLIN;
    {
      std::lock_guard<std::mutex> lm(loop.mu);
      loop.conns.emplace(conn->fd, conn);
    }
    UpdateInterestLocked(*conn);  // honor a stall/drain already in effect
  }
}

void Server::HandleReadable(IoLoop& loop, const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  while (true) {
    {
      std::lock_guard<std::mutex> l(conn->mu);
      if (conn->closed || conn->fd < 0 || conn->paused_inflight ||
          conn->paused_outbox || draining_.load(std::memory_order_acquire)) {
        return;
      }
      if (gate_->state() == obs::WriteStallCondition::kStopped) {
        // Park right here, not just on the next wake: an EPOLLIN that
        // raced the stall notification must not slip a request through
        // (and leaving interest armed would spin the level-triggered
        // loop until the wake lands).
        UpdateInterestLocked(*conn);
        return;
      }
    }
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      bytes_in_->Add(static_cast<uint64_t>(r));
      conn->decoder.Append(buf, static_cast<size_t>(r));
      DecodedFrame frame;
      while (true) {
        const FrameDecoder::Result res = conn->decoder.Next(&frame);
        if (res == FrameDecoder::Result::kNeedMore) break;
        if (res == FrameDecoder::Result::kError) {
          protocol_errors_->Add();
          obs::Log(info_log_, "EVENT conn_protocol_error id=%llu err=\"%s\"",
                   static_cast<unsigned long long>(conn->id),
                   conn->decoder.error().c_str());
          CloseConn(loop, conn, "protocol_error");
          return;
        }
        if (frame.reply) {
          // A client must never send the reply bit; treat as garbage.
          protocol_errors_->Add();
          CloseConn(loop, conn, "protocol_error");
          return;
        }
        DispatchFrame(conn, std::move(frame));
      }
      if (static_cast<size_t>(r) < sizeof(buf)) return;
      continue;
    }
    if (r == 0) {
      CloseConn(loop, conn, "eof");
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(loop, conn, "read_error");
    return;
  }
}

void Server::DispatchFrame(const std::shared_ptr<Conn>& conn,
                           DecodedFrame&& frame) {
  req_counters_[TypeIndex(frame.type)]->Add();
  // Decode stamp + in-flight gauge: every dispatched request gets
  // exactly one FinishRequest.
  ReqTiming timing;
  timing.decode_ns = NowNs();
  requests_inflight_->Add(1);
  {
    std::lock_guard<std::mutex> l(conn->mu);
    conn->in_flight++;
    if (conn->in_flight >= kMaxInflightPerConn &&
        !conn->paused_inflight) {
      conn->paused_inflight = true;
      read_pauses_->Add();
      UpdateInterestLocked(*conn);
    }
  }
  if (frame.type == MessageType::kPing) {
    SendReply(conn, frame.type, frame.seq, Status::OK(), Slice());
    timing.op_start_ns = timing.op_end_ns = timing.decode_ns;
    FinishRequest(frame.type, conn->id, timing, NowNs());
    return;
  }
  Request request;
  request.type = frame.type;
  request.seq = frame.seq;
  request.timing = timing;
  request.body = std::move(frame.body);
  if (IsWrite(frame.type)) {
    DispatchWrite(conn, std::move(request));
    return;
  }
  request.conn = conn;
  if (request_queue_->Push(std::move(request))) return;
  RefuseDraining(conn, &request, 1);
}

void Server::DispatchWrite(const std::shared_ptr<Conn>& conn,
                           Request&& request) {
  const MessageType type = request.type;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    conn->writes.push_back(std::move(request));
    if (conn->writes_scheduled) return;
    conn->writes_scheduled = true;
  }
  {
    std::lock_guard<std::mutex> l(write_mu_);
    write_lanes_.push_back(conn);
    if (writing_) return;  // the writing worker takes it next round
    writing_ = true;
  }
  // No worker is writing: a write entry in the request queue makes one.
  Request wake;
  wake.type = type;
  if (request_queue_->Push(std::move(wake))) return;
  // Draining, so no worker will write: refuse every waiting lane.
  std::vector<std::shared_ptr<Conn>> lanes;
  {
    std::lock_guard<std::mutex> l(write_mu_);
    lanes.swap(write_lanes_);
    writing_ = false;
  }
  for (const std::shared_ptr<Conn>& c : lanes) {
    std::vector<Request> writes;
    {
      std::lock_guard<std::mutex> l(c->mu);
      writes.swap(c->writes);
      c->writes_scheduled = false;
    }
    RefuseDraining(c, writes.data(), writes.size());
  }
}

void Server::RefuseDraining(const std::shared_ptr<Conn>& conn,
                            Request* requests, size_t n) {
  for (size_t i = 0; i < n; i++) {
    Request& r = requests[i];
    SendReply(conn, r.type, r.seq, Status::Busy("server draining"), Slice());
    r.timing.op_start_ns = r.timing.op_end_ns = NowNs();
    FinishRequest(r.type, conn->id, r.timing, NowNs());
  }
}

void Server::WorkerPump() {
  while (true) {
    std::optional<Request> request = request_queue_->Pop();
    if (!request.has_value()) return;  // closed and drained
    if (IsWrite(request->type)) {
      ServeWrites();
    } else {
      HandleRequest(*request);
    }
  }
}

void Server::ServeWrites() {
  std::unique_lock<std::mutex> l(write_mu_);
  std::vector<std::shared_ptr<Conn>> lanes;
  while (!write_lanes_.empty()) {
    lanes.swap(write_lanes_);
    l.unlock();
    CommitWrites(&lanes);
    l.lock();
    // Lanes that refilled go behind the ones that waited.
    for (std::shared_ptr<Conn>& c : lanes) {
      write_lanes_.push_back(std::move(c));
    }
    lanes.clear();
  }
  writing_ = false;
}

void Server::CommitWrites(std::vector<std::shared_ptr<Conn>>* lanes) {
  // One WriteBatch per lane, its writes in arrival order, so a connection's
  // writes commit in the order it sent them. A malformed request is left
  // out and answered with its parse error.
  const size_t n = lanes->size();
  std::vector<std::vector<Request>> writes(n);
  std::vector<WriteBatch> batches(n);
  std::vector<WriteBatch*> batch_ptrs(n);
  for (size_t c = 0; c < n; c++) {
    Conn& conn = *(*lanes)[c];
    {
      std::lock_guard<std::mutex> l(conn.mu);
      writes[c].swap(conn.writes);
    }
    for (Request& w : writes[c]) {
      if (!AddWrite(w.type, w.body, &batches[c])) {
        w.error = Status::InvalidArgument("malformed request body");
      }
    }
    batch_ptrs[c] = &batches[c];
  }
  WriteOptions wo;
  wo.sync = options_.sync_writes;
  std::vector<Status> statuses(n);
  const uint64_t op_start_ns = NowNs();
  db_->WriteMany(wo, batch_ptrs.data(), n, statuses.data());
  const uint64_t op_end_ns = NowNs();

  std::string frames;
  size_t refilled = 0;
  for (size_t c = 0; c < n; c++) {
    const std::shared_ptr<Conn>& conn = (*lanes)[c];
    frames.clear();
    for (Request& w : writes[c]) {
      w.timing.op_start_ns = op_start_ns;
      w.timing.op_end_ns = op_end_ns;
      ObserveLatency(w.type, w.queued.ElapsedNanos() / 1000);
      EncodeReply(w.type, w.seq, w.error.ok() ? statuses[c] : w.error,
                  Slice(), &frames);
    }
    DeliverReplies(conn, frames, writes[c].size());
    const uint64_t end_ns = NowNs();
    for (const Request& w : writes[c]) {
      FinishRequest(w.type, conn->id, w.timing, end_ns);
    }
    bool more;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      more = !conn->writes.empty();
      if (!more) conn->writes_scheduled = false;
    }
    if (more) (*lanes)[refilled++] = conn;
  }
  lanes->resize(refilled);
}

void Server::HandleRequest(Request& request) {
  request.timing.op_start_ns = NowNs();
  Slice body(request.body);
  Status s;
  std::string payload;
  switch (request.type) {
    case MessageType::kGet: {
      Slice key;
      if (!ParseGetRequest(body, &key)) {
        s = Status::InvalidArgument("malformed request body");
        break;
      }
      s = db_->Get(ReadOptions(), key, &payload);
      break;
    }
    case MessageType::kStats: {
      Slice property;
      if (!ParseStatsRequest(body, &property)) {
        s = Status::InvalidArgument("malformed request body");
        break;
      }
      const std::string name =
          property.empty() ? "pipelsm.stats" : property.ToString();
      if (!db_->GetProperty(name, &payload)) {
        s = Status::InvalidArgument("unknown property", name);
      }
      break;
    }
    case MessageType::kScanOpen: {
      Slice start;
      uint32_t limit = 0;
      if (!ParseScanOpenRequest(body, &start, &limit)) {
        s = Status::InvalidArgument("malformed request body");
        break;
      }
      auto cursor = std::make_shared<Cursor>();
      cursor->id = next_cursor_id_.fetch_add(1, std::memory_order_relaxed);
      cursor->conn_id = request.conn->id;
      // limit is NOT clamped to max_scan_entries: the caps bound each
      // BATCH, the limit bounds the whole stream (0 = run to the end of
      // the keyspace). No allocation is sized from it, so a hostile value
      // costs nothing.
      cursor->remaining = limit == 0 ? UINT64_MAX : limit;
      cursor->snapshot = db_->GetSnapshot();
      ReadOptions ro;
      ro.snapshot = cursor->snapshot;
      cursor->iter.reset(db_->NewIterator(ro));
      if (start.empty()) {
        cursor->iter->SeekToFirst();
      } else {
        cursor->iter->Seek(start);
      }
      cursor->last_used_ns.store(NowNs(), std::memory_order_relaxed);
      bool admitted = false;
      size_t open_count = 0;
      {
        std::lock_guard<std::mutex> l(cursors_mu_);
        if (cursors_.size() < options_.max_cursors) {
          cursors_.emplace(cursor->id, cursor);
          admitted = true;
          open_count = cursors_.size();
        }
      }
      if (!admitted) {
        // Roll the pinned snapshot back before refusing, or a SCAN_OPEN
        // storm against a full registry would leak snapshot pins.
        CloseCursor(cursor, nullptr);
        s = Status::Busy("cursor limit reached");
        break;
      }
      cursors_opened_->Add();
      cursors_active_->Set(static_cast<int64_t>(open_count));
      bool done = false;
      s = PullCursorBatch(cursor, &payload, &done);
      if (!s.ok() || done) CloseCursor(cursor, cursors_closed_);
      break;
    }
    case MessageType::kScanNext: {
      uint64_t id = 0;
      if (!ParseCursorRequest(body, &id)) {
        s = Status::InvalidArgument("malformed request body");
        break;
      }
      std::shared_ptr<Cursor> cursor = FindCursor(id);
      if (cursor == nullptr) {
        s = Status::NotFound("unknown cursor (closed or expired)");
        break;
      }
      bool done = false;
      s = PullCursorBatch(cursor, &payload, &done);
      if (!s.ok() || done) CloseCursor(cursor, cursors_closed_);
      break;
    }
    case MessageType::kScanClose: {
      uint64_t id = 0;
      if (!ParseCursorRequest(body, &id)) {
        s = Status::InvalidArgument("malformed request body");
        break;
      }
      // Idempotent: closing an unknown (already retired) cursor is OK.
      std::shared_ptr<Cursor> cursor = FindCursor(id);
      if (cursor != nullptr) CloseCursor(cursor, cursors_closed_);
      break;
    }
    default:
      s = Status::NotSupported("unexpected request type");
      break;
  }
  request.timing.op_end_ns = NowNs();
  ObserveLatency(request.type, request.queued.ElapsedNanos() / 1000);
  SendReply(request.conn, request.type, request.seq, s, payload);
  FinishRequest(request.type, request.conn->id, request.timing, NowNs());
}

bool Server::AddWrite(MessageType type, const Slice& body,
                      WriteBatch* batch) {
  auto add = [batch](bool is_delete, const Slice& key, const Slice& value) {
    if (is_delete) {
      batch->Delete(key);
    } else {
      batch->Put(key, value);
    }
  };
  if (type == MessageType::kPut) {
    Slice key, value;
    if (!ParsePutRequest(body, &key, &value)) return false;
    add(false, key, value);
  } else if (type == MessageType::kDelete) {
    Slice key;
    if (!ParseDeleteRequest(body, &key)) return false;
    add(true, key, Slice());
  } else {
    std::vector<BatchOp> ops;
    if (!ParseWriteBatchRequest(body, &ops)) return false;
    for (const BatchOp& op : ops) add(op.is_delete, op.key, op.value);
  }
  return true;
}

std::shared_ptr<Server::Cursor> Server::FindCursor(uint64_t id) {
  std::lock_guard<std::mutex> l(cursors_mu_);
  auto it = cursors_.find(id);
  return it != cursors_.end() ? it->second : nullptr;
}

Status Server::PullCursorBatch(const std::shared_ptr<Cursor>& cursor,
                               std::string* payload, bool* done) {
  std::vector<std::pair<std::string, std::string>> entries;
  Status s;
  {
    std::lock_guard<std::mutex> l(cursor->mu);
    if (cursor->released) {
      // Lost the race with the sweeper / conn teardown between lookup
      // and lock: same answer as an expired id.
      return Status::NotFound("unknown cursor (closed or expired)");
    }
    Iterator* it = cursor->iter.get();
    size_t batch_bytes = 0;
    while (it->Valid() && cursor->remaining > 0 &&
           entries.size() < options_.max_scan_entries &&
           batch_bytes < options_.max_scan_bytes) {
      batch_bytes += it->key().size() + it->value().size();
      entries.emplace_back(it->key().ToString(), it->value().ToString());
      if (cursor->remaining != UINT64_MAX) cursor->remaining--;
      it->Next();
    }
    s = it->status();
    *done = s.ok() && (!it->Valid() || cursor->remaining == 0);
  }
  cursor->last_used_ns.store(NowNs(), std::memory_order_relaxed);
  if (!s.ok()) return s;
  EncodeScanBatchPayload(cursor->id, entries, *done, payload);
  cursor_batches_->Add();
  return s;
}

void Server::CloseCursor(const std::shared_ptr<Cursor>& cursor,
                         obs::Counter* counter) {
  bool erased;
  size_t remaining_cursors;
  {
    std::lock_guard<std::mutex> l(cursors_mu_);
    erased = cursors_.erase(cursor->id) > 0;
    remaining_cursors = cursors_.size();
  }
  // Destroy outside cursors_mu_ (an in-flight batch pull holds
  // Cursor::mu and may take a while) but unconditionally: the refused-
  // admission path closes a cursor that was never registered.
  std::unique_ptr<Iterator> iter;
  const Snapshot* snapshot = nullptr;
  {
    std::lock_guard<std::mutex> l(cursor->mu);
    if (!cursor->released) {
      cursor->released = true;
      iter = std::move(cursor->iter);
      snapshot = cursor->snapshot;
      cursor->snapshot = nullptr;
    }
  }
  iter.reset();  // iterator may reference the snapshot; drop it first
  if (snapshot != nullptr) db_->ReleaseSnapshot(snapshot);
  if (erased) {
    if (counter != nullptr) counter->Add();
    cursors_active_->Set(static_cast<int64_t>(remaining_cursors));
  }
}

void Server::CloseCursorsForConn(uint64_t conn_id) {
  std::vector<std::shared_ptr<Cursor>> mine;
  {
    std::lock_guard<std::mutex> l(cursors_mu_);
    for (auto& [id, c] : cursors_) {
      if (c->conn_id == conn_id) mine.push_back(c);
    }
  }
  for (auto& c : mine) CloseCursor(c, cursors_closed_);
}

void Server::CloseAllCursors() {
  std::vector<std::shared_ptr<Cursor>> all;
  {
    std::lock_guard<std::mutex> l(cursors_mu_);
    for (auto& [id, c] : cursors_) all.push_back(c);
  }
  for (auto& c : all) CloseCursor(c, cursors_closed_);
}

void Server::SweepExpiredCursors() {
  if (options_.cursor_ttl_micros == 0) return;
  const uint64_t ttl_ns = options_.cursor_ttl_micros * 1000;
  const uint64_t now = NowNs();
  std::vector<std::shared_ptr<Cursor>> expired;
  {
    std::lock_guard<std::mutex> l(cursors_mu_);
    for (auto& [id, c] : cursors_) {
      const uint64_t last = c->last_used_ns.load(std::memory_order_relaxed);
      if (now >= last && now - last >= ttl_ns) expired.push_back(c);
    }
  }
  for (auto& c : expired) {
    obs::Log(info_log_, "EVENT cursor_expired id=%llu conn=%llu",
             static_cast<unsigned long long>(c->id),
             static_cast<unsigned long long>(c->conn_id));
    CloseCursor(c, cursors_expired_);
  }
}

void Server::CursorSweeperMain() {
  // A quarter of the TTL, at most a second: a cursor expires within
  // 1.25 TTLs of going idle (a second past it for TTLs over 4 s).
  constexpr uint64_t kMaxPeriodMicros = 1000 * 1000;
  const uint64_t ttl = options_.cursor_ttl_micros;
  const auto period = std::chrono::microseconds(
      ttl > 0 ? std::clamp<uint64_t>(ttl / 4, 1, kMaxPeriodMicros)
              : kMaxPeriodMicros);
  std::unique_lock<std::mutex> l(sweeper_mu_);
  while (!sweeper_stop_) {
    sweeper_cv_.wait_for(l, period);
    if (sweeper_stop_) break;
    l.unlock();
    SweepExpiredCursors();
    l.lock();
  }
}

void Server::ObserveLatency(MessageType type, uint64_t micros) {
  req_micros_[TypeIndex(type)]->Observe(static_cast<double>(micros));
}

// Appends one reply frame to the outbox, sends what the socket takes
// and retires one in-flight request.
void Server::SendReply(const std::shared_ptr<Conn>& conn, MessageType type,
                       uint64_t seq, const Status& status,
                       const Slice& payload) {
  std::string frame;
  EncodeReply(type, seq, status, payload, &frame);
  DeliverReplies(conn, frame, 1);
}

void Server::DeliverReplies(const std::shared_ptr<Conn>& conn,
                            const std::string& frames, size_t count) {
  std::lock_guard<std::mutex> l(conn->mu);
  if (!conn->closed && conn->fd >= 0 && !conn->error) {
    conn->outbox.append(frames);
    TryFlushLocked(*conn);
    const size_t pending = conn->outbox.size() - conn->out_pos;
    if (pending > kMaxOutboxBytes && !conn->paused_outbox) {
      conn->paused_outbox = true;
      read_pauses_->Add();
    }
  }
  conn->in_flight -= std::min(conn->in_flight, count);
  if (conn->paused_inflight &&
      conn->in_flight <= kMaxInflightPerConn / 2) {
    conn->paused_inflight = false;
  }
  UpdateInterestLocked(*conn);
}

void Server::TryFlushLocked(Conn& conn) {
  while (conn.out_pos < conn.outbox.size()) {
    const ssize_t w =
        ::send(conn.fd, conn.outbox.data() + conn.out_pos,
               conn.outbox.size() - conn.out_pos, MSG_NOSIGNAL);
    if (w > 0) {
      conn.out_pos += static_cast<size_t>(w);
      bytes_out_->Add(static_cast<uint64_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Hard send error: poke the socket shut so the owner loop wakes up
    // (EPOLLHUP) and performs the actual close.
    conn.error = true;
    ::shutdown(conn.fd, SHUT_RDWR);
    break;
  }
  if (conn.out_pos == conn.outbox.size()) {
    conn.outbox.clear();
    conn.out_pos = 0;
    if (conn.paused_outbox) conn.paused_outbox = false;
  } else if (conn.out_pos > (1u << 20) &&
             conn.out_pos * 2 > conn.outbox.size()) {
    conn.outbox.erase(0, conn.out_pos);
    conn.out_pos = 0;
  }
}

void Server::HandleWritable(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> l(conn->mu);
  if (conn->closed || conn->fd < 0) return;
  TryFlushLocked(*conn);
  UpdateInterestLocked(*conn);
}

void Server::UpdateInterestLocked(Conn& conn) {
  if (conn.closed || conn.fd < 0) return;
  const bool stalled =
      gate_->state() == obs::WriteStallCondition::kStopped;
  uint32_t want = 0;
  if (conn.admin) {
    // Admin reads never park: /metrics must be scrapable mid-stall and
    // /healthz mid-drain. Reading stops only once the reply is queued.
    if (!conn.error && !conn.close_after_flush) want |= EPOLLIN;
  } else if (!draining_.load(std::memory_order_acquire) &&
             !conn.paused_inflight && !conn.paused_outbox && !stalled &&
             !conn.error) {
    want |= EPOLLIN;
  }
  if (conn.out_pos < conn.outbox.size()) want |= EPOLLOUT;
  if (want != conn.armed) {
    struct epoll_event ev{};
    ev.events = want;
    ev.data.fd = conn.fd;
    if (::epoll_ctl(conn.epfd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
      conn.armed = want;
    }
  }
}

void Server::CloseConn(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                       const char* reason) {
  int fd;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    fd = conn->fd;
    conn->fd = -1;
  }
  if (fd >= 0) {
    ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    std::lock_guard<std::mutex> l(loop.mu);
    loop.conns.erase(fd);
  }
  if (conn->admin) {
    admin_conns_active_->Add(-1);
  } else {
    conns_active_->Add(-1);
    // A dead client can never SCAN_NEXT again; release its pinned
    // snapshots now instead of waiting out the TTL.
    CloseCursorsForConn(conn->id);
  }
  obs::Log(info_log_, "EVENT conn_close id=%llu reason=%s",
           static_cast<unsigned long long>(conn->id), reason);
}

void Server::Drain() {
  if (drained_.exchange(true)) return;
  gate_->SetNotifier(nullptr);  // no callbacks into a dying server
  if (!running_.load(std::memory_order_acquire)) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (admin_fd_ >= 0) {
      ::close(admin_fd_);
      admin_fd_ = -1;
    }
    return;
  }
  obs::Log(info_log_, "EVENT drain_begin conns=%lld",
           static_cast<long long>(conns_active_->value()));
  draining_.store(true, std::memory_order_release);
  draining_gauge_->Set(1);
  WakeAllLoops();  // loop 0 closes the listen fd; all loops park reads

  // The queue drains to empty before the workers exit, so every
  // accepted request still gets its reply.
  request_queue_->Close();
  if (workers_) workers_->Shutdown();

  // Cursors: every queued SCAN_NEXT was answered above (the queue
  // drained before the workers exited — mid-stream clients get their
  // in-flight batch). Now no thread can touch a cursor, so hand every
  // pinned snapshot back to the DB, which must outlive the server.
  {
    std::lock_guard<std::mutex> l(sweeper_mu_);
    sweeper_stop_ = true;
  }
  sweeper_cv_.notify_all();
  if (cursor_sweeper_.joinable()) cursor_sweeper_.join();
  CloseAllCursors();

  // Give the loops a bounded window to push remaining outboxes onto the
  // wire (they are still running and servicing EPOLLOUT).
  Stopwatch sw;
  while (sw.ElapsedNanos() < kDrainFlushTimeoutNanos) {
    bool pending = false;
    for (auto& loop : loops_) {
      std::vector<std::shared_ptr<Conn>> snapshot;
      {
        std::lock_guard<std::mutex> l(loop->mu);
        for (auto& [fd, c] : loop->conns) snapshot.push_back(c);
      }
      for (auto& c : snapshot) {
        std::lock_guard<std::mutex> l(c->mu);
        if (!c->closed && !c->error && c->out_pos < c->outbox.size()) {
          pending = true;
        }
      }
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  running_.store(false, std::memory_order_release);
  WakeAllLoops();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    if (loop->wake_rd >= 0) ::close(loop->wake_rd);
    if (loop->wake_wr >= 0) ::close(loop->wake_wr);
    if (loop->epfd >= 0) ::close(loop->epfd);
    loop->wake_rd = loop->wake_wr = loop->epfd = -1;
  }
  obs::Log(info_log_, "EVENT drain_end");
}

}  // namespace pipelsm::server
