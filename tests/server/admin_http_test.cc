// Tests of the admin HTTP endpoint (src/server/http.h + the server's
// admin plumbing): endpoint semantics (/metrics Prometheus conformance
// with per-shard labels, /healthz drain awareness, /stats, 404/405),
// hostile-input handling (oversized heads, bad methods, binary garbage,
// slowloris drips, pipelined junk, connection-cap refusal), and the
// gauge-hygiene guarantee that churn of every connection flavor leaves
// the active gauges at zero.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/db/db.h"
#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/obs/logger.h"
#include "src/server/http.h"
#include "src/server/server.h"
#include "src/shard/sharded_db.h"
#include "tests/obs/json_check.h"

namespace pipelsm::server {
namespace {

// ---------------------------------------------------------------------
// Raw HTTP/1.0 client helpers (the admin endpoint is deliberately too
// simple to deserve a real HTTP library).

int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads until the peer closes (the endpoint always closes after one
// response). Returns everything received.
std::string RecvUntilEof(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

struct HttpResponse {
  int status = 0;
  std::string content_type;
  std::string body;
  std::string raw;
};

void ParseHttpResponse(const std::string& raw, HttpResponse* out) {
  out->raw = raw;
  ASSERT_EQ(0u, raw.find("HTTP/1.0 ")) << raw.substr(0, 64);
  out->status = std::atoi(raw.c_str() + strlen("HTTP/1.0 "));
  const size_t head_end = raw.find("\r\n\r\n");
  ASSERT_NE(std::string::npos, head_end);
  const std::string head = raw.substr(0, head_end);
  const size_t ct = head.find("Content-Type: ");
  if (ct != std::string::npos) {
    const size_t eol = head.find("\r\n", ct);
    out->content_type =
        head.substr(ct + strlen("Content-Type: "),
                    eol == std::string::npos ? std::string::npos
                                             : eol - ct - strlen("Content-Type: "));
  }
  out->body = raw.substr(head_end + 4);
  // Connection: close semantics are part of the contract.
  EXPECT_NE(std::string::npos, head.find("Connection: close")) << head;
}

// One full request/response round trip against `port`.
void Fetch(int port, const std::string& request, HttpResponse* out) {
  int fd = ConnectTo(port);
  ASSERT_GE(fd, 0) << "connect failed: " << strerror(errno);
  ASSERT_TRUE(SendAll(fd, request));
  const std::string raw = RecvUntilEof(fd);
  ::close(fd);
  ASSERT_NO_FATAL_FAILURE(ParseHttpResponse(raw, out));
}

void Get(int port, const std::string& path, HttpResponse* out) {
  ASSERT_NO_FATAL_FAILURE(
      Fetch(port, "GET " + path + " HTTP/1.0\r\n\r\n", out));
}

// ---------------------------------------------------------------------
// Minimal Prometheus text-exposition conformance check: every
// non-comment line is `name{labels} value`, metric names are legal,
// every family carries exactly one # TYPE, and family lines are
// contiguous (no interleaving).

bool LegalMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); i++) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) ||
                       c == '_' || c == ':';
    if (i == 0 ? !alpha
                : !(alpha || std::isdigit(static_cast<unsigned char>(c)))) {
      return false;
    }
  }
  return true;
}

void CheckExpositionConformance(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ('\n', text.back()) << "exposition must end with a newline";
  std::vector<std::string> family_order;  // first-appearance order
  std::string last_family;
  std::vector<std::string> typed_families;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    ASSERT_NE(std::string::npos, eol);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name ..." / "# TYPE name kind"
      ASSERT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(strlen("# TYPE "));
        const size_t sp = rest.find(' ');
        ASSERT_NE(std::string::npos, sp) << line;
        const std::string fam = rest.substr(0, sp);
        const std::string kind = rest.substr(sp + 1);
        ASSERT_TRUE(kind == "counter" || kind == "gauge" ||
                    kind == "summary")
            << line;
        for (const std::string& seen : typed_families) {
          ASSERT_NE(seen, fam) << "duplicate # TYPE for " << fam;
        }
        typed_families.push_back(fam);
      }
      continue;
    }
    // Sample line: name{labels} value
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(std::string::npos, name_end) << line;
    const std::string name = line.substr(0, name_end);
    ASSERT_TRUE(LegalMetricName(name)) << line;
    size_t value_start;
    if (line[name_end] == '{') {
      const size_t close = line.rfind('}');
      ASSERT_NE(std::string::npos, close) << line;
      value_start = close + 2;  // "} value"
      ASSERT_LT(close + 1, line.size());
      ASSERT_EQ(' ', line[close + 1]) << line;
    } else {
      value_start = name_end + 1;
    }
    ASSERT_LT(value_start, line.size()) << line;
    const std::string value = line.substr(value_start);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    ASSERT_TRUE(*end == '\0' || value == "NaN") << line;
    // Family = name minus a summary suffix; must be contiguous.
    std::string family = name;
    for (const char* suffix : {"_sum", "_count"}) {
      const size_t len = strlen(suffix);
      if (family.size() > len &&
          family.compare(family.size() - len, len, suffix) == 0) {
        const std::string stripped = family.substr(0, family.size() - len);
        for (const std::string& fam : typed_families) {
          if (fam == stripped) family = stripped;
        }
      }
    }
    if (family != last_family) {
      for (const std::string& seen : family_order) {
        ASSERT_NE(seen, family)
            << "family " << family << " not contiguous";
      }
      family_order.push_back(family);
      last_family = family;
    }
  }
  ASSERT_FALSE(family_order.empty());
}

// ---------------------------------------------------------------------

class AdminHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "admin_http_test_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
    log_path_ = dbname_ + ".LOG";
    options_.create_if_missing = true;
    DestroyDB(dbname_, options_);
    ::unlink(log_path_.c_str());
  }

  void TearDown() override {
    server_.reset();
    client_.reset();
    db_.reset();
    DestroyDB(dbname_, options_);
    ::unlink(log_path_.c_str());
  }

  void OpenDB() {
    options_.listeners.clear();
    options_.listeners.push_back(&gate_);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, dbname_, &raw).ok());
    db_.reset(raw);
  }

  void OpenShardedDB(size_t shards, std::vector<std::string> boundaries) {
    options_.listeners.clear();
    options_.listeners.push_back(&gate_);
    shard::ShardedOptions sharded;
    sharded.num_shards = shards;
    sharded.boundary_keys = std::move(boundaries);
    shard::ShardedDB* raw = nullptr;
    Status s = shard::ShardedDB::Open(options_, sharded, dbname_, &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  void StartServer(ServerOptions sopts = ServerOptions()) {
    if (!db_) OpenDB();
    sopts.host = "127.0.0.1";
    sopts.port = 0;
    sopts.admin_port = 0;  // ephemeral admin endpoint on every test
    sopts.stall_gate = &gate_;
    if (sopts.info_log == nullptr) {
      if (!log_.get()) {
        ASSERT_TRUE(obs::NewFileLogger(Env::Posix(), log_path_, &log_).ok());
      }
      sopts.info_log = log_.get();
    }
    server_ = std::make_unique<Server>(db_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->admin_port(), 0);
  }

  client::Client* NewClient(int connections = 1) {
    client::ClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server_->port();
    copts.num_connections = connections;
    client_ = std::make_unique<client::Client>(copts);
    return client_.get();
  }

  // Named gauge value from the server's registry, or -1 if absent.
  int64_t GaugeValue(const std::string& name) {
    for (const obs::MetricSample& s :
         server_->metrics_registry()->Snapshot()) {
      if (s.name == name) return s.gauge;
    }
    return -1;
  }

  std::string dbname_;
  std::string log_path_;
  Options options_;
  WriteStallGate gate_;
  FaultInjectionEnv fault_{Env::Posix()};  // opt-in via options_.env
  std::unique_ptr<obs::Logger> log_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<client::Client> client_;
};

// ---------------------------------------------------------------------
// Endpoint semantics.

TEST_F(AdminHttpTest, HealthzStatsAndErrorStatuses) {
  StartServer();
  HttpResponse r;
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/healthz", &r));
  EXPECT_EQ(200, r.status);
  EXPECT_EQ("ok\n", r.body);

  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/stats", &r));
  EXPECT_EQ(200, r.status);
  EXPECT_FALSE(r.body.empty());
  EXPECT_EQ(0u, r.content_type.find("text/plain"));

  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/advisor", &r));
  EXPECT_EQ(200, r.status);
  EXPECT_NE(std::string::npos, r.body.find("\"jobs\""));

  // Unsharded DB has no arbiter: the property fails, so the path 404s.
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/arbiter", &r));
  EXPECT_EQ(404, r.status);

  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/nope", &r));
  EXPECT_EQ(404, r.status);

  ASSERT_NO_FATAL_FAILURE(
      Fetch(server_->admin_port(), "POST /metrics HTTP/1.0\r\n\r\n", &r));
  EXPECT_EQ(405, r.status);
}

TEST_F(AdminHttpTest, MetricsExpositionIsConformant) {
  StartServer();
  client::Client* cli = NewClient();
  ASSERT_TRUE(cli->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(cli->Get("k", &value).ok());

  HttpResponse r;
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/metrics", &r));
  EXPECT_EQ(200, r.status);
  EXPECT_EQ("text/plain; version=0.0.4", r.content_type);
  ASSERT_NO_FATAL_FAILURE(CheckExpositionConformance(r.body));
  // Server- and engine-level families both present.
  EXPECT_NE(std::string::npos, r.body.find("pipelsm_server_conns_active"));
  EXPECT_NE(std::string::npos,
            r.body.find("# TYPE pipelsm_server_req_micros_put summary"));
  EXPECT_NE(std::string::npos,
            r.body.find("pipelsm_server_req_micros_put{quantile=\"0.99\"}"));
  EXPECT_NE(std::string::npos, r.body.find("pipelsm_db_write_stall_state"));
  EXPECT_NE(std::string::npos, r.body.find("pipelsm_server_draining 0"));
  // No compaction has run yet, so the advisor has no regime to report
  // (0 none, 1 io-bound, 2 cpu-bound), and every series is a registry
  // instrument: no info-style family.
  EXPECT_NE(std::string::npos, r.body.find("\npipelsm_advisor_regime 0\n"))
      << r.body;
  EXPECT_EQ(std::string::npos, r.body.find("_info")) << r.body;

  // Two overlapping flushes, then a manual compaction that merges them:
  // the gauge now carries the regime pipelsm.advisor reports.
  for (int round = 0; round < 2; round++) {
    for (int i = round; i < 400; i += 2) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                           std::string(100, 'v'))
                      .ok());
    }
    db_->CompactRange(nullptr, nullptr);
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());
  ASSERT_GT(db_->GetCompactionMetrics().compactions, 0u);
  std::string advisor;
  ASSERT_TRUE(db_->GetProperty("pipelsm.advisor", &advisor));
  testjson::JsonValue verdict;
  std::string err;
  ASSERT_TRUE(testjson::ParseJson(advisor, &verdict, &err)) << err;
  const testjson::JsonValue* regime = verdict.Find("regime");
  ASSERT_NE(nullptr, regime) << advisor;
  const std::map<std::string, std::string> codes = {
      {"io-bound", "1"}, {"cpu-bound", "2"}};
  ASSERT_EQ(1u, codes.count(regime->string_value)) << advisor;
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/metrics", &r));
  EXPECT_NE(std::string::npos,
            r.body.find("\npipelsm_advisor_regime " +
                        codes.at(regime->string_value) + "\n"))
      << r.body;
}

TEST_F(AdminHttpTest, MetricsCarryShardLabelsOnATwoShardFleet) {
  ASSERT_NO_FATAL_FAILURE(OpenShardedDB(2, {"m"}));
  StartServer();
  client::Client* cli = NewClient();
  ASSERT_TRUE(cli->Put("apple", "1").ok());  // shard 0
  ASSERT_TRUE(cli->Put("zebra", "2").ok());  // shard 1

  HttpResponse r;
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/metrics", &r));
  EXPECT_EQ(200, r.status);
  ASSERT_NO_FATAL_FAILURE(CheckExpositionConformance(r.body));
  // Engine families labeled per shard, both shards present.
  EXPECT_NE(std::string::npos,
            r.body.find("pipelsm_db_write_stall_state{shard=\"0\"}"));
  EXPECT_NE(std::string::npos,
            r.body.find("pipelsm_db_write_stall_state{shard=\"1\"}"));
  // Each shard counts the writes routed to it, and reports its own
  // advisor regime.
  EXPECT_NE(std::string::npos,
            r.body.find("\npipelsm_db_write_ops{shard=\"0\"} 1\n"));
  EXPECT_NE(std::string::npos,
            r.body.find("\npipelsm_db_write_ops{shard=\"1\"} 1\n"));
  EXPECT_NE(std::string::npos,
            r.body.find("\npipelsm_advisor_regime{shard=\"0\"} "));
  EXPECT_NE(std::string::npos,
            r.body.find("\npipelsm_advisor_regime{shard=\"1\"} "));
  EXPECT_EQ(std::string::npos, r.body.find("_info")) << r.body;
  // Sharded fleets have an arbiter; its JSON endpoint serves too.
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/arbiter", &r));
  EXPECT_EQ(200, r.status);
}

TEST_F(AdminHttpTest, HealthzReports503WhileDraining) {
  options_.env = &fault_;
  OpenDB();
  StartServer();
  const int admin_port = server_->admin_port();
  client::Client* cli = NewClient();
  ASSERT_TRUE(cli->Put("warm", "up").ok());

  // Pin the drain window open: the in-flight write sleeps inside the WAL
  // append, and Drain() joins the commit thread behind it.
  fault_.SetPathFilter(FaultOp::kAppend, ".log");
  fault_.SetDelayMicros(FaultOp::kAppend, 1200 * 1000);
  std::thread writer([&] { cli->Put("slow", "write"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread drainer([&] { server_->Drain(); });

  bool saw_503 = false;
  for (int i = 0; i < 200 && !saw_503; i++) {
    int fd = ConnectTo(admin_port);
    if (fd < 0) break;  // drain finished and closed the admin socket
    if (SendAll(fd, "GET /healthz HTTP/1.0\r\n\r\n")) {
      const std::string raw = RecvUntilEof(fd);
      if (raw.find("HTTP/1.0 503") == 0) {
        EXPECT_NE(std::string::npos, raw.find("draining"));
        saw_503 = true;
      }
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  writer.join();
  drainer.join();
  fault_.ClearFaults();
  EXPECT_TRUE(saw_503);
  EXPECT_FALSE(server_->running());
}

// ---------------------------------------------------------------------
// Hostile input.

TEST_F(AdminHttpTest, OversizedRequestLineGets431AndClose) {
  StartServer();
  HttpResponse r;
  const std::string huge = "GET /" + std::string(8192, 'a');
  ASSERT_NO_FATAL_FAILURE(Fetch(server_->admin_port(), huge, &r));
  EXPECT_EQ(431, r.status);
  // The endpoint still works afterwards.
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/healthz", &r));
  EXPECT_EQ(200, r.status);
}

TEST_F(AdminHttpTest, MalformedRequestsGet400) {
  StartServer();
  const std::string bad[] = {
      "get /metrics HTTP/1.0\r\n\r\n",       // lowercase method
      "GET /metrics\r\n\r\n",                // missing version token
      "GETMETRICS\r\n\r\n",                  // no spaces at all
      "GET metrics HTTP/1.0\r\n\r\n",        // path without leading /
      std::string("\x00\x01\x02\xff garbage\r\n\r\n", 16),  // binary junk
  };
  for (const std::string& request : bad) {
    HttpResponse r;
    ASSERT_NO_FATAL_FAILURE(Fetch(server_->admin_port(), request, &r));
    EXPECT_EQ(400, r.status) << request.substr(0, 32);
  }
  HttpResponse r;
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/healthz", &r));
  EXPECT_EQ(200, r.status);
}

TEST_F(AdminHttpTest, SlowlorisDripsStayBoundedAndServerStaysResponsive) {
  StartServer();
  // Four connections drip partial request heads and then stall.
  std::vector<int> drippers;
  for (int i = 0; i < 4; i++) {
    int fd = ConnectTo(server_->admin_port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, "GET /hea"));
    drippers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // A well-behaved scrape still gets through immediately.
  HttpResponse r;
  ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/healthz", &r));
  EXPECT_EQ(200, r.status);
  // A dripper that eventually completes its head gets served.
  ASSERT_TRUE(SendAll(drippers[0], "lthz HTTP/1.0\r\n\r\n"));
  const std::string raw = RecvUntilEof(drippers[0]);
  EXPECT_EQ(0u, raw.find("HTTP/1.0 200"));
  for (int fd : drippers) ::close(fd);
}

TEST_F(AdminHttpTest, PipelinedGarbageAfterTheRequestIsIgnored) {
  StartServer();
  HttpResponse r;
  ASSERT_NO_FATAL_FAILURE(
      Fetch(server_->admin_port(),
            "GET /healthz HTTP/1.0\r\n\r\n" + std::string(2048, 'x'), &r));
  EXPECT_EQ(200, r.status);
  EXPECT_EQ("ok\n", r.body);
}

TEST_F(AdminHttpTest, ConnectionCapRefusesExtras) {
  ServerOptions sopts;
  sopts.max_admin_conns = 2;
  StartServer(sopts);
  int a = ConnectTo(server_->admin_port());
  int b = ConnectTo(server_->admin_port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // Give the accept loop time to register both (the cap is checked at
  // accept, and the refused socket is closed without a response).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int c = ConnectTo(server_->admin_port());
  ASSERT_GE(c, 0);
  const std::string raw = RecvUntilEof(c);  // immediate EOF, no HTTP reply
  EXPECT_TRUE(raw.empty()) << raw.substr(0, 64);
  ::close(c);
  ::close(a);
  ::close(b);
  // Once the slots free up, scrapes work again.
  bool ok = false;
  for (int i = 0; i < 100 && !ok; i++) {
    int fd = ConnectTo(server_->admin_port());
    if (fd >= 0 && SendAll(fd, "GET /healthz HTTP/1.0\r\n\r\n")) {
      ok = RecvUntilEof(fd).find("HTTP/1.0 200") == 0;
    }
    if (fd >= 0) ::close(fd);
    if (!ok) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------
// Gauge hygiene: after churning every connection flavor — clean client
// traffic, clean admin scrapes, hostile admin connections, half-open
// drips — every active-count gauge returns to zero (the scrape itself
// is made through the registry, not the endpoint, so there is no
// self-counting).

TEST_F(AdminHttpTest, ActiveGaugesReturnToZeroAfterChurn) {
  StartServer();
  const auto wait_for_zero = [this] {
    // Closes are processed by the I/O loops asynchronously; poll.
    bool zero = false;
    for (int i = 0; i < 500 && !zero; i++) {
      zero = GaugeValue("server.conns_active") == 0 &&
             GaugeValue("server.admin.conns_active") == 0 &&
             GaugeValue("server.requests_inflight") == 0;
      if (!zero) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(0, GaugeValue("server.conns_active"));
    EXPECT_EQ(0, GaugeValue("server.admin.conns_active"));
    EXPECT_EQ(0, GaugeValue("server.requests_inflight"));
  };
  for (int round = 0; round < 3; round++) {
    client::Client* cli = NewClient(2);
    ASSERT_TRUE(cli->Put("k" + std::to_string(round), "v").ok());
    std::string value;
    ASSERT_TRUE(cli->Get("k" + std::to_string(round), &value).ok());
    client_.reset();  // closes client connections

    HttpResponse r;
    ASSERT_NO_FATAL_FAILURE(Get(server_->admin_port(), "/metrics", &r));
    EXPECT_EQ(200, r.status);
    ASSERT_NO_FATAL_FAILURE(Fetch(server_->admin_port(), std::string(8192, 'a'), &r));
    EXPECT_EQ(431, r.status);
    ASSERT_NO_FATAL_FAILURE(Fetch(server_->admin_port(), "BAD\r\n\r\n", &r));
    EXPECT_EQ(400, r.status);
    int half_open = ConnectTo(server_->admin_port());
    ASSERT_GE(half_open, 0);
    SendAll(half_open, "GET /par");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::close(half_open);  // client walks away mid-head
  }
  wait_for_zero();
  // The churn really exercised the hostile paths.
  bool saw_errors = false;
  for (const obs::MetricSample& s : server_->metrics_registry()->Snapshot()) {
    if (s.name == "server.admin.http_errors") saw_errors = s.counter >= 6;
  }
  EXPECT_TRUE(saw_errors);

  // Concurrent churn: clients whose two connections land on both I/O
  // loops pipeline requests that the loops dispatch and the workers
  // answer, while scrapers open and close admin connections, so every
  // gauge moves on several threads at once.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([this, t] {
      for (int round = 0; round < 5; round++) {
        client::ClientOptions copts;
        copts.host = "127.0.0.1";
        copts.port = server_->port();
        copts.num_connections = 2;
        client::Client cli(copts);
        std::vector<std::future<client::Result>> futures;
        for (int i = 0; i < 64; i++) {
          const std::string key =
              "c" + std::to_string(t) + "_" + std::to_string(i);
          futures.push_back(i % 2 == 0 ? cli.AsyncPut(key, "v")
                                       : cli.AsyncGet(key));
        }
        for (auto& f : futures) {
          const Status st = cli.Wait(f).status;  // a Get may miss its Put
          EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        }
      }
    });
  }
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([this] {
      for (int i = 0; i < 20; i++) {
        HttpResponse r;
        Get(server_->admin_port(), "/healthz", &r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  wait_for_zero();
}

// ---------------------------------------------------------------------
// Parser unit tests (no server).

TEST(HttpRequestParser, AcceptsSplitFeeds) {
  HttpRequestParser p;
  EXPECT_EQ(HttpRequestParser::Result::kNeedMore, p.Feed("GET /me", 7));
  EXPECT_EQ(HttpRequestParser::Result::kNeedMore,
            p.Feed("trics HTTP/1.0\r\n", 16));
  EXPECT_EQ(HttpRequestParser::Result::kComplete, p.Feed("\r\n", 2));
  EXPECT_EQ("GET", p.method());
  EXPECT_EQ("/metrics", p.path());
}

TEST(HttpRequestParser, ToleratesBareLfAndHeaders) {
  HttpRequestParser p;
  const std::string req =
      "GET /healthz HTTP/1.1\nHost: x\nAccept: */*\n\n";
  EXPECT_EQ(HttpRequestParser::Result::kComplete,
            p.Feed(req.data(), req.size()));
  EXPECT_EQ("/healthz", p.path());
}

TEST(HttpRequestParser, RejectsControlBytes) {
  HttpRequestParser p;
  const char req[] = "GET /\x01 HTTP/1.0\r\n\r\n";
  EXPECT_EQ(HttpRequestParser::Result::kError,
            p.Feed(req, sizeof(req) - 1));
  EXPECT_EQ(400, p.error_status());
}

TEST(HttpRequestParser, CapsHeadAt4096Bytes) {
  HttpRequestParser p;
  const std::string chunk(1000, 'a');
  HttpRequestParser::Result r = HttpRequestParser::Result::kNeedMore;
  for (int i = 0; i < 5 && r == HttpRequestParser::Result::kNeedMore; i++) {
    r = p.Feed(chunk.data(), chunk.size());
  }
  EXPECT_EQ(HttpRequestParser::Result::kError, r);
  EXPECT_EQ(431, p.error_status());
}

TEST(HttpRequestParser, VerdictIsSticky) {
  HttpRequestParser p;
  const std::string req = "GET / HTTP/1.0\r\n\r\n";
  EXPECT_EQ(HttpRequestParser::Result::kComplete,
            p.Feed(req.data(), req.size()));
  EXPECT_EQ(HttpRequestParser::Result::kComplete, p.Feed("junk", 4));
  EXPECT_EQ("/", p.path());
}

}  // namespace
}  // namespace pipelsm::server
