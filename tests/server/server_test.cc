// End-to-end tests of the epoll server + pipelined client against a real
// DB on the posix env: request semantics, group-commit durability under
// 16 concurrent writers, reads answered while a write waits in its WAL
// sync, protocol-error connection drops (with the EVENT line), stall-gate
// backpressure, drain, and a WRITE_BATCH split across the seam of a
// two-shard server.
#include "src/server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/db/db.h"
#include "src/env/env.h"
#include "src/obs/logger.h"
#include "src/shard/sharded_db.h"
#include "tests/db/wal_sync_latch_env.h"
#include "tests/obs/json_check.h"

namespace pipelsm::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "server_test_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
    log_path_ = dbname_ + ".LOG";
    options_.create_if_missing = true;
    DestroyDB(dbname_, options_);
    shard::ShardedDB::Destroy(dbname_, options_);
    ::unlink(log_path_.c_str());
  }

  void TearDown() override {
    latch_env_.Unblock();  // a failed test may leave a write parked
    server_.reset();  // drains before the DB goes away
    client_.reset();
    db_.reset();
    DestroyDB(dbname_, options_);
    shard::ShardedDB::Destroy(dbname_, options_);
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

  // A plain TCP connection to the server, with a receive timeout so a
  // missing reply fails the test instead of hanging it.
  int ConnectRaw() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    EXPECT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
    EXPECT_EQ(0, ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)));
    return fd;
  }

  uint64_t CounterValue(const std::string& name) {
    return server_->metrics_registry()->RegisterCounter(name, "")->value();
  }

  void StartServer(ServerOptions sopts = ServerOptions()) {
    if (!db_) OpenDB();
    sopts.host = "127.0.0.1";
    sopts.port = 0;  // ephemeral
    sopts.stall_gate = &gate_;
    if (sopts.info_log == nullptr) {
      if (!log_.get()) {
        ASSERT_TRUE(
            obs::NewFileLogger(Env::Posix(), log_path_, &log_).ok());
      }
      sopts.info_log = log_.get();
    }
    server_ = std::make_unique<Server>(db_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
  }

  // Waits until `n` requests have been dispatched and not yet answered
  // (server.requests_inflight). The deadline only turns a lost request
  // into a failure instead of a hang.
  void WaitForInflight(int64_t n) {
    const obs::Gauge* inflight =
        db_->MetricsHandle()->RegisterGauge("server.requests_inflight", "");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (inflight->value() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(n, inflight->value());
  }

  client::Client* NewClient(int connections = 1) {
    client::ClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server_->port();
    copts.num_connections = connections;
    client_ = std::make_unique<client::Client>(copts);
    return client_.get();
  }

  std::string ReadLog() {
    std::string contents;
    ReadFileToString(Env::Posix(), log_path_, &contents);
    return contents;
  }

  std::string dbname_;
  std::string log_path_;
  // Tests that park WAL syncs point options_.env here before OpenDB().
  WalSyncLatchEnv latch_env_{Env::Posix()};
  Options options_;
  WriteStallGate gate_;
  std::unique_ptr<obs::Logger> log_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<client::Client> client_;
};

TEST_F(ServerTest, StartPingDrain) {
  StartServer();
  EXPECT_GT(server_->port(), 0);
  client::Client* cli = NewClient();
  EXPECT_TRUE(cli->Ping().ok());
  client_.reset();
  server_->Drain();
  EXPECT_FALSE(server_->running());
  const std::string log = ReadLog();
  EXPECT_NE(std::string::npos, log.find("EVENT server_start"));
  EXPECT_NE(std::string::npos, log.find("EVENT conn_open"));
  EXPECT_NE(std::string::npos, log.find("EVENT drain_begin"));
  EXPECT_NE(std::string::npos, log.find("EVENT drain_end"));
}

TEST_F(ServerTest, PutGetDeleteScanStats) {
  StartServer();
  client::Client* cli = NewClient();

  ASSERT_TRUE(cli->Put("alpha", "1").ok());
  ASSERT_TRUE(cli->Put("beta", "2").ok());
  ASSERT_TRUE(cli->Put("gamma", "3").ok());

  std::string value;
  ASSERT_TRUE(cli->Get("beta", &value).ok());
  EXPECT_EQ("2", value);
  EXPECT_TRUE(cli->Get("nope", &value).IsNotFound());

  ASSERT_TRUE(cli->Delete("beta").ok());
  EXPECT_TRUE(cli->Get("beta", &value).IsNotFound());

  std::vector<server::BatchOp> ops(2);
  ops[0].key = "delta";
  ops[0].value = "4";
  ops[1].is_delete = true;
  ops[1].key = "alpha";
  ASSERT_TRUE(cli->WriteBatch(ops).ok());
  EXPECT_TRUE(cli->Get("alpha", &value).IsNotFound());
  ASSERT_TRUE(cli->Get("delta", &value).ok());
  EXPECT_EQ("4", value);

  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(cli->Scan("", 0, &entries).ok());
  ASSERT_EQ(2u, entries.size());  // delta, gamma
  EXPECT_EQ("delta", entries[0].first);
  EXPECT_EQ("gamma", entries[1].first);

  // Scan with a start key and a limit.
  ASSERT_TRUE(cli->Scan("gamma", 1, &entries).ok());
  ASSERT_EQ(1u, entries.size());
  EXPECT_EQ("gamma", entries[0].first);

  // STATS default property and the metrics JSON (which must carry the
  // server.* instruments, since the server registers into the DB's
  // registry via DB::MetricsHandle).
  std::string stats;
  ASSERT_TRUE(cli->Stats("", &stats).ok());
  EXPECT_FALSE(stats.empty());
  std::string json;
  ASSERT_TRUE(cli->Stats("pipelsm.metrics", &json).ok());
  testjson::JsonValue root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(json, &root, &error)) << error;
  const testjson::JsonValue* counters = root.Find("counters");
  ASSERT_NE(nullptr, counters);
  const testjson::JsonValue* conns = counters->Find("server.conns_total");
  ASSERT_NE(nullptr, conns);
  EXPECT_GE(conns->number_value, 1);

  EXPECT_TRUE(cli->Stats("no.such.property", &stats).IsInvalidArgument());
}

// SCAN limit hardening: limit=0 means the server default cap, a hostile
// huge limit is clamped server-side, and the payload byte cap truncates
// large-value scans before they can balloon the reply allocation.
TEST_F(ServerTest, ScanLimitsAreClampedServerSide) {
  ServerOptions sopts;
  sopts.max_scan_entries = 4;
  sopts.max_scan_bytes = 3000;
  StartServer(sopts);
  client::Client* cli = NewClient();

  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(cli->Put("small" + std::to_string(i), "v").ok());
  }

  // limit=0 -> default cap; hostile 0xffffffff -> same cap, no error,
  // no oversized reply.
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(cli->Scan("", 0, &entries).ok());
  EXPECT_EQ(4u, entries.size());
  ASSERT_TRUE(cli->Scan("", 0xffffffffu, &entries).ok());
  EXPECT_EQ(4u, entries.size());

  // Byte cap: 2KB values mean the third entry crosses 3000 payload
  // bytes, so the reply carries fewer than the entry cap.
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
        cli->Put("big" + std::to_string(i), std::string(2048, 'x')).ok());
  }
  ASSERT_TRUE(cli->Scan("big", 0xffffffffu, &entries).ok());
  ASSERT_EQ(2u, entries.size());  // 2 * (3 + 2048) >= 3000 stops the scan
  EXPECT_EQ("big0", entries[0].first);
  EXPECT_EQ(std::string(2048, 'x'), entries[0].second);
}

TEST_F(ServerTest, PipelinedAsyncRequests) {
  StartServer();
  client::Client* cli = NewClient(2);
  std::vector<std::future<client::Result>> futures;
  for (int i = 0; i < 500; i++) {
    futures.push_back(
        cli->AsyncPut("key" + std::to_string(i), "v" + std::to_string(i)));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(cli->Wait(f).status.ok());
  }
  futures.clear();
  for (int i = 0; i < 500; i++) {
    futures.push_back(cli->AsyncGet("key" + std::to_string(i)));
  }
  for (int i = 0; i < 500; i++) {
    client::Result r = cli->Wait(futures[i]);
    ASSERT_TRUE(r.status.ok()) << i;
    EXPECT_EQ("v" + std::to_string(i), r.value);
  }
}

// Send coalescing: with pipeline_buffer_bytes set high, async frames sit
// in the client until Flush() (or a sync call) pushes them out, then all
// complete. The sync API must stay usable with buffering enabled.
TEST_F(ServerTest, BufferedClientFlush) {
  StartServer();
  client::ClientOptions copts;
  copts.host = "127.0.0.1";
  copts.port = server_->port();
  copts.num_connections = 4;
  copts.connection_stride = 8;
  copts.pipeline_buffer_bytes = 1 << 20;  // nothing auto-flushes
  client::Client cli(copts);

  std::vector<std::future<client::Result>> futures;
  for (int i = 0; i < 200; i++) {
    futures.push_back(
        cli.AsyncPut("buf" + std::to_string(i), "v" + std::to_string(i)));
  }
  cli.Flush();
  for (auto& f : futures) {
    ASSERT_TRUE(cli.Wait(f).status.ok());
  }

  // Sync calls flush for themselves (and drag along anything buffered).
  auto pending = cli.AsyncPut("buf-tail", "tail");
  std::string value;
  ASSERT_TRUE(cli.Get("buf42", &value).ok());
  EXPECT_EQ("v42", value);
  EXPECT_TRUE(cli.Wait(pending).status.ok());
  ASSERT_TRUE(cli.Get("buf-tail", &value).ok());
  EXPECT_EQ("tail", value);
}

// Group commit through the engine's writer queue: 16 concurrent
// writers, every acked write durable across a reopen, and writes that
// shared a WAL record. The first write's sync is parked until the other
// 15 writers' PUTs have reached the server, so the next round commits
// all 15 lanes in one group.
TEST_F(ServerTest, GroupCommitConcurrentWritersDurable) {
  options_.env = &latch_env_;
  OpenDB();
  ServerOptions sopts;
  sopts.sync_writes = true;
  StartServer(sopts);

  constexpr int kWriters = 16;
  constexpr int kPerWriter = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  std::vector<std::unique_ptr<client::Client>> clients;
  for (int w = 0; w < kWriters; w++) {
    client::ClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server_->port();
    clients.push_back(std::make_unique<client::Client>(copts));
  }
  latch_env_.Block();
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; i++) {
        const std::string key =
            "w" + std::to_string(w) + "_" + std::to_string(i);
        if (!clients[w]->Put(key, key).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  latch_env_.WaitForParkedSync();
  WaitForInflight(kWriters);
  latch_env_.Unblock();
  for (auto& t : writers) t.join();
  ASSERT_EQ(0, failures.load());

  // Group-size histogram: groups committed, and the group behind the
  // parked leader folded the other workers' writes.
  std::string json;
  ASSERT_TRUE(db_->GetProperty("pipelsm.metrics", &json));
  testjson::JsonValue root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(json, &root, &error)) << error;
  const testjson::JsonValue* hist = root.Find("histograms");
  ASSERT_NE(nullptr, hist);
  const testjson::JsonValue* batch = hist->Find("db.write_group_size");
  ASSERT_NE(nullptr, batch);
  const testjson::JsonValue* count = batch->Find("count");
  const testjson::JsonValue* max = batch->Find("max");
  ASSERT_NE(nullptr, count);
  ASSERT_NE(nullptr, max);
  EXPECT_GT(count->number_value, 0);
  EXPECT_GE(max->number_value, kWriters - 1)
      << "the lanes that waited on the parked sync did not share a group";

  // Durability of every acked write: drain the server, close the DB,
  // reopen, and look every key up.
  clients.clear();
  server_->Drain();
  server_.reset();
  db_.reset();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options_, dbname_, &raw).ok());
  db_.reset(raw);
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kPerWriter; i++) {
      const std::string key =
          "w" + std::to_string(w) + "_" + std::to_string(i);
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok())
          << "acked write lost: " << key;
      EXPECT_EQ(key, value);
    }
  }
}

// Reads keep moving while a write waits: with one PUT parked inside
// DB::Write (its WAL sync held by the latch), a GET on another
// connection is answered by the other worker.
TEST_F(ServerTest, GetAnswersWhileAPutWaitsInItsWalSync) {
  options_.env = &latch_env_;
  OpenDB();
  ServerOptions sopts;
  sopts.sync_writes = true;
  sopts.num_workers = 2;
  StartServer(sopts);
  client::Client* reader = NewClient();
  ASSERT_TRUE(reader->Put("ready", "yes").ok());

  client::ClientOptions copts;
  copts.host = "127.0.0.1";
  copts.port = server_->port();
  client::Client writer(copts);
  latch_env_.Block();
  auto parked = writer.AsyncPut("parked", "x");
  latch_env_.WaitForParkedSync();

  std::string value;
  ASSERT_TRUE(reader->Get("ready", &value).ok());
  EXPECT_EQ("yes", value);
  // The parked write is not applied before its sync returns.
  EXPECT_TRUE(reader->Get("parked", &value).IsNotFound());

  latch_env_.Unblock();
  EXPECT_TRUE(writer.Wait(parked).status.ok());
  ASSERT_TRUE(reader->Get("parked", &value).ok());
  EXPECT_EQ("x", value);
}

// At most one worker writes. With the first connection's PUT parked in
// its WAL sync, three more connections' PUTs wait for that worker, so the
// other three workers still answer a GET. (The GET's client times out
// after 10 s if every worker holds a write.) Once the sync returns, the
// writing worker commits the three waiting lanes as one group.
TEST_F(ServerTest, GetAnswersWhileWritesWaitBehindAParkedSync) {
  options_.env = &latch_env_;
  OpenDB();
  ServerOptions sopts;
  sopts.sync_writes = true;
  sopts.num_workers = 4;
  StartServer(sopts);
  client::Client* reader = NewClient();
  ASSERT_TRUE(reader->Put("ready", "yes").ok());
  obs::HistogramMetric* groups =
      db_->MetricsHandle()->RegisterHistogram("db.write_group_size", "");
  const uint64_t groups_before = groups->Snapshot().Num();

  std::vector<std::unique_ptr<client::Client>> writers;
  std::vector<std::future<client::Result>> puts;
  latch_env_.Block();
  for (int i = 0; i < sopts.num_workers; i++) {
    client::ClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server_->port();
    writers.push_back(std::make_unique<client::Client>(copts));
    puts.push_back(writers.back()->AsyncPut("w" + std::to_string(i), "x"));
    if (i == 0) latch_env_.WaitForParkedSync();
  }
  WaitForInflight(sopts.num_workers);

  std::string value;
  ASSERT_TRUE(reader->Get("ready", &value).ok());
  EXPECT_EQ("yes", value);

  latch_env_.Unblock();
  for (int i = 0; i < sopts.num_workers; i++) {
    EXPECT_TRUE(writers[i]->Wait(puts[i]).status.ok());
    ASSERT_TRUE(reader->Get("w" + std::to_string(i), &value).ok());
  }
  const Histogram sizes = groups->Snapshot();
  EXPECT_EQ(groups_before + 2, sizes.Num());
  EXPECT_EQ(sopts.num_workers - 1, sizes.Max());
}

// Writes pipelined on one connection commit in the order they were sent,
// though four workers serve the connection: every key ends at its last
// PUT, and a key whose last write is a DELETE is gone.
TEST_F(ServerTest, PipelinedWritesOnOneConnectionCommitInSendOrder) {
  ServerOptions sopts;
  sopts.sync_writes = false;
  sopts.num_workers = 4;
  StartServer(sopts);
  client::Client* cli = NewClient(1);

  constexpr int kKeys = 200;
  constexpr int kRounds = 5;
  std::vector<std::future<client::Result>> acks;
  for (int k = 0; k < kKeys; k++) {
    const std::string key = "k" + std::to_string(k);
    for (int r = 0; r < kRounds; r++) {
      acks.push_back(cli->AsyncPut(key, "v" + std::to_string(r)));
    }
    if (k % 2 == 1) acks.push_back(cli->AsyncDelete(key));
  }
  cli->Flush();
  for (auto& f : acks) ASSERT_TRUE(cli->Wait(f).status.ok());

  std::string value;
  for (int k = 0; k < kKeys; k++) {
    const std::string key = "k" + std::to_string(k);
    const Status s = db_->Get(ReadOptions(), key, &value);
    if (k % 2 == 1) {
      EXPECT_TRUE(s.IsNotFound()) << key << " = " << value;
    } else {
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ("v" + std::to_string(kRounds - 1), value) << key;
    }
  }
}

// Garbage on the wire must drop exactly that connection — with an EVENT
// line — while the server keeps serving others.
TEST_F(ServerTest, ProtocolErrorDropsConnection) {
  StartServer();
  client::Client* cli = NewClient();
  ASSERT_TRUE(cli->Put("survivor", "yes").ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                         sizeof(addr)));
  const std::string garbage = "definitely not a pipelsm frame\n";
  ASSERT_EQ(static_cast<ssize_t>(garbage.size()),
            ::send(fd, garbage.data(), garbage.size(), 0));
  // The server must close on us: recv sees EOF (or reset).
  char buf[64];
  const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_LE(r, 0);
  ::close(fd);

  // The good connection is unaffected.
  std::string value;
  ASSERT_TRUE(cli->Get("survivor", &value).ok());
  EXPECT_EQ("yes", value);

  // The server logs conn_close just after it closes the socket, so the
  // line can trail the EOF seen above; give it a moment to land.
  std::string log = ReadLog();
  for (int i = 0; i < 500 && log.find("reason=protocol_error") ==
                                 std::string::npos;
       i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    log = ReadLog();
  }
  EXPECT_NE(std::string::npos, log.find("EVENT conn_protocol_error"));
  EXPECT_NE(std::string::npos, log.find("reason=protocol_error"));
}

// The stall gate parks reads: a PUT sent while the gate reports kStopped
// is not answered until the stall clears.
TEST_F(ServerTest, StallGateParksReads) {
  StartServer();
  client::Client* cli = NewClient();
  ASSERT_TRUE(cli->Ping().ok());  // connection established + readable

  obs::WriteStallInfo stop;
  stop.condition = obs::WriteStallCondition::kStopped;
  gate_.OnWriteStallChange(stop);

  auto future = cli->AsyncPut("stalled", "x");
  EXPECT_EQ(std::future_status::timeout,
            future.wait_for(std::chrono::milliseconds(100)))
      << "request was served while the DB reported a stopped write stall";

  obs::WriteStallInfo resume;
  resume.condition = obs::WriteStallCondition::kNormal;
  resume.previous = obs::WriteStallCondition::kStopped;  // honest edge
  gate_.OnWriteStallChange(resume);
  client::Result result = cli->Wait(future);
  EXPECT_TRUE(result.status.ok());
}

// Drain answers everything already accepted, then refuses new conns.
TEST_F(ServerTest, DrainAnswersAcceptedRequests) {
  StartServer();
  client::Client* cli = NewClient(4);
  std::vector<std::future<client::Result>> futures;
  for (int i = 0; i < 200; i++) {
    futures.push_back(cli->AsyncPut("drain" + std::to_string(i), "v"));
  }
  // Make sure the first half is fully served before the drain starts;
  // the second half races it (frames still in socket buffers when reads
  // park are reported failed at the client, not silently dropped).
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(cli->Wait(futures[i]).status.ok()) << i;
  }
  server_->Drain();
  int ok = 100, failed = 0;
  for (int i = 100; i < 200; i++) {
    const client::Result r = cli->Wait(futures[i]);
    if (r.status.ok()) {
      ok++;
    } else {
      failed++;  // raced the drain: rejected or connection closed
    }
  }
  EXPECT_EQ(200, ok + failed);
  EXPECT_GE(ok, 100);

  // New connections are refused (connect fails or is closed immediately).
  client::ClientOptions copts;
  copts.host = "127.0.0.1";
  copts.port = server_->port();
  client::Client late(copts);
  EXPECT_FALSE(late.Ping().ok());
}

// STATS hands the client's property name to the fleet: a shard index too
// long for 64 bits is an unknown property, and the server keeps serving.
TEST_F(ServerTest, ShardedStatsWithAnOverlongShardIndexIsRejected) {
  ASSERT_NO_FATAL_FAILURE(OpenShardedDB(2, {"m"}));
  StartServer();
  client::Client* cli = NewClient();
  std::string stats;
  EXPECT_TRUE(cli->Stats("pipelsm.shard99999999999999999999999.stats", &stats)
                  .IsInvalidArgument());
  EXPECT_TRUE(cli->Ping().ok());
}

// A sharded server splits each WRITE_BATCH per shard. A batch across the
// seam commits on both shards and its client gets exactly one reply; a
// batch inside one shard rides only that shard's commit thread.
TEST_F(ServerTest, ShardedWriteBatchSplitsAtTheSeamAndRepliesOnce) {
  ASSERT_NO_FATAL_FAILURE(OpenShardedDB(2, {"m"}));
  StartServer();
  auto* sharded = static_cast<shard::ShardedDB*>(db_.get());

  std::vector<BatchOp> seam(3);
  seam[0].key = "apple";  // shard 0
  seam[0].value = "1";
  seam[1].key = "zebra";  // shard 1
  seam[1].value = "2";
  seam[2].key = "kiwi";  // shard 0
  seam[2].value = "3";
  std::vector<BatchOp> left(1);
  left[0].key = "banana";  // shard 0
  left[0].value = "4";

  // Seq 1 crosses the seam, seq 2 stays in shard 0, seq 3 crosses again.
  const int fd = ConnectRaw();
  std::string wire;
  EncodeWriteBatchRequest(1, seam, &wire);
  EncodeWriteBatchRequest(2, left, &wire);
  EncodeWriteBatchRequest(3, seam, &wire);
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));
  std::map<uint64_t, int> replies;
  FrameDecoder decoder;
  auto read_until = [&](std::vector<uint64_t> seqs) {
    char buf[4096];
    auto answered = [&] {
      for (uint64_t seq : seqs) {
        if (replies[seq] == 0) return false;
      }
      return true;
    };
    while (!answered()) {
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(r, 0) << "server stopped answering";
      decoder.Append(buf, static_cast<size_t>(r));
      DecodedFrame frame;
      while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
        ASSERT_TRUE(frame.reply);
        EXPECT_EQ(MessageType::kWriteBatch, frame.type);
        Status status;
        Slice payload;
        ASSERT_TRUE(ParseReply(Slice(frame.body), &status, &payload));
        EXPECT_TRUE(status.ok()) << status.ToString();
        replies[frame.seq]++;
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(read_until({1, 2, 3}));
  // Both commit threads delivered every reply of their earlier groups
  // before they could commit seq 4, so by the time seq 4 is answered any
  // second reply to seq 1, 2 or 3 would already be on the wire.
  wire.clear();
  EncodeWriteBatchRequest(4, seam, &wire);
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));
  ASSERT_NO_FATAL_FAILURE(read_until({4}));
  ::close(fd);
  EXPECT_EQ((std::map<uint64_t, int>{{1, 1}, {2, 1}, {3, 1}, {4, 1}}),
            replies);

  // Each shard counts the entries routed to it: two per seam batch on
  // shard 0 plus the shard-0 batch's one, one per seam batch on shard 1.
  auto write_ops = [&](size_t i) {
    return sharded->shard(i)
        ->MetricsHandle()
        ->RegisterCounter("db.write_ops", "")
        ->value();
  };
  EXPECT_EQ(7u, write_ops(0));
  EXPECT_EQ(3u, write_ops(1));
  std::string value;
  for (const char* key : {"apple", "kiwi", "banana"}) {
    ASSERT_TRUE(sharded->shard(0)->Get(ReadOptions(), key, &value).ok())
        << key;
    EXPECT_TRUE(sharded->shard(1)->Get(ReadOptions(), key, &value)
                    .IsNotFound())
        << key;
  }
  ASSERT_TRUE(sharded->shard(1)->Get(ReadOptions(), "zebra", &value).ok());
  EXPECT_EQ("2", value);
  EXPECT_TRUE(
      sharded->shard(0)->Get(ReadOptions(), "zebra", &value).IsNotFound());
}

}  // namespace
}  // namespace pipelsm::server
