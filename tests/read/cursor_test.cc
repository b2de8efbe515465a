// Streaming SCAN cursors end-to-end (docs/READ_PATH.md): the
// one-shot-oracle equivalence on a pinned snapshot, bounded batches,
// stream limits, TTL expiry by the sweeper, connection-close and drain
// teardown, the cursor admission cap, a one-shot Client::Scan releasing
// its truncated cursor, and a cross-shard seam scan with a concurrent
// writer + compaction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/db/db.h"
#include "src/env/env.h"
#include "src/obs/logger.h"
#include "src/server/server.h"
#include "src/shard/sharded_db.h"

namespace pipelsm::server {
namespace {

class CursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "cursor_test_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
    log_path_ = dbname_ + ".LOG";
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 32 << 10;
    DestroyDB(dbname_, options_);
    shard::ShardedDB::Destroy(dbname_, options_);
    ::unlink(log_path_.c_str());
  }

  void TearDown() override {
    client_.reset();
    server_.reset();  // drains before the DB goes away
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

  void StartServer(ServerOptions sopts = ServerOptions()) {
    if (!db_) OpenDB();
    sopts.host = "127.0.0.1";
    sopts.port = 0;  // ephemeral
    sopts.stall_gate = &gate_;
    if (sopts.info_log == nullptr) {
      if (!log_.get()) {
        ASSERT_TRUE(obs::NewFileLogger(Env::Posix(), log_path_, &log_).ok());
      }
      sopts.info_log = log_.get();
    }
    server_ = std::make_unique<Server>(db_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
  }

  client::Client* NewClient(int connections = 1) {
    client::ClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server_->port();
    copts.num_connections = connections;
    client_ = std::make_unique<client::Client>(copts);
    return client_.get();
  }

  static std::string Key(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  void Fill(client::Client* cli, int n) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(cli->Put(Key(i), "v" + std::to_string(i)).ok());
    }
  }

  uint64_t CounterValue(const std::string& name) {
    return server_->metrics_registry()->RegisterCounter(name, "")->value();
  }

  int64_t GaugeValue(const std::string& name) {
    return server_->metrics_registry()->RegisterGauge(name, "")->value();
  }

  std::string ReadLog() {
    std::string contents;
    ReadFileToString(Env::Posix(), log_path_, &contents);
    return contents;
  }

  std::string dbname_;
  std::string log_path_;
  Options options_;
  WriteStallGate gate_;
  std::unique_ptr<obs::Logger> log_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<client::Client> client_;
};

TEST_F(CursorTest, StreamMatchesOneShotScanOnSameSnapshot) {
  ServerOptions sopts;
  sopts.max_scan_entries = 17;  // many batches per stream
  StartServer(sopts);
  client::Client* cli = NewClient();
  const int n = 500;
  Fill(cli, n);

  // Oracle: one-shot SCANs of the quiesced DB, paged by start-key
  // continuation (each page is capped at max_scan_entries). Nothing is
  // writing, so the pages concatenate to one consistent snapshot.
  std::vector<std::pair<std::string, std::string>> oracle;
  std::string start;
  while (true) {
    std::vector<std::pair<std::string, std::string>> page;
    ASSERT_TRUE(cli->Scan(start, 0, &page).ok());
    if (page.empty()) break;
    oracle.insert(oracle.end(), page.begin(), page.end());
    start = page.back().first + std::string(1, '\0');
  }
  ASSERT_EQ(static_cast<size_t>(n), oracle.size());

  std::unique_ptr<client::ScanStream> stream = cli->NewScanStream("", 0);
  // Writes racing the stream must not leak in: the cursor pinned its
  // snapshot at SCAN_OPEN.
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(cli->Put("aaa-racer" + std::to_string(i), "new").ok());
    ASSERT_TRUE(cli->Put(Key(i), "overwritten").ok());
  }

  std::vector<std::pair<std::string, std::string>> streamed;
  for (; stream->Valid(); stream->Next()) {
    streamed.emplace_back(stream->key(), stream->value());
  }
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(oracle, streamed);
  EXPECT_GE(CounterValue("cursor.batches"), static_cast<uint64_t>(n) / 17);
}

TEST_F(CursorTest, LowLevelOpenNextCloseAndLimit) {
  ServerOptions sopts;
  sopts.max_scan_entries = 10;
  StartServer(sopts);
  client::Client* cli = NewClient();
  Fill(cli, 100);

  // limit below one batch: done on open, no SCAN_CLOSE needed.
  client::Client::CursorBatch batch;
  ASSERT_TRUE(cli->ScanOpen(Key(0), 5, &batch).ok());
  EXPECT_TRUE(batch.done);
  ASSERT_EQ(5u, batch.entries.size());
  EXPECT_EQ(Key(0), batch.entries[0].first);
  EXPECT_EQ(Key(4), batch.entries[4].first);

  // limit spanning several batches: exactly `limit` entries total.
  ASSERT_TRUE(cli->ScanOpen("", 25, &batch).ok());
  EXPECT_FALSE(batch.done);
  size_t total = batch.entries.size();
  const uint64_t id = batch.cursor_id;
  while (!batch.done) {
    ASSERT_TRUE(cli->ScanNext(id, &batch).ok());
    total += batch.entries.size();
  }
  EXPECT_EQ(25u, total);

  // The exhausted cursor is gone server-side; NEXT says so, CLOSE is
  // idempotent.
  Status s = cli->ScanNext(id, &batch);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(std::string::npos, s.ToString().find("unknown cursor"));
  EXPECT_TRUE(cli->ScanClose(id).ok());

  // Abandon one mid-stream: explicit close releases it.
  ASSERT_TRUE(cli->ScanOpen("", 0, &batch).ok());
  ASSERT_FALSE(batch.done);
  ASSERT_TRUE(cli->ScanClose(batch.cursor_id).ok());
  EXPECT_FALSE(cli->ScanNext(batch.cursor_id, &batch).ok());
  EXPECT_EQ(0, GaugeValue("cursor.active"));
}

TEST_F(CursorTest, TtlExpiryBySweeper) {
  ServerOptions sopts;
  sopts.max_scan_entries = 10;
  sopts.cursor_ttl_micros = 50 * 1000;
  StartServer(sopts);
  client::Client* cli = NewClient();
  Fill(cli, 100);

  client::Client::CursorBatch batch;
  ASSERT_TRUE(cli->ScanOpen("", 0, &batch).ok());
  ASSERT_FALSE(batch.done);
  const uint64_t id = batch.cursor_id;

  // Idle past the TTL; the sweeper reclaims the cursor.
  for (int i = 0; i < 100 && CounterValue("cursor.expired") == 0; i++) {
    ::usleep(10 * 1000);
  }
  EXPECT_GE(CounterValue("cursor.expired"), 1u);
  Status s = cli->ScanNext(id, &batch);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(std::string::npos, ReadLog().find("EVENT cursor_expired"));
  EXPECT_EQ(0, GaugeValue("cursor.active"));
}

TEST_F(CursorTest, ActiveStreamOutlivesTtlBecauseBatchesRefresh) {
  ServerOptions sopts;
  sopts.max_scan_entries = 5;
  sopts.cursor_ttl_micros = 80 * 1000;
  StartServer(sopts);
  client::Client* cli = NewClient();
  const int n = 60;
  Fill(cli, n);

  // Pull a batch every ~20ms — always inside the TTL, across a window
  // several TTLs long. The stream must never expire mid-use.
  client::Client::CursorBatch batch;
  ASSERT_TRUE(cli->ScanOpen("", 0, &batch).ok());
  size_t total = batch.entries.size();
  while (!batch.done) {
    ::usleep(20 * 1000);
    ASSERT_TRUE(cli->ScanNext(batch.cursor_id, &batch).ok());
    total += batch.entries.size();
  }
  EXPECT_EQ(static_cast<size_t>(n), total);
  EXPECT_EQ(0u, CounterValue("cursor.expired"));
}

TEST_F(CursorTest, ConnectionCloseFreesCursors) {
  ServerOptions sopts;
  sopts.max_scan_entries = 10;
  StartServer(sopts);
  client::Client* cli = NewClient();
  Fill(cli, 100);

  client::Client::CursorBatch batch;
  ASSERT_TRUE(cli->ScanOpen("", 0, &batch).ok());
  ASSERT_FALSE(batch.done);
  EXPECT_EQ(1, GaugeValue("cursor.active"));

  client_.reset();  // closes the opening connection
  for (int i = 0; i < 100 && GaugeValue("cursor.active") != 0; i++) {
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(0, GaugeValue("cursor.active"));
  EXPECT_GE(CounterValue("cursor.closed"), 1u);
}

TEST_F(CursorTest, DrainClosesOpenCursors) {
  ServerOptions sopts;
  sopts.max_scan_entries = 10;
  StartServer(sopts);
  client::Client* cli = NewClient();
  Fill(cli, 100);

  client::Client::CursorBatch batch;
  ASSERT_TRUE(cli->ScanOpen("", 0, &batch).ok());
  ASSERT_FALSE(batch.done);

  server_->Drain();  // must not hang on the pinned snapshot
  EXPECT_FALSE(server_->running());
  EXPECT_GE(CounterValue("cursor.closed"), 1u);
  EXPECT_EQ(0, GaugeValue("cursor.active"));
  client_.reset();
}

TEST_F(CursorTest, MaxCursorsAdmissionCap) {
  ServerOptions sopts;
  sopts.max_scan_entries = 10;
  sopts.max_cursors = 1;
  StartServer(sopts);
  client::Client* cli = NewClient();
  Fill(cli, 100);

  client::Client::CursorBatch first;
  ASSERT_TRUE(cli->ScanOpen("", 0, &first).ok());
  ASSERT_FALSE(first.done);

  client::Client::CursorBatch second;
  Status s = cli->ScanOpen("", 0, &second);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(std::string::npos, s.ToString().find("cursor limit"));

  // Freeing the slot re-admits.
  ASSERT_TRUE(cli->ScanClose(first.cursor_id).ok());
  EXPECT_TRUE(cli->ScanOpen("", 0, &second).ok());
}

// Client::Scan is the first batch of a cursor. When the cap truncates
// it, the client closes the cursor before returning, so no snapshot stays
// pinned. While it runs the cursor counts against max_cursors.
TEST_F(CursorTest, TruncatedOneShotScanReleasesItsCursor) {
  ServerOptions sopts;
  sopts.max_scan_entries = 10;
  sopts.max_cursors = 1;
  sopts.cursor_ttl_micros = 0;  // only the client's close can free it
  StartServer(sopts);
  client::Client* cli = NewClient();
  Fill(cli, 100);

  for (int round = 0; round < 3; round++) {
    std::vector<std::pair<std::string, std::string>> entries;
    ASSERT_TRUE(cli->Scan("", 0, &entries).ok());
    ASSERT_EQ(10u, entries.size());
    EXPECT_EQ(Key(0), entries[0].first);
    EXPECT_EQ(0, GaugeValue("cursor.active"));
  }
  EXPECT_EQ(3u, CounterValue("cursor.opened"));
  EXPECT_EQ(3u, CounterValue("cursor.closed"));

  // With the only slot held by an open cursor, a one-shot scan is Busy.
  client::Client::CursorBatch held;
  ASSERT_TRUE(cli->ScanOpen("", 0, &held).ok());
  ASSERT_FALSE(held.done);
  std::vector<std::pair<std::string, std::string>> entries;
  EXPECT_TRUE(cli->Scan("", 0, &entries).IsBusy());
  ASSERT_TRUE(cli->ScanClose(held.cursor_id).ok());
  ASSERT_TRUE(cli->Scan(Key(95), 0, &entries).ok());
  EXPECT_EQ(5u, entries.size());  // exhausted: the server released it
  EXPECT_EQ(0, GaugeValue("cursor.active"));
}

TEST_F(CursorTest, ShardSeamStreamWithConcurrentWritesAndCompaction) {
  ASSERT_NO_FATAL_FAILURE(OpenShardedDB(2, {Key(250)}));
  ServerOptions sopts;
  sopts.max_scan_entries = 13;
  StartServer(sopts);
  client::Client* cli = NewClient();
  const int n = 500;  // keys 0..249 on shard 0, 250.. on shard 1
  Fill(cli, n);

  std::unique_ptr<client::ScanStream> stream = cli->NewScanStream("", 0);

  // A writer churns both shards and forces compactions while the
  // stream walks across the seam on its pinned fleet snapshot.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int i = 0;
    while (!stop.load()) {
      db_->Put(WriteOptions(), Key(i % n), "churn" + std::to_string(i));
      if (++i % 200 == 0) db_->CompactRange(nullptr, nullptr);
    }
  });

  int count = 0;
  for (; stream->Valid(); stream->Next()) {
    ASSERT_EQ(Key(count), stream->key());
    ASSERT_EQ("v" + std::to_string(count), stream->value());
    count++;
  }
  stop.store(true);
  churn.join();
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(n, count);
  stream.reset();
  client_.reset();
}

}  // namespace
}  // namespace pipelsm::server
