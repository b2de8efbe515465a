// ShardedDB: routing of point ops and batches, cross-shard scan
// concatenation (seam walking in both directions), fleet snapshots,
// manifest adoption/validation on reopen, property fan-out, and a
// crash-matrix variant that kills one shard mid-write and verifies the
// fleet recovers shard by shard.
#include "src/shard/sharded_db.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/db/write_batch.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/obs/event_listener.h"
#include "src/obs/metrics.h"
#include "src/shard/router.h"
#include "tests/obs/json_check.h"

namespace pipelsm::shard {
namespace {

Options BaseOptions(Env* env) {
  Options options;
  options.env = env;
  options.create_if_missing = true;
  options.write_buffer_size = 64 << 10;
  options.max_file_size = 32 << 10;
  return options;
}

ShardedOptions FourShards() {
  ShardedOptions sharded;
  sharded.num_shards = 4;
  sharded.boundary_keys = {"f", "m", "s"};
  return sharded;
}

std::unique_ptr<ShardedDB> MustOpen(const Options& options,
                                    const ShardedOptions& sharded,
                                    const std::string& name) {
  ShardedDB* raw = nullptr;
  Status s = ShardedDB::Open(options, sharded, name, &raw);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::unique_ptr<ShardedDB>(raw);
}

TEST(ShardedDB, RoutesPointOpsAndBatchesAcrossShards) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");
  ASSERT_EQ(4u, db->num_shards());

  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "apple", "0").ok());   // shard 0
  ASSERT_TRUE(db->Put(wo, "grape", "1").ok());   // shard 1
  ASSERT_TRUE(db->Put(wo, "mango", "2").ok());   // shard 2
  ASSERT_TRUE(db->Put(wo, "zebra", "3").ok());   // shard 3

  WriteBatch batch;  // touches all four shards in one call
  batch.Put("berry", "b0");
  batch.Put("kiwi", "b1");
  batch.Put("peach", "b2");
  batch.Put("tomato", "b3");
  batch.Delete("apple");
  ASSERT_TRUE(db->Write(wo, &batch).ok());

  ReadOptions ro;
  std::string value;
  EXPECT_TRUE(db->Get(ro, "apple", &value).IsNotFound());
  ASSERT_TRUE(db->Get(ro, "grape", &value).ok());
  EXPECT_EQ("1", value);
  ASSERT_TRUE(db->Get(ro, "tomato", &value).ok());
  EXPECT_EQ("b3", value);

  // The key landed where the router says it should: visible through the
  // owning shard's engine directly, absent from its neighbor.
  const size_t owner = db->router().ShardOf("kiwi");
  EXPECT_EQ(1u, owner);
  ASSERT_TRUE(db->shard(owner)->Get(ro, "kiwi", &value).ok());
  EXPECT_EQ("b1", value);
  EXPECT_TRUE(db->shard(0)->Get(ro, "kiwi", &value).IsNotFound());
}

// WriteMany splits every batch at the seams and hands each shard its
// parts in order: later batches win per key on every shard, and a batch
// that reaches no shard (empty) still reports OK.
TEST(ShardedDB, WriteManySplitsEveryBatchInOrder) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");

  WriteBatch first, second, empty;
  first.Put("apple", "1");   // shard 0
  first.Put("kiwi", "1");    // shard 1
  first.Put("zebra", "1");   // shard 3
  second.Put("kiwi", "2");   // shard 1
  second.Delete("zebra");    // shard 3
  second.Put("mango", "2");  // shard 2
  WriteBatch* batches[] = {&first, &empty, &second};
  Status statuses[3];
  db->WriteMany(WriteOptions(), batches, 3, statuses);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();

  ReadOptions ro;
  std::string value;
  ASSERT_TRUE(db->Get(ro, "apple", &value).ok());
  EXPECT_EQ("1", value);
  ASSERT_TRUE(db->Get(ro, "kiwi", &value).ok());
  EXPECT_EQ("2", value);
  ASSERT_TRUE(db->Get(ro, "mango", &value).ok());
  EXPECT_EQ("2", value);
  EXPECT_TRUE(db->Get(ro, "zebra", &value).IsNotFound());
}

// Each engine counts the entries of the write groups it commits
// (db.write_ops), so a fleet's per-shard write counts are the shards'
// own: every entry of a batch that crosses the seams counts once, on
// the shard it was routed to, and an unsharded DB counts the same way.
TEST(ShardedDB, EachShardCountsTheEntriesRoutedToIt) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> fleet = MustOpen(options, FourShards(), "/sdb");
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/single", &raw).ok());
  std::unique_ptr<DB> single(raw);

  // Boundaries f, m, s: a boundary key belongs to the shard above.
  const auto shard_of = [](const std::string& key) {
    return key < "f" ? 0 : key < "m" ? 1 : key < "s" ? 2 : 3;
  };
  uint64_t want[4] = {0, 0, 0, 0};
  uint64_t total = 0;
  std::srand(7);
  for (int call = 0; call < 20; call++) {
    std::vector<WriteBatch> batches(1 + std::rand() % 4);
    std::vector<WriteBatch*> ptrs;
    for (WriteBatch& b : batches) {
      const int entries = std::rand() % 6;  // some batches stay empty
      for (int e = 0; e < entries; e++) {
        const std::string key(1, static_cast<char>('a' + std::rand() % 26));
        if (std::rand() % 4 == 0) {
          b.Delete(key);
        } else {
          b.Put(key, "v");
        }
        want[shard_of(key)]++;
        total++;
      }
      ptrs.push_back(&b);
    }
    std::vector<Status> statuses(ptrs.size());
    fleet->WriteMany(WriteOptions(), ptrs.data(), ptrs.size(),
                     statuses.data());
    for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
    single->WriteMany(WriteOptions(), ptrs.data(), ptrs.size(),
                      statuses.data());
    for (const Status& st : statuses) ASSERT_TRUE(st.ok()) << st.ToString();
  }

  const auto write_ops = [](DB* db) {
    return db->MetricsHandle()->RegisterCounter("db.write_ops", "")->value();
  };
  for (size_t i = 0; i < 4; i++) {
    EXPECT_EQ(want[i], write_ops(fleet->shard(i))) << "shard " << i;
  }
  EXPECT_EQ(total, write_ops(single.get()));
  EXPECT_GT(want[0] * want[1] * want[2] * want[3], 0u);
}

TEST(ShardedDB, ScanWalksShardSeamsInBothDirections) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");

  // Two keys per shard, inserted in routed-shard-scrambled order.
  const std::vector<std::string> keys = {"aa", "ee", "ff", "kk",
                                         "mm", "pp", "ss", "zz"};
  WriteOptions wo;
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(db->Put(wo, keys[(3 * i) % keys.size()], "v").ok());
  }

  ReadOptions ro;
  std::unique_ptr<Iterator> it(db->NewIterator(ro));

  // Forward: global order is the concatenation of the shard ranges.
  std::vector<std::string> forward;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    forward.push_back(it->key().ToString());
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(keys, forward);

  // Seek lands past a shard's last key: the seam walk continues into
  // the next non-empty shard.
  it->Seek("kz");  // routes to shard 1, whose keys end at "kk"
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("mm", it->key().ToString());
  it->Prev();  // back across the seam
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("kk", it->key().ToString());

  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("zz", it->key().ToString());
  std::vector<std::string> backward;
  for (; it->Valid(); it->Prev()) backward.push_back(it->key().ToString());
  std::vector<std::string> reversed(keys.rbegin(), keys.rend());
  EXPECT_EQ(reversed, backward);
}

// Reverse iteration across EMPTY shards: SeekToLast with an empty last
// shard, Prev off the first entry of a shard whose predecessor is empty,
// and Seek past a shard's data followed by Prev — with both an empty
// middle shard and empty edge shards.
TEST(ShardedDB, ReverseIterationSkipsEmptyShards) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");

  // Shard 0 ["", f) and shard 2 [m, s) stay empty; shard 1 [f, m) and
  // shard 3 [s, inf) hold two keys each... then flip to empty edges.
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "ff", "v").ok());
  ASSERT_TRUE(db->Put(wo, "kk", "v").ok());
  ASSERT_TRUE(db->Put(wo, "ss", "v").ok());
  ASSERT_TRUE(db->Put(wo, "zz", "v").ok());

  ReadOptions ro;
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    // Full reverse walk crosses the empty middle shard (2) and stops
    // cleanly before the empty first shard (0).
    std::vector<std::string> backward;
    for (it->SeekToLast(); it->Valid(); it->Prev()) {
      backward.push_back(it->key().ToString());
    }
    EXPECT_EQ((std::vector<std::string>{"zz", "ss", "kk", "ff"}), backward);
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();

    // Prev off the first entry of shard 1 when shard 0 is empty: ends.
    it->Seek("ff");
    ASSERT_TRUE(it->Valid());
    it->Prev();
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok());

    // Seek past shard 1's data (lands in shard 3 across empty shard 2),
    // then Prev returns to shard 1's last key.
    it->Seek("kz");
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ("ss", it->key().ToString());
    it->Prev();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ("kk", it->key().ToString());
  }

  // Empty LAST shard: delete shard 3's keys; SeekToLast must fall back
  // across the seam to shard 1's last key.
  ASSERT_TRUE(db->Delete(wo, "ss").ok());
  ASSERT_TRUE(db->Delete(wo, "zz").ok());
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    it->SeekToLast();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ("kk", it->key().ToString());
    it->Prev();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ("ff", it->key().ToString());
    it->Prev();
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok());
  }

  // Every shard empty: both entry points terminate invalid, no error.
  ASSERT_TRUE(db->Delete(wo, "ff").ok());
  ASSERT_TRUE(db->Delete(wo, "kk").ok());
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    it->SeekToLast();
    EXPECT_FALSE(it->Valid());
    it->SeekToFirst();
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok());
  }
}

TEST(ShardedDB, SnapshotCoversEveryShard) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");

  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "apple", "old0").ok());
  ASSERT_TRUE(db->Put(wo, "mango", "old2").ok());
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put(wo, "apple", "new0").ok());
  ASSERT_TRUE(db->Put(wo, "mango", "new2").ok());

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db->Get(at_snap, "apple", &value).ok());
  EXPECT_EQ("old0", value);
  ASSERT_TRUE(db->Get(at_snap, "mango", &value).ok());
  EXPECT_EQ("old2", value);

  ReadOptions now;
  ASSERT_TRUE(db->Get(now, "apple", &value).ok());
  EXPECT_EQ("new0", value);
  db->ReleaseSnapshot(snap);
}

TEST(ShardedDB, ReopenAdoptsManifestAndRejectsDrift) {
  SimEnv env;
  Options options = BaseOptions(&env);
  {
    std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");
    WriteOptions wo;
    ASSERT_TRUE(db->Put(wo, "grape", "persisted").ok());
  }

  // Defaults (num_shards=1, no boundaries) adopt the SHARDS manifest.
  {
    ShardedOptions defaults;
    std::unique_ptr<ShardedDB> db = MustOpen(options, defaults, "/sdb");
    ASSERT_EQ(4u, db->num_shards());
    EXPECT_EQ((std::vector<std::string>{"f", "m", "s"}),
              db->router().boundaries());
    ReadOptions ro;
    std::string value;
    ASSERT_TRUE(db->Get(ro, "grape", &value).ok());
    EXPECT_EQ("persisted", value);
  }

  // Explicit boundaries that contradict the manifest are refused — a
  // config drift must not silently re-route keys.
  {
    ShardedOptions drifted;
    drifted.num_shards = 4;
    drifted.boundary_keys = {"d", "k", "q"};
    ShardedDB* raw = nullptr;
    Status s = ShardedDB::Open(options, drifted, "/sdb", &raw);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  }
  {
    ShardedOptions wrong_count;
    wrong_count.num_shards = 2;
    wrong_count.boundary_keys = {"m"};
    ShardedDB* raw = nullptr;
    Status s = ShardedDB::Open(options, wrong_count, "/sdb", &raw);
    ASSERT_FALSE(s.ok());
  }
}

TEST(ShardedDB, FirstOpenWithoutBoundariesIsAnError) {
  SimEnv env;
  Options options = BaseOptions(&env);
  ShardedOptions sharded;
  sharded.num_shards = 3;  // no boundary keys
  ShardedDB* raw = nullptr;
  Status s = ShardedDB::Open(options, sharded, "/fresh", &raw);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ShardedDB, PropertiesFanOutAcrossTheFleet) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "apple", "0").ok());
  ASSERT_TRUE(db->Put(wo, "zebra", "3").ok());

  std::string value;
  ASSERT_TRUE(db->GetProperty("pipelsm.shards", &value));
  EXPECT_NE(std::string::npos, value.find("\"num_shards\":4"));
  EXPECT_NE(std::string::npos, value.find("\"arbiter\":true"));

  ASSERT_TRUE(db->GetProperty("pipelsm.arbiter", &value));
  EXPECT_NE(std::string::npos, value.find("\"compute_workers\""));
  EXPECT_NE(std::string::npos, value.find("\"grants\""));

  // Per-shard forwarding: shard 3 answers its own engine properties.
  ASSERT_TRUE(db->GetProperty("pipelsm.shard3.num-files-at-level0", &value));

  // Numeric properties sum across shards (parseable as one number).
  ASSERT_TRUE(db->GetProperty("pipelsm.num-files-at-level0", &value));
  EXPECT_FALSE(value.empty());

  ASSERT_TRUE(db->GetProperty("pipelsm.stats", &value));
  EXPECT_NE(std::string::npos, value.find("== shard 0 =="));
  EXPECT_NE(std::string::npos, value.find("== shard 3 =="));

  // Metrics fan-out: the fleet registry plus one snapshot per shard.
  ASSERT_TRUE(db->GetProperty("pipelsm.metrics", &value));
  testjson::JsonValue metrics;
  ASSERT_TRUE(testjson::ParseJson(value, &metrics)) << value;
  ASSERT_NE(nullptr, metrics.Find("fleet"));
  EXPECT_NE(nullptr, metrics.Find("fleet")->Find("counters"));
  const testjson::JsonValue* shards = metrics.Find("shards");
  ASSERT_NE(nullptr, shards);
  ASSERT_EQ(4u, shards->array.size());
  for (const testjson::JsonValue& shard : shards->array) {
    EXPECT_NE(nullptr, shard.Find("counters"));
  }
}

// The fleet registry is what DB::MetricsHandle() hands embedding layers
// (the server registers server.* there), so pipelsm.metrics must show it.
TEST(ShardedDB, MetricsPropertyIncludesTheFleetRegistry) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");
  db->MetricsHandle()->RegisterCounter("server.test_total", "test")->Add(7);

  std::string value;
  ASSERT_TRUE(db->GetProperty("pipelsm.metrics", &value));
  testjson::JsonValue metrics;
  ASSERT_TRUE(testjson::ParseJson(value, &metrics)) << value;
  const testjson::JsonValue* fleet = metrics.Find("fleet");
  ASSERT_NE(nullptr, fleet);
  const testjson::JsonValue* counters = fleet->Find("counters");
  ASSERT_NE(nullptr, counters);
  ASSERT_NE(nullptr, counters->Find("server.test_total"));
  EXPECT_EQ(7, counters->Find("server.test_total")->number_value);
  EXPECT_NE(nullptr, counters->Find("cache.block.hits"));
}

// Boundary keys are arbitrary bytes; pipelsm.shards must stay valid JSON
// and carry each boundary back byte for byte.
TEST(ShardedDB, ShardsPropertyRoundTripsBinaryBoundaries) {
  SimEnv env;
  Options options = BaseOptions(&env);
  ShardedOptions sharded;
  sharded.num_shards = 2;
  const std::string boundary("k\n\x01\"\xff", 5);
  sharded.boundary_keys = {boundary};
  std::unique_ptr<ShardedDB> db = MustOpen(options, sharded, "/sdb");

  std::string value;
  ASSERT_TRUE(db->GetProperty("pipelsm.shards", &value));
  testjson::JsonValue shards;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(value, &shards, &error)) << error;
  const testjson::JsonValue* boundaries = shards.Find("boundaries");
  ASSERT_NE(nullptr, boundaries);
  ASSERT_EQ(1u, boundaries->array.size());
  EXPECT_EQ(boundary, boundaries->array[0].string_value);
}

ShardedOptions TwoShards() {
  ShardedOptions sharded;
  sharded.num_shards = 2;
  sharded.boundary_keys = {"m"};
  return sharded;
}

// The fleet's GetCompactionMetrics sums every field of its shards,
// including the write-amplification numerator.
TEST(ShardedDB, CompactionMetricsSumTheShards) {
  SimEnv env;
  Options options = BaseOptions(&env);
  std::unique_ptr<ShardedDB> db = MustOpen(options, TwoShards(), "/sdb");
  WriteOptions wo;
  for (int i = 0; i < 3000; i++) {
    const std::string key =
        std::string(1, static_cast<char>('a' + i % 26)) + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, std::string(100, 'v')).ok());
  }
  db->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db->WaitForCompactions().ok());

  const CompactionMetrics m = db->GetCompactionMetrics();
  ASSERT_GT(m.compaction_bytes_written, 0u);
  std::string metrics;
  ASSERT_TRUE(db->GetProperty("pipelsm.metrics", &metrics));
  const std::string needle = "\"compaction.bytes_written\":";
  uint64_t sum = 0;
  int shards = 0;
  for (size_t pos = metrics.find(needle); pos != std::string::npos;
       pos = metrics.find(needle, pos + 1)) {
    sum += std::strtoull(metrics.c_str() + pos + needle.size(), nullptr, 10);
    shards++;
  }
  EXPECT_EQ(2, shards);
  EXPECT_EQ(sum, m.compaction_bytes_written);
}

TEST(ShardedDB, ReopenKeepsThePreviousFleetLog) {
  SimEnv env;
  Options options = BaseOptions(&env);
  MustOpen(options, TwoShards(), "/sdb");  // first run: open and close
  std::unique_ptr<ShardedDB> db = MustOpen(options, ShardedOptions(), "/sdb");

  std::string old_log, log;
  ASSERT_TRUE(
      ReadFileToString(&env, OldInfoLogFileName("/sdb"), &old_log).ok());
  ASSERT_TRUE(ReadFileToString(&env, InfoLogFileName("/sdb"), &log).ok());
  EXPECT_NE(std::string::npos, old_log.find("EVENT sharded_open shards=2"));
  EXPECT_NE(std::string::npos, log.find("EVENT sharded_open shards=2"));
}

TEST(ShardedDB, ArbiterOffRunsAndReportsEmpty) {
  SimEnv env;
  Options options = BaseOptions(&env);
  ShardedOptions sharded = FourShards();
  sharded.enable_arbiter = false;
  std::unique_ptr<ShardedDB> db = MustOpen(options, sharded, "/sdb");
  WriteOptions wo;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        db->Put(wo, "k" + std::to_string(i), std::string(256, 'v')).ok());
  }
  ASSERT_TRUE(db->WaitForCompactions().ok());
  std::string value;
  ASSERT_TRUE(db->GetProperty("pipelsm.arbiter", &value));
  EXPECT_EQ("{}", value);
}

// Records the executor, k and provenance of every compaction any shard
// begins (listeners hear every shard, on the shards' own threads).
class JobListener : public obs::EventListener {
 public:
  struct Job {
    std::string executor;
    int compute_parallelism = 0;
    bool adaptive = false;
  };

  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back({info.executor, info.compute_parallelism, info.adaptive});
  }

  std::vector<Job> jobs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Job> jobs_;
};

// Fills both shards of a TwoShards() fleet until each has compacted.
void FillTwoShards(ShardedDB* db) {
  WriteOptions wo;
  for (int i = 0; i < 12000; i++) {
    const std::string key =
        std::string(1, static_cast<char>('a' + i % 26)) + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db->WaitForCompactions().ok());
}

// The "pipelsm.shard<N>.scheduler" payload, parsed.
testjson::JsonValue ShardScheduler(ShardedDB* db, int shard) {
  std::string json;
  EXPECT_TRUE(db->GetProperty(
      "pipelsm.shard" + std::to_string(shard) + ".scheduler", &json));
  testjson::JsonValue v;
  std::string err;
  EXPECT_TRUE(testjson::ParseJson(json, &v, &err)) << err << "\n" << json;
  return v;
}

// A fleet runs the engine's configuration: each shard's own scheduler
// chooses every job, so a static PCP fleet runs PCP on one worker from
// its first job (a cold shard's zero profile must not turn it into an
// adaptive SCP), and each shard's scheduler rules once per job it ran.
TEST(ShardedDB, StaticFleetRunsTheEngineConfiguration) {
  SimEnv env;
  Options options = BaseOptions(&env);
  options.compaction_mode = CompactionMode::kPCP;
  JobListener listener;
  options.listeners.push_back(&listener);
  uint64_t decisions[2] = {0, 0};
  {
    std::unique_ptr<ShardedDB> db = MustOpen(options, TwoShards(), "/sdb");
    FillTwoShards(db.get());
    for (int i = 0; i < 2; i++) {
      const testjson::JsonValue v = ShardScheduler(db.get(), i);
      EXPECT_FALSE(v.Find("adaptive")->bool_value);
      decisions[i] = static_cast<uint64_t>(v.Find("decisions")->number_value);
    }
  }  // closed: every job finished, every LOG complete

  const std::vector<JobListener::Job> jobs = listener.jobs();
  ASSERT_GE(jobs.size(), 2u);
  for (const JobListener::Job& job : jobs) {
    EXPECT_EQ("PCP", job.executor);
    EXPECT_EQ(1, job.compute_parallelism);
    EXPECT_FALSE(job.adaptive);
  }
  size_t begins_total = 0;
  for (int i = 0; i < 2; i++) {
    std::string log;
    ASSERT_TRUE(ReadFileToString(
                    &env, "/sdb/shard-000" + std::to_string(i) + "/LOG", &log)
                    .ok());
    uint64_t begins = 0;
    for (size_t pos = log.find("EVENT compaction_begin");
         pos != std::string::npos;
         pos = log.find("EVENT compaction_begin", pos + 1)) {
      begins++;
    }
    EXPECT_GT(begins, 0u) << "shard " << i;
    EXPECT_EQ(decisions[i], begins) << "shard " << i;
    begins_total += begins;
  }
  EXPECT_EQ(jobs.size(), begins_total);
}

// An adaptive fleet respects the engine's cap: with warm-up 0 every
// shard's scheduler prescribes from the first job, yet no job is granted
// more than Options::max_compute_workers, although the fleet budget (4)
// could give more, and the fleet never exceeds its budget.
TEST(ShardedDB, ArbiterGrantsRespectEngineParallelismCaps) {
  SimEnv env;
  Options options = BaseOptions(&env);
  options.adaptive_compaction = true;
  options.scheduler_warmup_jobs = 0;
  options.scheduler_hysteresis_jobs = 1;
  options.max_compute_workers = 2;
  JobListener listener;
  options.listeners.push_back(&listener);
  std::unique_ptr<ShardedDB> db = MustOpen(options, TwoShards(), "/sdb");
  ASSERT_NE(nullptr, db->arbiter());
  ASSERT_GE(db->arbiter()->compute_workers(), 4);
  FillTwoShards(db.get());

  const std::vector<JobListener::Job> jobs = listener.jobs();
  ASSERT_GE(jobs.size(), 2u);
  for (const JobListener::Job& job : jobs) {
    EXPECT_TRUE(job.adaptive);
    EXPECT_GE(job.compute_parallelism, 1);
    EXPECT_LE(job.compute_parallelism, 2);
  }
  for (int i = 0; i < 2; i++) {
    const testjson::JsonValue v = ShardScheduler(db.get(), i);
    EXPECT_TRUE(v.Find("adaptive")->bool_value);
    const testjson::JsonValue* bounds =
        v.Find("bounds")->Find("compute_workers");
    EXPECT_EQ(2, bounds->array[1].number_value);
  }
  EXPECT_LE(db->arbiter()->peak_workers(), db->arbiter()->compute_workers());
  EXPECT_EQ(jobs.size(), db->arbiter()->grants());
  EXPECT_EQ(0, db->arbiter()->workers_in_use());
}

// Crash-matrix variant: fault rules scoped to shard-0001's files kill
// that shard mid-write while its neighbors keep going; after a
// power-cycle every shard recovers its synced data independently.
TEST(ShardedDB, OneShardCrashRecoversPerShard) {
  SimEnv base;
  FaultInjectionEnv fault(&base);
  Options options = BaseOptions(&fault);
  options.write_buffer_size = 8 << 10;  // force flush/compaction traffic
  options.max_background_retries = 1;
  options.background_retry_backoff_micros = 100;
  options.background_retry_backoff_max_micros = 100;

  const std::vector<std::string> synced_keys = {"apple", "grape", "mango",
                                                "zebra"};  // one per shard
  {
    std::unique_ptr<ShardedDB> db = MustOpen(options, FourShards(), "/sdb");
    WriteOptions synced;
    synced.sync = true;
    for (const std::string& k : synced_keys) {
      ASSERT_TRUE(db->Put(synced, k, "durable-" + k).ok());
    }

    // Arm the crash on shard-0001's file appends only, then hammer all
    // shards until it fires (shard 1's WAL/flush/compaction writes all
    // match the path filter).
    fault.SetPathFilter(FaultOp::kAppend, "shard-0001");
    fault.CrashAfter(FaultOp::kAppend, 3);
    WriteOptions wo;
    for (int i = 0; i < 500 && !fault.crashed(); i++) {
      const std::string pad(512, 'x');
      (void)db->Put(wo, "aa" + std::to_string(i), pad);  // shard 0
      (void)db->Put(wo, "gg" + std::to_string(i), pad);  // shard 1
      (void)db->Put(wo, "nn" + std::to_string(i), pad);  // shard 2
      (void)db->Put(wo, "tt" + std::to_string(i), pad);  // shard 3
    }
    ASSERT_TRUE(fault.crashed());
  }

  // Power-cycle: drop everything unsynced, clear the rules, reopen.
  fault.ClearFaults();
  ASSERT_TRUE(fault.DropUnsyncedAndReset().ok());
  {
    ShardedOptions adopt;  // reopen from the manifest
    std::unique_ptr<ShardedDB> db = MustOpen(options, adopt, "/sdb");
    ASSERT_EQ(4u, db->num_shards());
    ReadOptions ro;
    std::string value;
    for (const std::string& k : synced_keys) {
      ASSERT_TRUE(db->Get(ro, k, &value).ok()) << k;
      EXPECT_EQ("durable-" + k, value);
    }
    // The crashed shard takes writes again.
    WriteOptions wo;
    ASSERT_TRUE(db->Put(wo, "golf", "post-recovery").ok());
    ASSERT_TRUE(db->Get(ro, "golf", &value).ok());
    EXPECT_EQ("post-recovery", value);
    ASSERT_TRUE(db->WaitForCompactions().ok());
  }
}

}  // namespace
}  // namespace pipelsm::shard
