// VlogManager unit tests: frame encoding, segment rolling, torn-tail
// recovery, pointer bound checks, the value cache, the append-pending
// protocol that fences GC off segments with in-flight pointer commits,
// retirement pinning, and hostile segment bytes on every frame decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/db/filename.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/obs/metrics.h"
#include "src/read/cache.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/vlog/vlog.h"

namespace pipelsm {
namespace vlog {
namespace {

class VlogTest : public ::testing::Test {
 protected:
  VlogTest() { env_.CreateDir("/db"); }

  // Fresh manager over /db with its own monotonic number allocator.
  std::unique_ptr<VlogManager> NewManager(
      size_t segment_size = 1 << 20, read::Cache* cache = nullptr,
      obs::MetricsRegistry* metrics = nullptr) {
    VlogOptions opts;
    opts.segment_size = segment_size;
    opts.cache = cache;
    return std::unique_ptr<VlogManager>(new VlogManager(
        &env_, "/db", opts, metrics, nullptr, [this] { return next_++; }));
  }

  // Recover + open the first active segment, asserting success.
  void Start(VlogManager* vlog) {
    uint64_t max_recovered = 0;
    ASSERT_TRUE(vlog->Recover(&max_recovered).ok());
    if (max_recovered >= next_) next_ = max_recovered + 1;
    ASSERT_TRUE(vlog->OpenActive(next_++).ok());
  }

  std::set<std::string> VlogFilesOnDisk() {
    std::vector<std::string> children;
    env_.GetChildren("/db", &children);
    std::set<std::string> out;
    for (const std::string& c : children) {
      if (c.size() > 5 && c.compare(c.size() - 5, 5, ".vlog") == 0) {
        out.insert(c);
      }
    }
    return out;
  }

  SimEnv env_;
  uint64_t next_ = 1;
};

TEST_F(VlogTest, ValueLocationRoundTrip) {
  ValueLocation loc;
  loc.segment = 42;
  loc.offset = 123456789;
  loc.length = 4096;
  std::string encoded;
  EncodeValueLocation(&encoded, loc);
  EXPECT_EQ(kValueLocationSize, encoded.size());

  ValueLocation decoded;
  ASSERT_TRUE(DecodeValueLocation(Slice(encoded), &decoded));
  EXPECT_TRUE(decoded == loc);

  // Wrong length is rejected, not misparsed.
  EXPECT_FALSE(DecodeValueLocation(Slice(encoded.data(), 19), &decoded));
  encoded.push_back('x');
  EXPECT_FALSE(DecodeValueLocation(Slice(encoded), &decoded));
}

TEST_F(VlogTest, AddSyncReadRoundTrip) {
  auto vlog = NewManager();
  Start(vlog.get());

  std::vector<ValueLocation> locs(3);
  ASSERT_TRUE(vlog->Add("a", std::string(100, 'A'), &locs[0]).ok());
  ASSERT_TRUE(vlog->Add("b", std::string(5000, 'B'), &locs[1]).ok());
  ASSERT_TRUE(vlog->Add("c", "tiny", &locs[2]).ok());
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends(
      {locs[0].segment, locs[1].segment, locs[2].segment});

  std::string value;
  ASSERT_TRUE(vlog->Read(locs[0], &value).ok());
  EXPECT_EQ(std::string(100, 'A'), value);
  ASSERT_TRUE(vlog->Read(locs[1], &value).ok());
  EXPECT_EQ(std::string(5000, 'B'), value);
  ASSERT_TRUE(vlog->Read(locs[2], &value).ok());
  EXPECT_EQ("tiny", value);

  // A bogus offset inside a real segment must fail CRC, not crash.
  ValueLocation bogus = locs[1];
  bogus.offset += 1;
  EXPECT_FALSE(vlog->Read(bogus, &value).ok());
}

// A pointer comes from an SSTable: Read bounds it by its segment's size
// before it can size an allocation or reach the cache, in the active
// segment and in a sealed one.
TEST_F(VlogTest, OutOfBoundsPointersAreCorruption) {
  obs::MetricsRegistry metrics;
  auto cache = read::NewShardedLRUCache(1 << 20);
  auto vlog = NewManager(1 << 20, cache.get(), &metrics);
  Start(vlog.get());
  ValueLocation loc;
  ASSERT_TRUE(vlog->Add("k", std::string(100, 'v'), &loc).ok());
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends({loc.segment});

  for (const bool sealed : {false, true}) {
    SCOPED_TRACE(sealed ? "sealed" : "active");
    if (sealed) {
      ASSERT_TRUE(vlog->RollActive().ok());
    }
    ValueLocation huge = loc;
    huge.length = 0xFFFFFFFF;
    ValueLocation past_end = loc;
    past_end.offset = loc.offset + loc.length + 1;
    ValueLocation wraps = loc;  // offset + length overflows to a small sum
    wraps.offset = ~uint64_t{0} - 10;
    wraps.length = 100;
    for (const ValueLocation& bad : {huge, past_end, wraps}) {
      std::string value;
      EXPECT_TRUE(vlog->Read(bad, &value).IsCorruption());
    }
  }
  EXPECT_EQ(6u, metrics.RegisterCounter("vlog.resolve_errors", "")->value());
  EXPECT_EQ(0u, cache->usage()) << "a bad pointer never fills the cache";
  std::string value;
  ASSERT_TRUE(vlog->Read(loc, &value).ok());
  EXPECT_EQ(std::string(100, 'v'), value);
}

// Reads and CacheValue fill the cache; a hit serves the bytes a device
// read returns; fill_cache=false inserts nothing, and GC retirement
// erases exactly the retired segment's values.
TEST_F(VlogTest, ValueCacheFillsServesAndErases) {
  obs::MetricsRegistry metrics;
  auto cache = read::NewShardedLRUCache(1 << 20);
  auto vlog = NewManager(1 << 20, cache.get(), &metrics);
  Start(vlog.get());
  auto hits = [&] {
    return metrics.RegisterCounter("vlog.resolve_cache_hits", "")->value();
  };
  std::vector<ValueLocation> locs(3);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(vlog->Add("k" + std::to_string(i), std::string(500, 'a' + i),
                          &locs[i])
                    .ok());
  }
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends({locs[0].segment, locs[1].segment, locs[2].segment});

  // Nothing was read yet, so the write path does not fill.
  vlog->CacheValue(locs[0], std::string(500, 'a'));
  EXPECT_EQ(0u, cache->usage());

  std::string device, cached;
  ASSERT_TRUE(vlog->Read(locs[0], &device, /*fill_cache=*/false).ok());
  EXPECT_EQ(0u, cache->usage());
  ASSERT_TRUE(vlog->Read(locs[0], &device).ok());
  EXPECT_GT(cache->usage(), 500u);
  EXPECT_EQ(0u, hits());
  ASSERT_TRUE(vlog->Read(locs[0], &cached).ok());
  EXPECT_EQ(1u, hits());
  EXPECT_EQ(device, cached);

  // After a read, the write path fills: the next read is a hit.
  vlog->CacheValue(locs[1], std::string(500, 'b'));
  ASSERT_TRUE(vlog->Read(locs[1], &cached).ok());
  EXPECT_EQ(2u, hits());
  EXPECT_EQ(std::string(500, 'b'), cached);

  // The write path keeps filling after a roll: the first read turned it
  // on for good.
  const uint64_t segment = locs[0].segment;
  ASSERT_TRUE(vlog->RollActive().ok());
  const size_t old_segment_usage = cache->usage();
  ValueLocation fresh;
  ASSERT_TRUE(vlog->Add("k3", std::string(500, 'd'), &fresh).ok());
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends({fresh.segment});
  ASSERT_NE(segment, fresh.segment);
  vlog->CacheValue(fresh, std::string(500, 'd'));
  const size_t fresh_usage = cache->usage() - old_segment_usage;
  EXPECT_GT(fresh_usage, 500u);
  ASSERT_TRUE(vlog->Read(fresh, &cached).ok());
  EXPECT_EQ(3u, hits());
  EXPECT_EQ(std::string(500, 'd'), cached);

  // Retiring the segment erases its values, and only its values.
  ASSERT_TRUE(vlog->BeginGc(segment));
  vlog->FinishGc(segment, /*retire=*/true, 0);
  vlog->SweepRetired(kMaxSequenceNumber);
  EXPECT_EQ(fresh_usage, cache->usage());
}

// A value larger than one shard's capacity slice is not cached, by a
// read or by the write path: the cache never evicts the entry it just
// inserted, so it would empty the shard of its other entries.
TEST_F(VlogTest, OversizedValueLeavesCacheEntriesInPlace) {
  obs::MetricsRegistry metrics;
  auto cache = read::NewShardedLRUCache(64 << 10, /*num_shards=*/1);
  auto vlog = NewManager(1 << 20, cache.get(), &metrics);
  Start(vlog.get());
  auto hits = [&] {
    return metrics.RegisterCounter("vlog.resolve_cache_hits", "")->value();
  };
  ValueLocation small, big;
  const std::string big_value(100 << 10, 'B');
  ASSERT_TRUE(vlog->Add("s", std::string(500, 's'), &small).ok());
  ASSERT_TRUE(vlog->Add("b", big_value, &big).ok());
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends({small.segment, big.segment});

  std::string value;
  ASSERT_TRUE(vlog->Read(small, &value).ok());
  const size_t usage = cache->usage();
  ASSERT_GT(usage, 500u);

  vlog->CacheValue(big, big_value);
  EXPECT_EQ(usage, cache->usage());
  for (int i = 0; i < 2; i++) {
    ASSERT_TRUE(vlog->Read(big, &value).ok());
    EXPECT_EQ(big_value, value);
  }
  EXPECT_EQ(usage, cache->usage());
  EXPECT_EQ(0u, hits()) << "the big value is always read from the device";

  ASSERT_TRUE(vlog->Read(small, &value).ok());
  EXPECT_EQ(1u, hits()) << "the small value was not evicted";
  EXPECT_EQ(std::string(500, 's'), value);
}

TEST_F(VlogTest, RollsActiveSegmentWhenFull) {
  auto vlog = NewManager(/*segment_size=*/4096);
  Start(vlog.get());

  std::set<uint64_t> segments;
  std::vector<ValueLocation> locs(8);
  std::vector<uint64_t> touched;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(vlog->Add("k" + std::to_string(i), std::string(2000, 'v'),
                          &locs[i])
                    .ok());
    segments.insert(locs[i].segment);
    touched.push_back(locs[i].segment);
  }
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends(touched);
  EXPECT_GT(segments.size(), 2u);

  // Every frame still resolves after its segment was sealed.
  for (int i = 0; i < 8; i++) {
    std::string value;
    ASSERT_TRUE(vlog->Read(locs[i], &value).ok()) << i;
    EXPECT_EQ(std::string(2000, 'v'), value);
  }
}

// A segment sealed with unsynced frames whose sync failed may never make
// them durable, so no later Sync() may succeed: it would let a WAL sync
// make pointers to those frames durable. A failed seal sync with every
// frame already synced loses nothing.
TEST_F(VlogTest, FailedSealSyncOfUnsyncedFramesFailsEverySync) {
  FaultInjectionEnv fault(&env_);
  VlogManager vlog(&fault, "/db", VlogOptions(), nullptr, nullptr,
                   [this] { return next_++; });
  uint64_t max_recovered = 0;
  ASSERT_TRUE(vlog.Recover(&max_recovered).ok());
  ASSERT_TRUE(vlog.OpenActive(next_++).ok());
  ValueLocation loc;
  fault.SetPathFilter(FaultOp::kSync, ".vlog");

  ASSERT_TRUE(vlog.Add("synced", "v1", &loc).ok());
  ASSERT_TRUE(vlog.Sync().ok());
  fault.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(vlog.RollActive().ok());
  ASSERT_TRUE(vlog.Add("after", "v2", &loc).ok());
  EXPECT_TRUE(vlog.Sync().ok());

  ASSERT_TRUE(vlog.Add("unsynced", "v3", &loc).ok());
  fault.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(vlog.RollActive().ok());
  ASSERT_TRUE(vlog.Add("later", "v4", &loc).ok());
  EXPECT_FALSE(vlog.Sync().ok());
  EXPECT_FALSE(vlog.Sync().ok());
}

// A failed sync of frames whose pointers are not acked yet can be
// retried: their callers drop those pointers. Once an unsynced frame's
// pointer was acked, a failed sync makes every later Sync() fail: a
// retried fsync can report success for pages the failed one dropped, and
// a WAL sync after it would make the acked pointer durable without its
// frame.
TEST_F(VlogTest, FailedSyncOfAnAckedFrameFailsEverySync) {
  FaultInjectionEnv fault(&env_);
  VlogManager vlog(&fault, "/db", VlogOptions(), nullptr, nullptr,
                   [this] { return next_++; });
  uint64_t max_recovered = 0;
  ASSERT_TRUE(vlog.Recover(&max_recovered).ok());
  ASSERT_TRUE(vlog.OpenActive(next_++).ok());
  ValueLocation loc;
  fault.SetPathFilter(FaultOp::kSync, ".vlog");

  ASSERT_TRUE(vlog.Add("own", "v1", &loc).ok());
  fault.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(vlog.Sync().ok());
  EXPECT_TRUE(vlog.Sync().ok());

  // A seal's sync makes the acked frame durable, like Sync() does.
  ASSERT_TRUE(vlog.Add("acked", "v2", &loc, /*acked_unsynced=*/true).ok());
  ASSERT_TRUE(vlog.RollActive().ok());
  ASSERT_TRUE(vlog.Add("own", "v2", &loc).ok());
  fault.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(vlog.Sync().ok());
  EXPECT_TRUE(vlog.Sync().ok());

  ASSERT_TRUE(vlog.Add("acked", "v2", &loc, /*acked_unsynced=*/true).ok());
  ASSERT_TRUE(vlog.Sync().ok());
  ASSERT_TRUE(vlog.Add("acked", "v3", &loc, /*acked_unsynced=*/true).ok());
  ASSERT_TRUE(vlog.Add("own", "v4", &loc).ok());
  fault.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(vlog.Sync().ok());
  EXPECT_FALSE(vlog.Sync().ok());
  ASSERT_TRUE(vlog.Add("later", "v5", &loc).ok());
  EXPECT_FALSE(vlog.Sync().ok());
}

// Two callers share the active segment: A (a synced write group)
// appends, then B (GC) appends and its sync fails. A retried fsync can
// report success for pages the failed one dropped, so A's Sync, given
// the failure count A read before its first Add, fails too. A caller
// whose first Add follows the failure syncs as before.
TEST_F(VlogTest, FailedSyncOfAnotherCallerFailsEarlierCallersSync) {
  FaultInjectionEnv fault(&env_);
  VlogManager vlog(&fault, "/db", VlogOptions(), nullptr, nullptr,
                   [this] { return next_++; });
  uint64_t max_recovered = 0;
  ASSERT_TRUE(vlog.Recover(&max_recovered).ok());
  ASSERT_TRUE(vlog.OpenActive(next_++).ok());
  ValueLocation loc;
  fault.SetPathFilter(FaultOp::kSync, ".vlog");

  const uint64_t a_failures = vlog.sync_failures();
  ASSERT_TRUE(vlog.Add("a", "group frame", &loc).ok());
  const uint64_t b_failures = vlog.sync_failures();
  ASSERT_TRUE(vlog.Add("b", "gc frame", &loc).ok());
  fault.FailAfter(FaultOp::kSync, 1);
  EXPECT_FALSE(vlog.Sync(b_failures).ok());
  EXPECT_FALSE(vlog.Sync(a_failures).ok());
  EXPECT_FALSE(vlog.Sync(a_failures).ok());

  const uint64_t c_failures = vlog.sync_failures();
  ASSERT_TRUE(vlog.Add("c", "later frame", &loc).ok());
  EXPECT_TRUE(vlog.Sync(c_failures).ok());
}

TEST_F(VlogTest, RecoverKeepsValidFramesAndTruncatesTornTail) {
  std::vector<ValueLocation> locs(2);
  {
    auto vlog = NewManager();
    Start(vlog.get());
    ASSERT_TRUE(vlog->Add("a", std::string(500, 'A'), &locs[0]).ok());
    ASSERT_TRUE(vlog->Add("b", std::string(500, 'B'), &locs[1]).ok());
    ASSERT_TRUE(vlog->Sync().ok());
    vlog->ReleaseAppends({locs[0].segment, locs[1].segment});
  }

  // Simulate a torn append: garbage bytes after the last whole frame.
  const std::string path = VlogFileName("/db", locs[0].segment);
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, path, &data).ok());
  const size_t valid_size = data.size();
  data.append("torn-tail-garbage");
  ASSERT_TRUE(env_.RemoveFile(path).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, data, path, true).ok());

  auto vlog = NewManager();
  Start(vlog.get());
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(path, &size).ok());
  EXPECT_EQ(valid_size, size);  // tail gone, frames kept
  std::string value;
  ASSERT_TRUE(vlog->Read(locs[0], &value).ok());
  EXPECT_EQ(std::string(500, 'A'), value);
  ASSERT_TRUE(vlog->Read(locs[1], &value).ok());
  EXPECT_EQ(std::string(500, 'B'), value);
}

TEST_F(VlogTest, RecoverRemovesGarbageOnlySegments) {
  ASSERT_TRUE(
      WriteStringToFile(&env_, "not a frame", VlogFileName("/db", 7), true)
          .ok());
  auto vlog = NewManager();
  Start(vlog.get());
  EXPECT_EQ(0u, VlogFilesOnDisk().count("000007.vlog"));
}

TEST_F(VlogTest, AppendPendingFencesGcUntilReleased) {
  auto vlog = NewManager();
  Start(vlog.get());

  ValueLocation loc;
  ASSERT_TRUE(vlog->Add("k", std::string(100, 'v'), &loc).ok());
  ASSERT_TRUE(vlog->Sync().ok());
  const uint64_t segment = loc.segment;

  // Seal it so it is GC-eligible by state — but the pointer commit is
  // still in flight (no ReleaseAppends yet), so BeginGc must refuse.
  ASSERT_TRUE(vlog->RollActive().ok());
  EXPECT_FALSE(vlog->BeginGc(segment));

  vlog->ReleaseAppends({segment});
  EXPECT_TRUE(vlog->BeginGc(segment));
  vlog->FinishGc(segment, false, 0);
}

TEST_F(VlogTest, DiscardCreditsDriveGcSelection) {
  auto vlog = NewManager(1 << 20);
  Start(vlog.get());

  std::vector<ValueLocation> locs(4);
  std::vector<uint64_t> touched;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
        vlog->Add("k" + std::to_string(i), std::string(1000, 'v'), &locs[i])
            .ok());
    touched.push_back(locs[i].segment);
  }
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends(touched);
  ASSERT_TRUE(vlog->RollActive().ok());
  EXPECT_FALSE(vlog->NeedsGc());

  // Credit 3 of 4 frames dead: 75% > 50% ratio.
  for (int i = 0; i < 3; i++) {
    std::string encoded;
    EncodeValueLocation(&encoded, locs[i]);
    vlog->CreditDiscard(Slice(encoded));
  }
  EXPECT_TRUE(vlog->NeedsGc());
  uint64_t segment = 0;
  ASSERT_TRUE(vlog->PickGcSegment(&segment));
  EXPECT_EQ(locs[0].segment, segment);
}

TEST_F(VlogTest, ScanSegmentYieldsEveryFrameWithItsLocation) {
  auto vlog = NewManager();
  Start(vlog.get());

  std::vector<ValueLocation> locs(3);
  std::vector<uint64_t> touched;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(
        vlog->Add("key" + std::to_string(i), "value" + std::to_string(i),
                  &locs[i])
            .ok());
    touched.push_back(locs[i].segment);
  }
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends(touched);
  const uint64_t segment = locs[0].segment;
  ASSERT_TRUE(vlog->RollActive().ok());
  ASSERT_TRUE(vlog->BeginGc(segment));

  int i = 0;
  Status s = vlog->ScanSegment(
      segment, [&](const Slice& key, const Slice& value,
                   const ValueLocation& loc) -> Status {
        EXPECT_EQ("key" + std::to_string(i), key.ToString());
        EXPECT_EQ("value" + std::to_string(i), value.ToString());
        EXPECT_TRUE(loc == locs[i]);
        i++;
        return Status::OK();
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(3, i);
  vlog->FinishGc(segment, false, 0);
}

TEST_F(VlogTest, RetiredSegmentWaitsForPinnedReaders) {
  auto vlog = NewManager();
  Start(vlog.get());

  ValueLocation loc;
  ASSERT_TRUE(vlog->Add("k", std::string(64, 'v'), &loc).ok());
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends({loc.segment});
  ASSERT_TRUE(vlog->RollActive().ok());

  ASSERT_TRUE(vlog->BeginGc(loc.segment));
  vlog->FinishGc(loc.segment, /*retire=*/true, /*retire_seq=*/100);
  EXPECT_EQ(1u, vlog->pending_retire_count());

  // A reader pinned at seq 50 (< 100) still holds the file alive.
  vlog->SweepRetired(/*min_pinned=*/50);
  EXPECT_EQ(1u, vlog->pending_retire_count());
  const std::string path = VlogFileName("/db", loc.segment);
  EXPECT_TRUE(env_.FileExists(path));

  vlog->SweepRetired(/*min_pinned=*/100);
  EXPECT_EQ(0u, vlog->pending_retire_count());
  EXPECT_FALSE(env_.FileExists(path));
  EXPECT_EQ(1u, vlog->segments_retired());
}

TEST_F(VlogTest, ToJsonListsSegments) {
  auto vlog = NewManager();
  Start(vlog.get());
  ValueLocation loc;
  ASSERT_TRUE(vlog->Add("k", std::string(64, 'v'), &loc).ok());
  ASSERT_TRUE(vlog->Sync().ok());
  vlog->ReleaseAppends({loc.segment});

  const std::string json = vlog->ToJson();
  EXPECT_NE(std::string::npos, json.find("\"active_segment\""));
  EXPECT_NE(std::string::npos, json.find("\"segments\""));
  EXPECT_NE(std::string::npos, json.find("\"dead_bytes\""));
}

// ---------------------------------------------------------------------
// Hostile frames. A valid segment with bit flips, truncations or lying
// varint lengths goes through the three frame decoders: Read on a sealed
// segment whose bytes changed under it, GC's ScanSegment, and the
// recovery scan. Each must return Corruption (NotFound once recovery has
// dropped the segment) or stop at the last good frame, and never read
// past the segment; the ASan job runs this suite.
// ---------------------------------------------------------------------

class VlogHostileTest : public VlogTest {
 protected:
  struct Frame {
    std::string key;
    std::string value;
    ValueLocation loc;
  };

  // Writes one segment of frames with 1-20 byte keys and 0-300 byte
  // values (one- and two-byte varints) and keeps its bytes.
  void WriteGolden(Random* rnd) {
    auto vlog = NewManager();
    Start(vlog.get());
    std::vector<uint64_t> touched;
    for (int i = 0; i < 16; i++) {
      Frame f;
      for (uint32_t n = 1 + rnd->Uniform(20); n > 0; n--) {
        f.key.push_back(static_cast<char>('a' + rnd->Uniform(26)));
      }
      for (uint32_t n = rnd->Uniform(301); n > 0; n--) {
        f.value.push_back(static_cast<char>(rnd->Uniform(256)));
      }
      ASSERT_TRUE(vlog->Add(f.key, f.value, &f.loc).ok());
      touched.push_back(f.loc.segment);
      frames_.push_back(f);
    }
    ASSERT_TRUE(vlog->Sync().ok());
    vlog->ReleaseAppends(touched);
    vlog.reset();
    path_ = VlogFileName("/db", frames_[0].loc.segment);
    ASSERT_TRUE(ReadFileToString(&env_, path_, &golden_).ok());
  }

  // Rewrites frame `f`'s header with `varints` claiming `claimed` key +
  // value bytes. The CRC covers the new varints and the claimed bytes the
  // segment holds, so a lie that fits in the segment passes the CRC.
  std::string Lie(const Frame& f, const std::string& varints,
                  uint64_t claimed) const {
    const size_t header = 4 + VarintLength(f.key.size()) +
                          VarintLength(f.value.size());
    const std::string rest = golden_.substr(f.loc.offset + header);
    const std::string covered =
        varints + rest.substr(0, std::min<uint64_t>(claimed, rest.size()));
    std::string crc(4, '\0');
    EncodeFixed32(crc.data(),
                  crc32c::Mask(crc32c::Value(covered.data(), covered.size())));
    return golden_.substr(0, f.loc.offset) + crc + varints + rest;
  }

  // One seeded mutation of the golden segment. Sets *first_changed to the
  // first byte offset that may differ from the golden one.
  std::string Mutate(Random* rnd, int kind, uint64_t* first_changed) const {
    std::string bytes = golden_;
    if (kind == 0) {  // bit flips
      *first_changed = bytes.size();
      for (uint32_t n = 1 + rnd->Uniform(3); n > 0; n--) {
        const uint64_t pos = rnd->Uniform(bytes.size());
        bytes[pos] ^= static_cast<char>(1 << rnd->Uniform(8));
        *first_changed = std::min(*first_changed, pos);
      }
      return bytes;
    }
    if (kind == 1) {  // truncation
      *first_changed = rnd->Uniform(bytes.size());
      bytes.resize(*first_changed);
      return bytes;
    }
    const Frame& f = frames_[rnd->Uniform(frames_.size())];
    *first_changed = f.loc.offset;
    const uint64_t klen = f.key.size();
    const uint64_t vlen = f.value.size();
    const uint64_t after = golden_.size() - (f.loc.offset + f.loc.length);
    std::string varints;
    uint64_t claimed = 0;
    switch (rnd->Uniform(5)) {
      case 0:  // a key longer than any segment
        PutVarint32(&varints, 0xFFFFFFFFu);
        PutVarint32(&varints, static_cast<uint32_t>(vlen));
        claimed = 0xFFFFFFFFu + vlen;
        break;
      case 1:  // lengths whose 32-bit sum wraps to 0
        PutVarint32(&varints, 0x80000000u);
        PutVarint32(&varints, 0x80000000u);
        claimed = uint64_t{1} << 32;
        break;
      case 2: {  // shorter than the frame, CRC-consistent
        claimed = rnd->Uniform(klen + vlen);
        const uint64_t k = std::min(klen, claimed);
        PutVarint32(&varints, static_cast<uint32_t>(k));
        PutVarint32(&varints, static_cast<uint32_t>(claimed - k));
        break;
      }
      case 3: {  // longer, swallowing later frames when any follow
        const uint64_t extra = 1 + rnd->Uniform(after + 1);
        claimed = klen + vlen + extra;
        PutVarint32(&varints, static_cast<uint32_t>(klen));
        PutVarint32(&varints, static_cast<uint32_t>(vlen + extra));
        break;
      }
      default:  // a varint that never terminates
        varints = "\xff\xff\xff\xff\xff";
        PutVarint32(&varints, static_cast<uint32_t>(vlen));
        claimed = vlen;
        break;
    }
    return Lie(f, varints, claimed);
  }

  // Reads every frame back: one wholly before `first_changed` must come
  // back right; any other may only come back right or fail as corrupt
  // or unknown.
  void ExpectReadback(VlogManager* vlog, uint64_t first_changed) {
    for (const Frame& f : frames_) {
      std::string value;
      Status s = vlog->Read(f.loc, &value, false);
      if (f.loc.offset + f.loc.length <= first_changed) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(f.value, value);
      } else if (s.ok()) {
        EXPECT_EQ(f.value, value);
      } else {
        EXPECT_TRUE(s.IsCorruption() || s.IsNotFound()) << s.ToString();
      }
    }
  }

  void RemoveVlogFiles() {
    for (const std::string& name : VlogFilesOnDisk()) {
      ASSERT_TRUE(env_.RemoveFile("/db/" + name).ok());
    }
  }

  std::vector<Frame> frames_;
  std::string path_;
  std::string golden_;
};

TEST_F(VlogHostileTest, CorruptSegmentsFailCleanlyOnEveryDecoder) {
  Random rnd(2024);
  WriteGolden(&rnd);
  const uint64_t segment = frames_[0].loc.segment;
  for (int iter = 0; iter < 300; iter++) {
    const int kind = iter % 3;
    SCOPED_TRACE("iteration " + std::to_string(iter) + " kind " +
                 std::to_string(kind));
    uint64_t first_changed = 0;
    const std::string bytes = Mutate(&rnd, kind, &first_changed);
    uint64_t intact_bytes = 0;
    size_t intact_frames = 0;
    for (const Frame& f : frames_) {
      if (f.loc.offset + f.loc.length > first_changed) break;
      intact_bytes += f.loc.length;
      intact_frames++;
    }

    // A manager that recovered the golden segment sees its bytes change.
    RemoveVlogFiles();
    ASSERT_TRUE(WriteStringToFile(&env_, golden_, path_, true).ok());
    auto sealed = NewManager();
    Start(sealed.get());
    ASSERT_TRUE(env_.RemoveFile(path_).ok());
    ASSERT_TRUE(WriteStringToFile(&env_, bytes, path_, true).ok());
    ExpectReadback(sealed.get(), first_changed);

    ASSERT_TRUE(sealed->BeginGc(segment));
    size_t scanned = 0;
    Status s = sealed->ScanSegment(
        segment, [&](const Slice& key, const Slice& value,
                     const ValueLocation& loc) -> Status {
          EXPECT_LE(loc.offset + loc.length, golden_.size());
          if (loc.offset + loc.length <= first_changed) {
            EXPECT_TRUE(loc == frames_[scanned].loc);
            EXPECT_EQ(frames_[scanned].key, key.ToString());
            EXPECT_EQ(frames_[scanned].value, value.ToString());
          }
          scanned++;
          return Status::OK();
        });
    EXPECT_TRUE(s.ok() || s.IsCorruption()) << s.ToString();
    if (bytes.size() >= golden_.size()) {
      EXPECT_GE(scanned, intact_frames);  // stops at a bad frame, not before
    }
    sealed->FinishGc(segment, false, 0);
    sealed.reset();

    // Recovery keeps the intact prefix and drops or truncates the rest.
    auto recovered = NewManager();
    Start(recovered.get());
    uint64_t size = 0;
    if (env_.GetFileSize(path_, &size).ok()) {
      EXPECT_GE(size, intact_bytes);
      EXPECT_LE(size, bytes.size());
    } else {
      EXPECT_EQ(0u, intact_bytes);
    }
    ExpectReadback(recovered.get(), first_changed);
  }
}

}  // namespace
}  // namespace vlog
}  // namespace pipelsm
