// S4's heap merge (ComputeSubTask, src/compaction/steps.cc) on inputs the
// generated tables never contain: a block whose checksum is valid but
// which holds a key too short for its 8-byte tag, and a job over a dozen
// overlapping upper tables with deletions and many versions per key, where
// every executor must match per-block SCP byte for byte and report each
// dropped entry exactly once.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/compaction/executor.h"
#include "src/env/sim_env.h"
#include "src/table/table_builder.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

struct ExecCase {
  CompactionMode mode;
  int readers;
  int computers;
};

const ExecCase kCases[] = {
    {CompactionMode::kSCP, 1, 1},
    {CompactionMode::kPCP, 1, 1},
    {CompactionMode::kSPPCP, 3, 1},
    {CompactionMode::kCPPCP, 1, 3},
};

using Entries = std::vector<std::pair<std::string, std::string>>;

std::string UserKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

class MergeTest : public ::testing::Test {
 protected:
  MergeTest() : icmp_(BytewiseComparator()) { env_.CreateDir("/in"); }

  // Writes `entries` (internal key, value), in order, as one table and
  // opens it as the next input.
  void AddTable(const Entries& entries) {
    const std::string fname =
        "/in/t" + std::to_string(inputs_.size()) + ".pst";
    TableOptions topt;
    topt.comparator = &icmp_;
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile(fname, &file).ok());
    TableBuilder builder(topt, file.get());
    for (const auto& [key, value] : entries) builder.Add(key, value);
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
    uint64_t size;
    ASSERT_TRUE(env_.GetFileSize(fname, &size).ok());
    std::unique_ptr<RandomAccessFile> raf;
    ASSERT_TRUE(env_.NewRandomAccessFile(fname, &raf).ok());
    std::unique_ptr<Table> table;
    ASSERT_TRUE(Table::Open(topt, std::move(raf), size, &table).ok());
    inputs_.emplace_back(table.release());
  }

  CompactionJobOptions Job(const ExecCase& c) {
    CompactionJobOptions job;
    job.icmp = &icmp_;
    job.subtask_bytes = 16 << 10;
    job.max_output_file_size = 64 << 10;
    job.read_parallelism = c.readers;
    job.compute_parallelism = c.computers;
    return job;
  }

  // Runs one job into `dir`; returns the concatenated output tables.
  Status Run(const ExecCase& c, CompactionJobOptions job,
             const std::string& dir, std::string* out) {
    auto executor = NewCompactionExecutor(c.mode);
    CountingSink sink(&env_, dir);
    StepProfile profile;
    Status s = executor->Run(job, inputs_, &sink, &profile);
    if (!s.ok()) return s;
    out->clear();
    for (const OutputMeta& m : sink.outputs()) {
      std::string data;
      s = ReadFileToString(
          &env_, dir + "/out-" + std::to_string(m.file_number) + ".pst", &data);
      if (!s.ok()) return s;
      *out += data;
    }
    return Status::OK();
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
  std::vector<std::shared_ptr<Table>> inputs_;
};

// A key shorter than its tag passes S2 (the CRC covers whatever bytes the
// block holds), so S4 must reject it itself, without reading past it, and
// with another run to compare it against.
TEST_F(MergeTest, ShortKeyFailsEveryExecutor) {
  Entries crafted, normal;
  for (int i = 0; i < 400; i++) {
    std::string key = UserKey(i);
    AppendInternalKey(&key, ParsedInternalKey(key, 1000 + i, kTypeValue));
    crafted.emplace_back(key, "upper");
    if (i == 0) crafted.emplace_back("abc", "short");  // not a block's last
    std::string lower = UserKey(i);
    AppendInternalKey(&lower, ParsedInternalKey(lower, 1 + i, kTypeValue));
    normal.emplace_back(lower, "lower");
  }
  AddTable(crafted);
  AddTable(normal);

  for (const ExecCase& c : kCases) {
    const std::string dir =
        std::string("/out-short-") + CompactionModeName(c.mode);
    std::string out;
    Status s = Run(c, Job(c), dir, &out);
    EXPECT_TRUE(s.IsCorruption()) << dir << ": " << s.ToString();
  }
}

TEST_F(MergeTest, TwelveUpperTablesMatchPerBlockScpAndDropEachEntryOnce) {
  constexpr int kKeys = 3000;
  constexpr int kUpperTables = 12;
  std::mt19937 rng(301);
  // The reference: each user key's versions, newest first.
  std::map<std::string, std::vector<std::pair<SequenceNumber, ValueType>>>
      versions;
  SequenceNumber seq = 1;
  auto add = [&](Entries* table, int i, ValueType type) {
    const std::string user = UserKey(i);
    std::string key = user;
    AppendInternalKey(&key, ParsedInternalKey(user, seq, type));
    // Values name their entry, so each drop report is identifiable.
    table->emplace_back(key, user + "@" + std::to_string(seq));
    versions[user].insert(versions[user].begin(), {seq, type});
    seq++;
  };

  // Two lower tables splitting the key space, then twelve upper tables
  // that each span all of it.
  for (int half = 0; half < 2; half++) {
    Entries lower;
    for (int i = half * kKeys / 2; i < (half + 1) * kKeys / 2; i++) {
      add(&lower, i, kTypeValue);
    }
    AddTable(lower);
  }
  for (int t = 0; t < kUpperTables; t++) {
    Entries upper;
    for (int i = 0; i < kKeys; i++) {
      if (rng() % 3 != 0) continue;
      add(&upper, i, rng() % 5 == 0 ? kTypeDeletion : kTypeValue);
    }
    AddTable(upper);
  }

  // Nothing lies below and no snapshot is held: every version but the
  // newest is dropped, and so is a newest tombstone.
  std::map<std::string, int> want_drops;
  for (const auto& [user, vs] : versions) {
    for (size_t v = 0; v < vs.size(); v++) {
      if (v > 0 || vs[v].second == kTypeDeletion) {
        want_drops[user + "@" + std::to_string(vs[v].first)] = 1;
      }
    }
  }

  CompactionJobOptions per_block = Job(kCases[0]);
  per_block.coalesce_reads = false;
  std::string reference;
  ASSERT_TRUE(Run(kCases[0], per_block, "/per-block", &reference).ok());
  ASSERT_FALSE(reference.empty());

  for (const ExecCase& c : kCases) {
    const std::string dir = std::string("/out-") + CompactionModeName(c.mode);
    std::mutex mu;
    std::map<std::string, int> drops;
    CompactionJobOptions job = Job(c);
    job.on_drop_entry = [&](ValueType, const Slice& value) {
      std::lock_guard<std::mutex> lock(mu);
      drops[value.ToString()]++;
    };
    std::string got;
    ASSERT_TRUE(Run(c, job, dir, &got).ok()) << dir;
    EXPECT_TRUE(got == reference) << dir << " output differs";
    EXPECT_TRUE(drops == want_drops)
        << dir << ": " << drops.size() << " entries reported, "
        << want_drops.size() << " dropped";
  }
}

}  // namespace
}  // namespace pipelsm
