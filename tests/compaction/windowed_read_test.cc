// S1's windowed reader (WindowedReader, src/compaction/steps.h) on jobs
// whose inputs overlap heavily: six upper tables that each span the whole
// key range over four lower tables, so every sub-task lists blocks from
// at least seven tables. The window must not change a byte of output,
// must read each planned byte once with one reader in window-sized I/Os
// (the sub-task, or a full device stripe when the job asks for one), and
// must leave S2's checksum and the error paths intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/compaction/executor.h"
#include "src/compaction/planner.h"
#include "src/compaction/steps.h"
#include "src/db/db.h"
#include "src/db/filename.h"
#include "src/env/fault_env.h"
#include "src/env/sim_env.h"
#include "src/obs/event_listener.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

constexpr int kUpperTables = 6;
constexpr int kLowerTables = 4;
constexpr size_t kSubtaskBytes = 64 << 10;

struct ExecCase {
  CompactionMode mode;
  int readers;
  int computers;
};

const ExecCase kScp{CompactionMode::kSCP, 1, 1};
const ExecCase kPcp{CompactionMode::kPCP, 1, 1};
const ExecCase kCases[] = {
    kScp,
    kPcp,
    {CompactionMode::kSPPCP, 4, 1},
    {CompactionMode::kCPPCP, 1, 2},
};

std::string CaseDir(const char* prefix, const ExecCase& c) {
  return std::string(prefix) + CompactionModeName(c.mode) + "-r" +
         std::to_string(c.readers) + "-c" + std::to_string(c.computers);
}

// Stored bytes each table contributes to `plan`, each block counted once.
std::map<int, uint64_t> PlannedBytesPerTable(const CompactionPlan& plan) {
  std::map<int, uint64_t> per_table;
  std::set<std::pair<int, uint64_t>> seen;
  for (const SubTaskPlan& p : plan.subtasks) {
    for (const BlockRead& br : p.blocks) {
      if (seen.insert({br.table_index, br.handle.offset()}).second) {
        per_table[br.table_index] += br.handle.size() + kBlockTrailerSize;
      }
    }
  }
  return per_table;
}

// The most device reads a single reader may issue for `plan` in windows
// of `window` bytes with the job's min_read_bytes = `min_read`. Each read
// but a table's last covers a window and leaves at least `min_read`
// bytes behind it, so a table of `bytes` planned bytes takes at most
// (bytes - min_read) / window + 1 reads, never more than
// ceil(bytes / window) + 1.
uint64_t MaxWindowReads(const CompactionPlan& plan, uint64_t window,
                        uint64_t min_read) {
  uint64_t max_ops = 0;
  for (const auto& [table, bytes] : PlannedBytesPerTable(plan)) {
    max_ops += (bytes > min_read ? bytes - min_read : 0) / window + 1;
  }
  return max_ops;
}

// Concatenated bytes of the output tables `sink` recorded under `dir`.
Status ReadOutputs(Env* env, const std::string& dir, const CountingSink& sink,
                   std::string* out) {
  out->clear();
  for (const OutputMeta& m : sink.outputs()) {
    std::string data;
    Status s = ReadFileToString(
        env, dir + "/out-" + std::to_string(m.file_number) + ".pst", &data);
    if (!s.ok()) return s;
    *out += data;
  }
  return Status::OK();
}

class WindowedReadTest : public ::testing::Test {
 protected:
  explicit WindowedReadTest(DeviceProfile profile = DeviceProfile::Null())
      : env_(std::move(profile)), icmp_(BytewiseComparator()), fault_(&env_) {}

  // The job inputs, written through `env`; the same on every env.
  Status GenerateInputs(Env* env, CompactionInputs* inputs) {
    TableGenOptions gen;
    gen.env = env;
    gen.icmp = &icmp_;
    gen.upper_bytes = 768 << 10;
    gen.lower_bytes = 1536 << 10;
    gen.upper_tables = kUpperTables;
    gen.lower_tables = lower_tables_;
    return GenerateCompactionInputs(gen, inputs);
  }

  void MakeInputs() {
    ASSERT_TRUE(GenerateInputs(&fault_, &inputs_).ok());
    ASSERT_EQ(static_cast<size_t>(kUpperTables + lower_tables_),
              inputs_.tables.size());
  }

  CompactionJobOptions Job(const ExecCase& c, bool coalesce = true) {
    CompactionJobOptions job;
    job.icmp = &icmp_;
    job.subtask_bytes = kSubtaskBytes;
    job.min_read_bytes = min_read_bytes_;
    job.max_output_file_size = 256 << 10;
    job.read_parallelism = c.readers;
    job.compute_parallelism = c.computers;
    job.coalesce_reads = coalesce;
    return job;
  }

  // Runs one job into `dir` and returns the concatenated bytes of its
  // output tables. The run's profile lands in profile_, and its device
  // reads in read_ops_/read_bytes_.
  Status Run(const ExecCase& c, bool coalesce, const std::string& dir,
             std::string* out) {
    auto executor = NewCompactionExecutor(c.mode);
    CountingSink sink(&fault_, dir);
    profile_ = StepProfile{};
    env_.device()->ResetStats();
    Status s =
        executor->Run(Job(c, coalesce), inputs_.tables, &sink, &profile_);
    read_ops_ = env_.device()->stats().read_ops.load();
    read_bytes_ = env_.device()->stats().read_bytes.load();
    if (!s.ok()) return s;
    return ReadOutputs(&env_, dir, sink, out);
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
  FaultInjectionEnv fault_;
  int lower_tables_ = kLowerTables;
  CompactionInputs inputs_;
  size_t min_read_bytes_ = 0;  // every job's min_read_bytes
  StepProfile profile_;
  uint64_t read_ops_ = 0;
  uint64_t read_bytes_ = 0;
};

TEST_F(WindowedReadTest, EveryExecutorMatchesPerBlockScp) {
  MakeInputs();
  CompactionPlan plan;
  ASSERT_TRUE(PlanSubTasks(Job(kScp), inputs_.tables, &plan).ok());
  std::string reference;
  ASSERT_TRUE(Run(kScp, /*coalesce=*/false, "/per-block", &reference).ok());
  ASSERT_FALSE(reference.empty());
  for (const ExecCase& c : kCases) {
    const std::string dir = CaseDir("/windowed-", c);
    std::string got;
    ASSERT_TRUE(Run(c, /*coalesce=*/true, dir, &got).ok()) << dir;
    EXPECT_TRUE(got == reference) << dir << " output differs";
    // The job's input size counts boundary blocks once, not once per
    // sub-task that lists them.
    EXPECT_EQ(plan.input_bytes, profile_.input_bytes) << dir;
  }
}

TEST_F(WindowedReadTest, OneReaderReadsEachPlannedByteOnce) {
  MakeInputs();
  CompactionPlan plan;
  ASSERT_TRUE(PlanSubTasks(Job(kScp), inputs_.tables, &plan).ok());

  size_t widest = 0;  // most tables listed by one sub-task
  for (const SubTaskPlan& p : plan.subtasks) {
    std::set<int> tables;
    for (const BlockRead& br : p.blocks) tables.insert(br.table_index);
    widest = std::max(widest, tables.size());
  }
  ASSERT_EQ(inputs_.tables.size(), PlannedBytesPerTable(plan).size());
  ASSERT_GE(widest, 6u) << "inputs do not overlap enough to fragment S1";

  std::string out;
  ASSERT_TRUE(Run(kScp, /*coalesce=*/false, "/per-block", &out).ok());
  const uint64_t per_block_ops = read_ops_;

  // Sub-task windows, without and with the short-tail rule.
  for (size_t min_read : {size_t{0}, kSubtaskBytes}) {
    min_read_bytes_ = min_read;
    const uint64_t max_ops = MaxWindowReads(plan, kSubtaskBytes, min_read);
    for (const ExecCase& c : {kScp, kPcp}) {
      const std::string dir =
          CaseDir("/windowed-", c) + "-m" + std::to_string(min_read);
      ASSERT_TRUE(Run(c, /*coalesce=*/true, dir, &out).ok());
      EXPECT_EQ(plan.input_bytes, read_bytes_) << dir;
      EXPECT_LE(read_ops_, max_ops) << dir;
      EXPECT_GE(per_block_ops, 5 * read_ops_) << dir;
    }
  }
}

// Jobs of the same shape on a 4-disk RAID0 whose stripe unit equals the
// sub-task size, so a sub-task-sized read lands on one disk. With
// min_read_bytes set to the env's full stripe, S1 reads every disk at
// once. The lower component is split in two, so each lower table is
// longer than one stripe and only a stripe-sized window reads it in one
// or two reads; the short-tail rule alone would not.
class StripeWindowTest : public WindowedReadTest {
 protected:
  StripeWindowTest() : WindowedReadTest(DeviceProfile::Hdd(4)) {
    lower_tables_ = 2;
  }
};

TEST_F(StripeWindowTest, PcpReadsWholeStripesAndOutputIsUnchanged) {
  constexpr uint64_t kStripe = 4 * kSubtaskBytes;
  ASSERT_EQ(kStripe, env_.PreferredReadBytes());
  ASSERT_EQ(kStripe, fault_.PreferredReadBytes());
  MakeInputs();
  CompactionPlan plan;
  ASSERT_TRUE(PlanSubTasks(Job(kScp), inputs_.tables, &plan).ok());

  std::string out;
  ASSERT_TRUE(Run(kPcp, /*coalesce=*/true, "/subtask-window", &out).ok());
  const uint64_t subtask_window_ops = read_ops_;

  min_read_bytes_ = fault_.PreferredReadBytes();
  ASSERT_TRUE(Run(kPcp, /*coalesce=*/true, "/stripe-window", &out).ok());
  EXPECT_EQ(plan.input_bytes, read_bytes_);
  EXPECT_LE(read_ops_, MaxWindowReads(plan, kStripe, kStripe));
  EXPECT_LT(read_ops_, subtask_window_ops);

  // Per-block SCP on an untimed env over the same generated inputs is the
  // reference: on the HDD it would pay a seek per block.
  SimEnv null_env;
  CompactionInputs null_inputs;
  ASSERT_TRUE(GenerateInputs(&null_env, &null_inputs).ok());
  CountingSink ref_sink(&null_env, "/per-block");
  StepProfile ref_profile;
  ASSERT_TRUE(NewCompactionExecutor(CompactionMode::kSCP)
                  ->Run(Job(kScp, /*coalesce=*/false), null_inputs.tables,
                        &ref_sink, &ref_profile)
                  .ok());
  std::string reference;
  ASSERT_TRUE(ReadOutputs(&null_env, "/per-block", ref_sink, &reference).ok());
  ASSERT_FALSE(reference.empty());
  for (const ExecCase& c : kCases) {
    const std::string dir = CaseDir("/stripe-", c);
    std::string got;
    ASSERT_TRUE(Run(c, /*coalesce=*/true, dir, &got).ok()) << dir;
    EXPECT_TRUE(got == reference) << dir << " output differs";
  }
}

TEST_F(WindowedReadTest, CorruptBlockInsideWindowFailsS2) {
  MakeInputs();
  // The fourth data block of the first upper table lies inside that
  // table's first window, which starts at its first block.
  std::unique_ptr<Iterator> idx(inputs_.tables[0]->NewIndexIterator());
  idx->SeekToFirst();
  for (int i = 0; i < 3 && idx->Valid(); i++) idx->Next();
  ASSERT_TRUE(idx->Valid());
  BlockHandle victim;
  Slice v = idx->value();
  ASSERT_TRUE(victim.DecodeFrom(&v).ok());
  ASSERT_LT(victim.offset() + victim.size() + kBlockTrailerSize,
            kSubtaskBytes);
  ASSERT_TRUE(env_.CorruptFile("/tablegen/gen-0.pst",
                               victim.offset() + victim.size() / 2, 8)
                  .ok());

  // S1 hands the damaged bytes over as they are; S2 rejects them.
  CompactionPlan plan;
  ASSERT_TRUE(PlanSubTasks(Job(kScp), inputs_.tables, &plan).ok());
  WindowedReader reader(Job(kScp), inputs_.tables, plan.subtasks);
  bool found = false;
  for (const SubTaskPlan& p : plan.subtasks) {
    StepProfile profile;
    RawSubTask raw;
    ASSERT_TRUE(reader.Read(p, &raw, &profile).ok());
    const bool lists_victim = std::any_of(
        p.blocks.begin(), p.blocks.end(), [&](const BlockRead& br) {
          return br.table_index == 0 &&
                 br.handle.offset() == victim.offset();
        });
    if (!lists_victim) continue;
    found = true;
    ComputedSubTask computed;
    Status s = ComputeSubTask(Job(kScp), std::move(raw), &computed);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    break;
  }
  EXPECT_TRUE(found);

  for (const ExecCase& c : kCases) {
    std::string out;
    Status s = Run(c, /*coalesce=*/true, CaseDir("/corrupt-", c), &out);
    EXPECT_TRUE(s.IsCorruption()) << CaseDir("", c) << ": " << s.ToString();
  }
}

TEST_F(WindowedReadTest, ReadErrorOnWindowFillFailsEveryExecutor) {
  MakeInputs();
  // Every read of an input table is a window fill; fail the third.
  fault_.SetPathFilter(FaultOp::kRead, "/tablegen/");
  for (const ExecCase& c : kCases) {
    fault_.ClearCounters();
    const uint64_t injected = fault_.injected_failures();
    fault_.FailAfter(FaultOp::kRead, 3,
                     Status::IOError("injected: window fill"));
    std::string out;
    Status s = Run(c, /*coalesce=*/true, CaseDir("/fail-", c), &out);
    EXPECT_TRUE(s.IsIOError()) << CaseDir("", c) << ": " << s.ToString();
    EXPECT_EQ(injected + 1, fault_.injected_failures()) << CaseDir("", c);
  }
}

// Records the widest input set of any compaction that failed.
class FailedJobListener : public obs::EventListener {
 public:
  void OnCompactionCompleted(const obs::CompactionJobInfo& info) override {
    if (info.status.ok()) return;
    int seen = widest_failed_inputs_.load();
    while (info.input_files > seen &&
           !widest_failed_inputs_.compare_exchange_weak(seen,
                                                        info.input_files)) {
    }
  }
  std::atomic<int> widest_failed_inputs_{0};
};

// Table file numbers per level, in listing (key) order.
std::map<int, std::vector<uint64_t>> FilesByLevel(DB* db) {
  std::string listing;
  EXPECT_TRUE(db->GetProperty("pipelsm.sstables", &listing));
  std::map<int, std::vector<uint64_t>> files;
  std::istringstream in(listing);
  int level = -1;
  for (std::string line; std::getline(in, line);) {
    unsigned long long number = 0;
    if (std::sscanf(line.c_str(), "--- level %d ---", &level) == 1) continue;
    if (level >= 0 && std::sscanf(line.c_str(), " %llu:", &number) == 1) {
      files[level].push_back(number);
    }
  }
  return files;
}

TEST_F(WindowedReadTest, ReadErrorOnWindowFillInstallsNothing) {
  FailedJobListener listener;
  Options options;
  options.env = &fault_;
  options.create_if_missing = true;
  options.compaction_mode = CompactionMode::kPCP;
  options.write_buffer_size = 32 << 10;
  options.max_file_size = 32 << 10;
  options.subtask_bytes = 16 << 10;
  options.listeners.push_back(&listener);
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  // Random keys and barely compressible values: level 1 ends up with
  // many tables, each overlapping any memtable's key range.
  uint32_t rng = 301;
  for (int i = 0; i < 6000; i++) {
    rng = rng * 1664525u + 1013904223u;
    char key[16];
    std::snprintf(key, sizeof(key), "k%05u", rng % 4000);
    std::string value;
    for (int j = 0; j < 100; j++) {
      rng = rng * 1664525u + 1013904223u;
      value.push_back(static_cast<char>('a' + (rng >> 24) % 26));
    }
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(db->WaitForCompactions().ok());

  auto scan = [&db]() {
    std::string dump;
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      dump += it->key().ToString() + "=" + it->value().ToString() + ";";
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return dump;
  };
  // The scan also opens every table, so the job's first read of a table
  // is a window fill rather than a table open.
  const std::string before = scan();
  auto before_files = FilesByLevel(db.get());
  const std::vector<uint64_t> level1 = before_files[1];
  ASSERT_GE(level1.size(), 5u);

  // Reads of one mid-range level-1 table fail. CompactRange first flushes
  // the memtable (untouched by the fault), then runs the level-0 job: the
  // level-0 tables plus every level-1 table they overlap, victim included.
  fault_.SetPathFilter(FaultOp::kRead,
                       TableFileName("/db", level1[level1.size() / 2]));
  fault_.FailAfter(FaultOp::kRead, 1, Status::IOError("injected: window fill"),
                   /*sticky=*/true);
  db->CompactRange(nullptr, nullptr);
  EXPECT_GE(fault_.injected_failures(), 1u);
  EXPECT_GE(listener.widest_failed_inputs_.load(), 6);
  fault_.ClearFaults();

  // Nothing installed: level 1, the failed job's output level, is
  // unchanged and every level-0 input is still live. (Level 0 also holds
  // the flushed memtable; CompactRange's jobs on deeper levels, which
  // never read the victim, may have gone through.)
  auto after = FilesByLevel(db.get());
  EXPECT_EQ(level1, after[1]);
  for (uint64_t number : before_files[0]) {
    EXPECT_NE(after[0].end(),
              std::find(after[0].begin(), after[0].end(), number));
  }
  EXPECT_EQ(before, scan());

  // Healed: the same compaction installs, and the contents do not move.
  ASSERT_TRUE(db->Resume().ok());
  db->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db->WaitForCompactions().ok());
  EXPECT_NE(before_files, FilesByLevel(db.get()));
  EXPECT_EQ(before, scan());
}

// The DB takes S1's window from its Env, through any wrapper, and says
// so on its open LOG line: a full stripe on the RAID0, the sub-task on an
// env that reports no preferred read size.
TEST(StripeWindowDbTest, OpenLogReportsTheWindowTheEnvGives) {
  struct Case {
    DeviceProfile profile;
    bool wrapped;
    const char* want;
  };
  const Case cases[] = {
      {DeviceProfile::Hdd(4), false, "subtask=64 KB, s1_window=256 KB"},
      {DeviceProfile::Hdd(4), true, "subtask=64 KB, s1_window=256 KB"},
      {DeviceProfile::Null(), true, "subtask=64 KB, s1_window=64 KB"},
  };
  for (const Case& c : cases) {
    SimEnv sim(c.profile);
    FaultInjectionEnv fault(&sim);
    Env* env = c.wrapped ? static_cast<Env*>(&fault) : &sim;
    Options options;
    options.env = env;
    options.create_if_missing = true;
    options.subtask_bytes = kSubtaskBytes;
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
    delete raw;
    std::string log;
    ASSERT_TRUE(ReadFileToString(&sim, "/db/LOG", &log).ok());
    EXPECT_NE(std::string::npos, log.find(c.want))
        << c.profile.name << (c.wrapped ? " wrapped" : "") << ":\n" << log;
  }
}

}  // namespace
}  // namespace pipelsm
