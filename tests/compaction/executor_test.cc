// The contribution's core correctness property: SCP, PCP, S-PPCP and
// C-PPCP are different *schedules* of the same seven steps, so for any
// input they must produce exactly the same merged key-value sequence —
// and that sequence must equal a reference merge computed independently.
#include "src/compaction/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/compaction/types.h"
#include "src/env/sim_env.h"
#include "src/table/filter_policy.h"
#include "src/table/table_builder.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

struct ExecParams {
  CompactionMode mode;
  int read_parallelism;
  int compute_parallelism;
};

std::string ParamName(const ::testing::TestParamInfo<ExecParams>& info) {
  std::string n = CompactionModeName(info.param.mode);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n + "_r" + std::to_string(info.param.read_parallelism) + "_c" +
         std::to_string(info.param.compute_parallelism);
}

class ExecutorTest : public ::testing::TestWithParam<ExecParams> {
 protected:
  ExecutorTest() : icmp_(BytewiseComparator()) {}

  CompactionJobOptions JobOptions() {
    CompactionJobOptions job;
    job.icmp = &icmp_;
    job.subtask_bytes = 64 << 10;
    job.table.block_size = 4 << 10;
    job.max_output_file_size = 256 << 10;
    job.read_parallelism = GetParam().read_parallelism;
    job.compute_parallelism = GetParam().compute_parallelism;
    return job;
  }

  // Runs the parameterized executor; returns the merged (user_key ->
  // value) contents of all output tables, scanning them in file order.
  Status RunAndCollect(const CompactionJobOptions& job,
                       const std::vector<std::shared_ptr<Table>>& inputs,
                       std::vector<std::pair<std::string, std::string>>* out,
                       StepProfile* profile) {
    auto executor = NewCompactionExecutor(GetParam().mode);
    CountingSink sink(&env_, "/out");
    Status s = executor->Run(job, inputs, &sink, profile);
    if (!s.ok()) return s;

    out->clear();
    TableOptions topt;
    topt.comparator = &icmp_;
    for (const OutputMeta& meta : sink.outputs()) {
      const std::string fname =
          "/out/out-" + std::to_string(meta.file_number) + ".pst";
      std::unique_ptr<RandomAccessFile> file;
      s = env_.NewRandomAccessFile(fname, &file);
      if (!s.ok()) return s;
      std::unique_ptr<Table> table;
      s = Table::Open(topt, std::move(file), meta.file_size, &table);
      if (!s.ok()) return s;
      std::unique_ptr<Iterator> it(table->NewIterator());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        ParsedInternalKey parsed;
        EXPECT_TRUE(ParseInternalKey(it->key(), &parsed));
        out->emplace_back(parsed.user_key.ToString(),
                          it->value().ToString());
      }
      if (!it->status().ok()) return it->status();
    }
    return Status::OK();
  }

  // Reference merge: newest version of each user key via direct iteration.
  std::map<std::string, std::string> ReferenceMerge(
      const std::vector<std::shared_ptr<Table>>& inputs) {
    // Later = lower precedence: pick the entry with the highest sequence.
    std::map<std::string, std::pair<uint64_t, std::string>> best;
    for (const auto& t : inputs) {
      std::unique_ptr<Iterator> it(t->NewIterator());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        ParsedInternalKey parsed;
        EXPECT_TRUE(ParseInternalKey(it->key(), &parsed));
        auto& slot = best[parsed.user_key.ToString()];
        if (parsed.sequence >= slot.first) {
          slot = {parsed.sequence, parsed.type == kTypeValue
                                       ? it->value().ToString()
                                       : std::string("<deleted>")};
        }
      }
    }
    std::map<std::string, std::string> result;
    for (auto& [k, v] : best) {
      if (v.second != "<deleted>") result[k] = v.second;
    }
    return result;
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
};

TEST_P(ExecutorTest, MatchesReferenceMerge) {
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 512 << 10;
  gen.lower_bytes = 1 << 20;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  std::vector<std::pair<std::string, std::string>> got;
  StepProfile profile;
  ASSERT_TRUE(
      RunAndCollect(JobOptions(), inputs.tables, &got, &profile).ok());

  auto expected = ReferenceMerge(inputs.tables);
  ASSERT_EQ(expected.size(), got.size());
  auto it = expected.begin();
  for (size_t i = 0; i < got.size(); i++, ++it) {
    ASSERT_EQ(it->first, got[i].first) << "at " << i;
    ASSERT_EQ(it->second, got[i].second) << "at " << i;
  }

  // Sanity on the profile: all seven steps saw work.
  EXPECT_GT(profile.subtasks, 0u);
  EXPECT_GT(profile.nanos[kStepRead], 0u);
  EXPECT_GT(profile.nanos[kStepSort], 0u);
  EXPECT_GT(profile.nanos[kStepWrite], 0u);
  EXPECT_GT(profile.input_bytes, 0u);
  EXPECT_GT(profile.wall_nanos, 0u);
}

TEST_P(ExecutorTest, ShadowedVersionsAreDropped) {
  // Upper rewrites half the lower keys; output size must reflect the drop.
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 256 << 10;
  gen.lower_bytes = 512 << 10;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  std::vector<std::pair<std::string, std::string>> got;
  StepProfile profile;
  ASSERT_TRUE(
      RunAndCollect(JobOptions(), inputs.tables, &got, &profile).ok());
  // Unique user keys = lower key count; total input entries > output.
  EXPECT_LT(got.size(), inputs.total_entries);
  // No duplicate user keys in the output.
  for (size_t i = 1; i < got.size(); i++) {
    EXPECT_LT(got[i - 1].first, got[i].first);
  }
}

TEST_P(ExecutorTest, OutputFilesRespectSizeLimitAndOrder) {
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 512 << 10;
  gen.lower_bytes = 2 << 20;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  auto executor = NewCompactionExecutor(GetParam().mode);
  CountingSink sink(&env_, "/out");
  StepProfile profile;
  CompactionJobOptions job = JobOptions();
  ASSERT_TRUE(executor->Run(job, inputs.tables, &sink, &profile).ok());

  ASSERT_GT(sink.outputs().size(), 1u);
  const Comparator* ucmp = icmp_.user_comparator();
  for (size_t i = 0; i < sink.outputs().size(); i++) {
    const OutputMeta& m = sink.outputs()[i];
    // Rotation happens at the first block boundary past the limit.
    EXPECT_LT(m.file_size, job.max_output_file_size + 64 * 1024);
    EXPECT_GT(m.entries, 0u);
    if (i > 0) {
      // Files must be disjoint and ascending.
      EXPECT_LT(ucmp->Compare(sink.outputs()[i - 1].largest.user_key(),
                              m.smallest.user_key()),
                0);
    }
  }
}

TEST_P(ExecutorTest, EmptyInputsProduceNoOutput) {
  auto executor = NewCompactionExecutor(GetParam().mode);
  CountingSink sink(&env_, "/out");
  StepProfile profile;
  ASSERT_TRUE(executor->Run(JobOptions(), {}, &sink, &profile).ok());
  EXPECT_TRUE(sink.outputs().empty());
}

TEST_P(ExecutorTest, TombstonesDroppedAtBaseLevelOnly) {
  // Build one upper table full of deletions over the lower key space.
  TableOptions topt;
  topt.comparator = &icmp_;
  env_.CreateDir("/in");

  auto build = [&](const std::string& fname, ValueType type,
                   SequenceNumber base_seq) -> std::shared_ptr<Table> {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile(fname, &file).ok());
    TableBuilder builder(topt, file.get());
    for (int i = 0; i < 500; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%06d", i);
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(key, base_seq + i, type));
      builder.Add(ikey, type == kTypeValue ? "value" : "");
    }
    EXPECT_TRUE(builder.Finish().ok());
    file->Close();
    uint64_t size;
    EXPECT_TRUE(env_.GetFileSize(fname, &size).ok());
    std::unique_ptr<RandomAccessFile> raf;
    EXPECT_TRUE(env_.NewRandomAccessFile(fname, &raf).ok());
    std::unique_ptr<Table> t;
    EXPECT_TRUE(Table::Open(topt, std::move(raf), size, &t).ok());
    return std::shared_ptr<Table>(t.release());
  };

  std::vector<std::shared_ptr<Table>> inputs;
  inputs.push_back(build("/in/dels.pst", kTypeDeletion, 10000));
  inputs.push_back(build("/in/vals.pst", kTypeValue, 1));

  // Base level: tombstones and shadowed values vanish entirely.
  {
    std::vector<std::pair<std::string, std::string>> got;
    StepProfile profile;
    CompactionJobOptions job = JobOptions();
    job.range_is_base_level = [](const SubTaskPlan&) { return true; };
    ASSERT_TRUE(RunAndCollect(job, inputs, &got, &profile).ok());
    EXPECT_TRUE(got.empty());
  }

  // Not base level: tombstones must survive (they still shadow deeper
  // levels); LSM semantics would break otherwise.
  {
    auto executor = NewCompactionExecutor(GetParam().mode);
    CountingSink sink(&env_, "/out2");
    StepProfile profile;
    CompactionJobOptions job = JobOptions();
    job.range_is_base_level = [](const SubTaskPlan&) { return false; };
    ASSERT_TRUE(executor->Run(job, inputs, &sink, &profile).ok());
    uint64_t entries = 0;
    for (const auto& m : sink.outputs()) entries += m.entries;
    EXPECT_EQ(500u, entries);  // 500 tombstones kept, 500 values dropped
  }
}

TEST_P(ExecutorTest, SnapshotPreservesOldVersions) {
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 128 << 10;
  gen.lower_bytes = 256 << 10;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  // A snapshot at sequence 0 predates everything: no version may be
  // dropped.
  auto executor = NewCompactionExecutor(GetParam().mode);
  CountingSink sink(&env_, "/out");
  StepProfile profile;
  CompactionJobOptions job = JobOptions();
  job.smallest_snapshot = 0;
  ASSERT_TRUE(executor->Run(job, inputs.tables, &sink, &profile).ok());
  uint64_t entries = 0;
  for (const auto& m : sink.outputs()) entries += m.entries;
  EXPECT_EQ(inputs.total_entries, entries);
}

INSTANTIATE_TEST_SUITE_P(
    AllExecutors, ExecutorTest,
    ::testing::Values(ExecParams{CompactionMode::kSCP, 1, 1},
                      ExecParams{CompactionMode::kPCP, 1, 1},
                      ExecParams{CompactionMode::kSPPCP, 2, 1},
                      ExecParams{CompactionMode::kSPPCP, 4, 1},
                      ExecParams{CompactionMode::kCPPCP, 1, 2},
                      ExecParams{CompactionMode::kCPPCP, 1, 4},
                      ExecParams{CompactionMode::kCPPCP, 2, 3}),
    ParamName);

// Cross-executor equivalence: byte-identical output streams.
TEST(ExecutorEquivalence, AllModesProduceIdenticalOutput) {
  SimEnv env;
  InternalKeyComparator icmp(BytewiseComparator());
  TableGenOptions gen;
  gen.env = &env;
  gen.icmp = &icmp;
  gen.upper_bytes = 512 << 10;
  gen.lower_bytes = 1 << 20;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  auto run = [&](CompactionMode mode, int readers,
                 int computers) -> std::string {
    CompactionJobOptions job;
    job.icmp = &icmp;
    job.subtask_bytes = 64 << 10;
    job.max_output_file_size = 256 << 10;
    job.read_parallelism = readers;
    job.compute_parallelism = computers;
    auto executor = NewCompactionExecutor(mode);
    const std::string dir =
        std::string("/eq-") + CompactionModeName(mode) + "-" +
        std::to_string(readers) + "-" + std::to_string(computers);
    CountingSink sink(&env, dir);
    StepProfile profile;
    EXPECT_TRUE(executor->Run(job, inputs.tables, &sink, &profile).ok());
    // Concatenate the raw bytes of all outputs (they carry block-exact
    // content, so equality means the executors are interchangeable).
    std::string all;
    for (const auto& m : sink.outputs()) {
      std::string data;
      EXPECT_TRUE(ReadFileToString(
                      &env, dir + "/out-" + std::to_string(m.file_number) +
                                ".pst",
                      &data)
                      .ok());
      all += data;
    }
    return all;
  };

  const std::string scp = run(CompactionMode::kSCP, 1, 1);
  ASSERT_FALSE(scp.empty());
  EXPECT_EQ(scp, run(CompactionMode::kPCP, 1, 1));
  EXPECT_EQ(scp, run(CompactionMode::kSPPCP, 3, 1));
  EXPECT_EQ(scp, run(CompactionMode::kCPPCP, 1, 3));
}

// One write path: a table written by TableBuilder, compacted alone by SCP
// in one sub-task with no rotation, comes back as the same bytes. Both
// writers cut blocks at the same points, index each block by its exact
// last key and build one filter per block.
TEST(ExecutorEquivalence, CompactedTableMatchesBuiltTableByteForByte) {
  SimEnv env;
  InternalKeyComparator icmp(BytewiseComparator());
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
  InternalFilterPolicy policy(bloom.get());
  TableOptions topt;
  topt.comparator = &icmp;
  topt.filter_policy = &policy;

  const uint64_t kEntries = 3000;
  WorkloadGenerator gen(kEntries, 16, 100, KeyOrder::kSequential);
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile("/built.pst", &file).ok());
    TableBuilder builder(topt, file.get());
    for (uint64_t i = 0; i < kEntries; i++) {
      std::string ikey;
      AppendInternalKey(&ikey,
                        ParsedInternalKey(gen.Key(i), i + 1, kTypeValue));
      builder.Add(ikey, gen.Value(i));
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
  }
  std::string built;
  ASSERT_TRUE(ReadFileToString(&env, "/built.pst", &built).ok());
  std::unique_ptr<RandomAccessFile> raf;
  ASSERT_TRUE(env.NewRandomAccessFile("/built.pst", &raf).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(topt, std::move(raf), built.size(), &table).ok());

  CompactionJobOptions job;
  job.icmp = &icmp;
  job.table = topt;
  job.subtask_bytes = 2 * built.size();         // one sub-task
  job.max_output_file_size = 2 * built.size();  // no rotation
  CountingSink sink(&env, "/out");
  StepProfile profile;
  ASSERT_TRUE(NewCompactionExecutor(CompactionMode::kSCP)
                  ->Run(job, {std::shared_ptr<Table>(table.release())}, &sink,
                        &profile)
                  .ok());
  ASSERT_EQ(1u, sink.outputs().size());
  std::string compacted;
  ASSERT_TRUE(ReadFileToString(
                  &env,
                  "/out/out-" + std::to_string(sink.outputs()[0].file_number) +
                      ".pst",
                  &compacted)
                  .ok());

  ASSERT_EQ(built.size(), compacted.size());
  const auto diff =
      std::mismatch(built.begin(), built.end(), compacted.begin());
  EXPECT_TRUE(diff.first == built.end())
      << "first differing byte at offset " << (diff.first - built.begin())
      << " of " << built.size();
}

}  // namespace
}  // namespace pipelsm
