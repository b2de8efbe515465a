// Compaction outputs carry working bloom-filter blocks: point probes for
// absent keys must not touch the data blocks (observable as zero device
// reads on the SimEnv), across all executors.
#include <gtest/gtest.h>

#include "src/compaction/executor.h"
#include "src/env/sim_env.h"
#include "src/table/filter_policy.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

class FilterOutputTest : public ::testing::TestWithParam<CompactionMode> {
 protected:
  FilterOutputTest()
      : icmp_(BytewiseComparator()),
        user_policy_(NewBloomFilterPolicy(10)),
        internal_policy_(user_policy_.get()) {}

  SimEnv env_;
  InternalKeyComparator icmp_;
  std::unique_ptr<const FilterPolicy> user_policy_;
  InternalFilterPolicy internal_policy_;
};

TEST_P(FilterOutputTest, AbsentKeyProbesSkipDataBlocks) {
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 128 << 10;
  gen.lower_bytes = 256 << 10;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  CompactionJobOptions job;
  job.icmp = &icmp_;
  job.subtask_bytes = 32 << 10;
  job.table.filter_policy = &internal_policy_;
  job.read_parallelism = GetParam() == CompactionMode::kSPPCP ? 2 : 1;
  job.compute_parallelism = GetParam() == CompactionMode::kCPPCP ? 2 : 1;

  auto executor = NewCompactionExecutor(GetParam());
  CountingSink sink(&env_, "/out");
  StepProfile profile;
  ASSERT_TRUE(executor->Run(job, inputs.tables, &sink, &profile).ok());
  ASSERT_FALSE(sink.outputs().empty());

  // Open the first output with the same (wrapped) policy.
  TableOptions topt;
  topt.comparator = &icmp_;
  topt.filter_policy = &internal_policy_;
  const OutputMeta& meta = sink.outputs()[0];
  const std::string fname =
      "/out/out-" + std::to_string(meta.file_number) + ".pst";
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_.NewRandomAccessFile(fname, &file).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(topt, std::move(file), meta.file_size, &table).ok());

  // Present keys must still be found (no false negatives).
  {
    std::unique_ptr<Iterator> it(table->NewIterator());
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    int hits = 0;
    for (int i = 0; it->Valid() && i < 50; i++, it->Next()) {
      bool found = false;
      std::string key = it->key().ToString();
      ASSERT_TRUE(table
                      ->InternalGet({}, key,
                                    [&](const Slice& k, const Slice&) {
                                      found = (k == Slice(key));
                                    })
                      .ok());
      if (found) hits++;
    }
    EXPECT_EQ(50, hits);
  }

  // Absent-key probes: the filter must reject nearly all of them before
  // any data-block I/O happens.
  env_.device()->ResetStats();
  int filter_passes = 0;
  for (int i = 0; i < 200; i++) {
    std::string absent_user = "zz-absent-" + std::to_string(i);
    // Keys are 16-byte digits; this user key cannot exist, but to probe
    // keys *inside* the table's range, synthesize between-gap keys too.
    std::string between = meta.smallest.user_key().ToString();
    between += "-gap" + std::to_string(i);
    for (const std::string& user : {absent_user, between}) {
      std::string ikey;
      AppendInternalKey(
          &ikey, ParsedInternalKey(user, kMaxSequenceNumber, kTypeValue));
      bool invoked = false;
      ASSERT_TRUE(
          table->InternalGet({}, ikey, [&](const Slice&, const Slice&) {
                  invoked = true;
                }).ok());
      if (invoked) filter_passes++;
    }
  }
  // Bloom false-positive rate ~1%; allow generous slack.
  const uint64_t data_reads = env_.device()->stats().read_ops.load();
  EXPECT_LE(data_reads, 40u);  // vs 400 probes without filters
  EXPECT_LE(filter_passes, 40);
}

INSTANTIATE_TEST_SUITE_P(Modes, FilterOutputTest,
                         ::testing::Values(CompactionMode::kSCP,
                                           CompactionMode::kPCP,
                                           CompactionMode::kSPPCP,
                                           CompactionMode::kCPPCP),
                         [](const ::testing::TestParamInfo<CompactionMode>& i) {
                           switch (i.param) {
                             case CompactionMode::kSCP: return "SCP";
                             case CompactionMode::kPCP: return "PCP";
                             case CompactionMode::kSPPCP: return "SPPCP";
                             case CompactionMode::kCPPCP: return "CPPCP";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace pipelsm
