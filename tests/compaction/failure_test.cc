// Failure injection across the compaction path: corrupt blocks must be
// caught by S2 (CHECKSUM) and a failing sink by S7 in every procedure, and
// the error must propagate cleanly out of the pipeline (threads joined, no
// partial state).
#include <gtest/gtest.h>

#include "src/compaction/executor.h"
#include "src/compaction/steps.h"
#include "src/env/sim_env.h"
#include "src/obs/metrics.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

class CompactionFailureTest : public ::testing::Test {
 protected:
  CompactionFailureTest() : icmp_(BytewiseComparator()) {}

  void MakeInputs() {
    TableGenOptions gen;
    gen.env = &env_;
    gen.icmp = &icmp_;
    gen.upper_bytes = 256 << 10;
    gen.lower_bytes = 512 << 10;
    ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs_).ok());
  }

  CompactionJobOptions JobOptions(int readers = 1, int computers = 1) {
    CompactionJobOptions job;
    job.icmp = &icmp_;
    job.subtask_bytes = 64 << 10;
    job.max_output_file_size = 256 << 10;
    job.read_parallelism = readers;
    job.compute_parallelism = computers;
    return job;
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
  CompactionInputs inputs_;
};

TEST_F(CompactionFailureTest, CorruptInputFailsEveryExecutor) {
  MakeInputs();
  // Corrupt a data block in the middle of the first generated table.
  ASSERT_TRUE(env_.CorruptFile("/tablegen/gen-0.pst", 2048, 16).ok());

  struct Case {
    CompactionMode mode;
    int readers;
    int computers;
  } cases[] = {
      {CompactionMode::kSCP, 1, 1},
      {CompactionMode::kPCP, 1, 1},
      {CompactionMode::kSPPCP, 3, 1},
      {CompactionMode::kCPPCP, 1, 3},
  };
  for (const Case& c : cases) {
    auto executor = NewCompactionExecutor(c.mode);
    CountingSink sink(&env_, std::string("/out-") + executor->name());
    obs::MetricsRegistry metrics;
    CompactionJobOptions job = JobOptions(c.readers, c.computers);
    job.metrics = &metrics;
    StepProfile profile;
    Status s = executor->Run(job, inputs_.tables, &sink, &profile);
    EXPECT_FALSE(s.ok()) << executor->name();
    EXPECT_TRUE(s.IsCorruption()) << executor->name() << ": " << s.ToString();
    // The failed run still hands back what it measured (the job's
    // Completed event reports it), but publishes no run to the registry.
    EXPECT_GT(profile.nanos[kStepRead], 0u) << executor->name();
    EXPECT_EQ(0u, metrics.RegisterCounter("compaction.runs", "")->value())
        << executor->name();
  }
}

// A sink that fails on the S7 side: creating an output file, or reading a
// finished one back (the DB's sink opens each output through its table
// cache, so a table that does not read back fails the job).
class FailingSink : public CountingSink {
 public:
  enum class Where { kNewOutputFile, kOutputFinished };

  FailingSink(Env* env, std::string dir, Where where, Status error)
      : CountingSink(env, std::move(dir)), where_(where), error_(error) {}

  Status NewOutputFile(uint64_t* file_number,
                       std::unique_ptr<WritableFile>* file) override {
    if (where_ == Where::kNewOutputFile) return error_;
    return CountingSink::NewOutputFile(file_number, file);
  }
  Status OutputFinished(const OutputMeta& meta) override {
    if (where_ == Where::kOutputFinished) return error_;
    return CountingSink::OutputFinished(meta);
  }

 private:
  const Where where_;
  const Status error_;
};

TEST_F(CompactionFailureTest, SinkFailureFailsEveryExecutor) {
  MakeInputs();
  struct SinkCase {
    FailingSink::Where where;
    Status error;
  } sink_cases[] = {
      {FailingSink::Where::kNewOutputFile,
       Status::IOError("injected", "NewOutputFile")},
      {FailingSink::Where::kOutputFinished,
       Status::Corruption("injected", "output does not read back")},
  };
  struct Case {
    CompactionMode mode;
    int readers;
    int computers;
  } cases[] = {
      {CompactionMode::kSCP, 1, 1},
      {CompactionMode::kPCP, 1, 1},
      {CompactionMode::kSPPCP, 3, 1},
      {CompactionMode::kCPPCP, 1, 3},
  };
  for (const SinkCase& sc : sink_cases) {
    for (const Case& c : cases) {
      auto executor = NewCompactionExecutor(c.mode);
      const std::string what =
          std::string(executor->name()) + " / " + sc.error.ToString();
      FailingSink sink(&env_, std::string("/out-") + executor->name(),
                       sc.where, sc.error);
      obs::MetricsRegistry metrics;
      CompactionJobOptions job = JobOptions(c.readers, c.computers);
      job.metrics = &metrics;
      StepProfile profile;
      // Returning at all shows the pipelined procedures joined their
      // threads after S7 broke.
      Status s = executor->Run(job, inputs_.tables, &sink, &profile);
      EXPECT_EQ(sc.error.ToString(), s.ToString()) << what;
      EXPECT_EQ(0u, metrics.RegisterCounter("compaction.runs", "")->value())
          << what;
    }
  }
}

TEST_F(CompactionFailureTest, VerifyRawBlockCatchesSingleBitFlip) {
  MakeInputs();
  // Read one raw block, verify it, flip one bit, verify again.
  std::unique_ptr<Iterator> idx(inputs_.tables[0]->NewIndexIterator());
  idx->SeekToFirst();
  ASSERT_TRUE(idx->Valid());
  BlockHandle handle;
  Slice v = idx->value();
  ASSERT_TRUE(handle.DecodeFrom(&v).ok());

  RawBlock raw;
  ASSERT_TRUE(inputs_.tables[0]->ReadRaw(handle, &raw).ok());
  ASSERT_TRUE(VerifyRawBlock(raw).ok());

  for (size_t pos : {size_t(0), raw.payload.size() / 2,
                     raw.payload.size() - 1}) {
    raw.payload[pos] = static_cast<char>(raw.payload[pos] ^ 0x01);
    EXPECT_FALSE(VerifyRawBlock(raw).ok()) << "bit flip at " << pos;
    raw.payload[pos] = static_cast<char>(raw.payload[pos] ^ 0x01);
  }
  EXPECT_TRUE(VerifyRawBlock(raw).ok());
}

TEST_F(CompactionFailureTest, TruncatedBlockReadFails) {
  MakeInputs();
  std::unique_ptr<Iterator> idx(inputs_.tables[0]->NewIndexIterator());
  idx->SeekToLast();
  ASSERT_TRUE(idx->Valid());
  BlockHandle handle;
  Slice v = idx->value();
  ASSERT_TRUE(handle.DecodeFrom(&v).ok());

  // Ask for a block whose extent exceeds the file.
  BlockHandle bogus;
  bogus.set_offset(handle.offset());
  bogus.set_size(handle.size() + (100 << 20));
  RawBlock raw;
  Status s = inputs_.tables[0]->ReadRaw(bogus, &raw);
  EXPECT_FALSE(s.ok());
}

TEST_F(CompactionFailureTest, ComputeRejectsGarbagePayload) {
  CompactionJobOptions job = JobOptions();
  RawSubTask raw;
  raw.plan.seq = 0;
  raw.plan.blocks.push_back(BlockRead{0, BlockHandle{}});
  RawBlock junk;
  junk.payload = "way too short";
  raw.blocks.push_back(junk);
  ComputedSubTask out;
  Status s = ComputeSubTask(job, std::move(raw), &out);
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(CompactionFailureTest, PipelineShutsDownCleanlyOnMidStreamError) {
  MakeInputs();
  // Corrupt a LATE block so several sub-tasks succeed before the failure
  // (exercises queue close + thread join on the error path).
  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize("/tablegen/gen-1.pst", &size).ok());
  // Three-quarters in: still within the data-block region (the index and
  // footer live in the last few KB and were already read at Open).
  ASSERT_TRUE(env_.CorruptFile("/tablegen/gen-1.pst", size * 3 / 4, 16).ok());

  auto executor = NewCompactionExecutor(CompactionMode::kCPPCP);
  CountingSink sink(&env_, "/out-late");
  StepProfile profile;
  Status s = executor->Run(JobOptions(2, 3), inputs_.tables, &sink, &profile);
  EXPECT_FALSE(s.ok());
  // Returning at all proves the pipeline joined its threads; ASAN/TSAN
  // builds would flag leaks or races here.
}

}  // namespace
}  // namespace pipelsm
