#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/env/sim_env.h"
#include "src/util/random.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace pipelsm::log {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.NewWritableFile("/wal", &dest_).ok());
    writer_ = std::make_unique<Writer>(dest_.get());
  }

  void Write(const std::string& msg) {
    ASSERT_TRUE(writer_->AddRecord(Slice(msg)).ok());
  }

  // Reads back every record; "EOF" terminates.
  std::vector<std::string> ReadAll(size_t* dropped_bytes = nullptr) {
    struct Reporter : public Reader::Reporter {
      size_t dropped = 0;
      void Corruption(size_t bytes, const Status&) override {
        dropped += bytes;
      }
    };
    Reporter reporter;
    std::unique_ptr<SequentialFile> src;
    EXPECT_TRUE(env_.NewSequentialFile("/wal", &src).ok());
    Reader reader(src.get(), &reporter);
    std::vector<std::string> records;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      records.push_back(record.ToString());
    }
    if (dropped_bytes != nullptr) *dropped_bytes = reporter.dropped;
    return records;
  }

  SimEnv env_;
  std::unique_ptr<WritableFile> dest_;
  std::unique_ptr<Writer> writer_;
};

TEST_F(LogTest, EmptyLog) { EXPECT_TRUE(ReadAll().empty()); }

TEST_F(LogTest, ReadWrite) {
  Write("foo");
  Write("bar");
  Write("");
  Write("xxxx");
  auto records = ReadAll();
  ASSERT_EQ(4u, records.size());
  EXPECT_EQ("foo", records[0]);
  EXPECT_EQ("bar", records[1]);
  EXPECT_EQ("", records[2]);
  EXPECT_EQ("xxxx", records[3]);
}

TEST_F(LogTest, ManyBlocks) {
  for (int i = 0; i < 100000; i++) {
    Write(std::to_string(i));
  }
  auto records = ReadAll();
  ASSERT_EQ(100000u, records.size());
  for (int i = 0; i < 100000; i++) {
    EXPECT_EQ(std::to_string(i), records[i]);
  }
}

TEST_F(LogTest, Fragmentation) {
  Write("small");
  Write(std::string(kBlockSize - 100, 'm'));  // spans a block boundary
  Write(std::string(3 * kBlockSize, 'b'));    // FIRST/MIDDLE/.../LAST
  auto records = ReadAll();
  ASSERT_EQ(3u, records.size());
  EXPECT_EQ("small", records[0]);
  EXPECT_EQ(std::string(kBlockSize - 100, 'm'), records[1]);
  EXPECT_EQ(std::string(3 * kBlockSize, 'b'), records[2]);
}

TEST_F(LogTest, MarginalTrailer) {
  // Make a trailer that is exactly about to overflow the block.
  const int n = kBlockSize - 2 * kHeaderSize;
  Write(std::string(n, 'f'));
  Write("");
  Write("bar");
  auto records = ReadAll();
  ASSERT_EQ(3u, records.size());
  EXPECT_EQ("bar", records[2]);
}

TEST_F(LogTest, TornTailIsSilentlyIgnored) {
  Write("complete");
  Write("to-be-torn");
  // Tear the last record's payload (simulates a crash mid-write).
  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize("/wal", &size).ok());
  ASSERT_TRUE(env_.TruncateFile("/wal", size - 4).ok());

  size_t dropped = 0;
  auto records = ReadAll(&dropped);
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ("complete", records[0]);
  EXPECT_EQ(0u, dropped);  // torn tail is not corruption
}

TEST_F(LogTest, CorruptPayloadDetected) {
  Write("first");
  Write("second-record-payload");
  // Flip bytes in the middle of the file (second record's payload).
  ASSERT_TRUE(env_.CorruptFile("/wal", kHeaderSize + 5 + kHeaderSize + 3, 4)
                  .ok());
  size_t dropped = 0;
  auto records = ReadAll(&dropped);
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ("first", records[0]);
  EXPECT_GT(dropped, 0u);
}

TEST_F(LogTest, CorruptLengthNeverYieldsBadRecords) {
  Write("aaaaaaaaa");
  Write("bbbbbbbbb");
  // Corrupt the length field of the first header. In a short (sub-block)
  // file this is indistinguishable from a torn write, so the reader stops
  // silently; either way it must never return a record built from the
  // corrupted length.
  ASSERT_TRUE(env_.CorruptFile("/wal", 4, 2).ok());
  auto records = ReadAll();
  EXPECT_TRUE(records.empty());
}

TEST_F(LogTest, CorruptLengthMidFileReportsCorruption) {
  // Fill past one block so the bad length is NOT at EOF.
  Write(std::string(2 * kBlockSize, 'x'));
  Write("tail-record");
  // Corrupt the first header's length: the whole first block is dropped.
  ASSERT_TRUE(env_.CorruptFile("/wal", 4, 2).ok());
  size_t dropped = 0;
  auto records = ReadAll(&dropped);
  EXPECT_GT(dropped, 0u);
  // The tail record lives in a later block and may or may not survive
  // resynchronization, but no garbage record may appear.
  for (const auto& r : records) {
    EXPECT_TRUE(r == "tail-record" || r == std::string(2 * kBlockSize, 'x'));
  }
}

TEST_F(LogTest, ReopenForAppend) {
  Write("first-run");
  dest_->Close();

  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize("/wal", &size).ok());
  std::unique_ptr<WritableFile> appender;
  ASSERT_TRUE(env_.NewAppendableFile("/wal", &appender).ok());
  Writer writer2(appender.get(), size);
  ASSERT_TRUE(writer2.AddRecord("second-run").ok());

  auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ("first-run", records[0]);
  EXPECT_EQ("second-run", records[1]);
}

// Property: random record sizes spanning all fragmentation shapes.
class LogSizesSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LogSizesSweep, RoundTrips) {
  SimEnv env;
  std::unique_ptr<WritableFile> dest;
  ASSERT_TRUE(env.NewWritableFile("/w", &dest).ok());
  Writer writer(dest.get());

  Random rnd(GetParam());
  std::vector<std::string> expected;
  for (int i = 0; i < 300; i++) {
    const uint32_t len = rnd.Skewed(17);  // 0..128K
    std::string payload;
    payload.reserve(len);
    for (uint32_t j = 0; j < len; j++) {
      payload.push_back(static_cast<char>(rnd.Uniform(256)));
    }
    expected.push_back(payload);
    ASSERT_TRUE(writer.AddRecord(payload).ok());
  }

  std::unique_ptr<SequentialFile> src;
  ASSERT_TRUE(env.NewSequentialFile("/w", &src).ok());
  Reader reader(src.get(), nullptr);
  Slice record;
  std::string scratch;
  for (const std::string& want : expected) {
    ASSERT_TRUE(reader.ReadRecord(&record, &scratch));
    ASSERT_EQ(want, record.ToString());
  }
  EXPECT_FALSE(reader.ReadRecord(&record, &scratch));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogSizesSweep,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace pipelsm::log
