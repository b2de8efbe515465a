#include "src/env/sim_env.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pipelsm {
namespace {

TEST(SimEnv, WriteReadRoundTrip) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "hello world", "/dir/f").ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "/dir/f", &data).ok());
  EXPECT_EQ("hello world", data);
}

TEST(SimEnv, MissingFileIsNotFound) {
  SimEnv env;
  std::unique_ptr<SequentialFile> f;
  EXPECT_TRUE(env.NewSequentialFile("/nope", &f).IsNotFound());
  std::unique_ptr<RandomAccessFile> r;
  EXPECT_TRUE(env.NewRandomAccessFile("/nope", &r).IsNotFound());
  EXPECT_FALSE(env.FileExists("/nope"));
  uint64_t size;
  EXPECT_TRUE(env.GetFileSize("/nope", &size).IsNotFound());
  EXPECT_TRUE(env.RemoveFile("/nope").IsNotFound());
}

TEST(SimEnv, RandomAccessReads) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "0123456789", "/f").ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &f).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ("3456", result.ToString());
  // Read past EOF is clipped.
  ASSERT_TRUE(f->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ("89", result.ToString());
  // An offset beyond EOF reads nothing, as pread does.
  ASSERT_TRUE(f->Read(11, 1, &result, scratch).ok());
  EXPECT_EQ(0u, result.size());
}

TEST(SimEnv, SequentialReadAndSkip) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "abcdefghij", "/f").ok());
  std::unique_ptr<SequentialFile> f;
  ASSERT_TRUE(env.NewSequentialFile("/f", &f).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(3, &result, scratch).ok());
  EXPECT_EQ("abc", result.ToString());
  ASSERT_TRUE(f->Read(3, &result, scratch).ok());
  EXPECT_EQ("def", result.ToString());
}

TEST(SimEnv, AppendableFileAppends) {
  SimEnv env;
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile("/f", &f).ok());
    ASSERT_TRUE(f->Append("one").ok());
  }
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewAppendableFile("/f", &f).ok());
    ASSERT_TRUE(f->Append("two").ok());
  }
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "/f", &data).ok());
  EXPECT_EQ("onetwo", data);
}

TEST(SimEnv, NewWritableTruncates) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "long old contents", "/f").ok());
  ASSERT_TRUE(WriteStringToFile(&env, "new", "/f").ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "/f", &data).ok());
  EXPECT_EQ("new", data);
}

TEST(SimEnv, GetChildrenOnlyDirectEntries) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "x", "/db/000001.pst").ok());
  ASSERT_TRUE(WriteStringToFile(&env, "x", "/db/CURRENT").ok());
  ASSERT_TRUE(WriteStringToFile(&env, "x", "/db/sub/deep.txt").ok());
  ASSERT_TRUE(WriteStringToFile(&env, "x", "/other/f").ok());

  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  std::sort(children.begin(), children.end());
  ASSERT_EQ(2u, children.size());
  EXPECT_EQ("000001.pst", children[0]);
  EXPECT_EQ("CURRENT", children[1]);
}

TEST(SimEnv, RenameReplacesTarget) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "source", "/a").ok());
  ASSERT_TRUE(WriteStringToFile(&env, "target", "/b").ok());
  ASSERT_TRUE(env.RenameFile("/a", "/b").ok());
  EXPECT_FALSE(env.FileExists("/a"));
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "/b", &data).ok());
  EXPECT_EQ("source", data);
  EXPECT_TRUE(env.RenameFile("/a", "/c").IsNotFound());
}

TEST(SimEnv, CorruptFileFlipsBytes) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "sensitive-data", "/f").ok());
  ASSERT_TRUE(env.CorruptFile("/f", 0, 4).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "/f", &data).ok());
  EXPECT_NE("sensitive-data", data);
  EXPECT_EQ("itive-data", data.substr(4));
  // Corrupting twice restores (XOR-based) — useful for tests.
  ASSERT_TRUE(env.CorruptFile("/f", 0, 4).ok());
  ASSERT_TRUE(ReadFileToString(&env, "/f", &data).ok());
  EXPECT_EQ("sensitive-data", data);
  EXPECT_FALSE(env.CorruptFile("/f", 1000, 1).ok());
}

TEST(SimEnv, TruncateFile) {
  SimEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "0123456789", "/f").ok());
  ASSERT_TRUE(env.TruncateFile("/f", 4).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "/f", &data).ok());
  EXPECT_EQ("0123", data);
}

TEST(SimEnv, NullDeviceChargesNothing) {
  SimEnv env(DeviceProfile::Null());
  ASSERT_TRUE(
      WriteStringToFile(&env, std::string(1 << 20, 'x'), "/big").ok());
  EXPECT_EQ(0u, env.device()->stats().busy_nanos.load());
}

TEST(SimEnv, DeviceStatsCountTransfers) {
  SimEnv env(DeviceProfile::Ssd());
  ASSERT_TRUE(WriteStringToFile(&env, std::string(8192, 'x'), "/f").ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "/f", &data).ok());
  const DeviceStats& stats = env.device()->stats();
  EXPECT_GE(stats.write_bytes.load(), 8192u);
  EXPECT_GE(stats.read_bytes.load(), 8192u);
  EXPECT_GT(stats.busy_nanos.load(), 0u);
}

}  // namespace
}  // namespace pipelsm
