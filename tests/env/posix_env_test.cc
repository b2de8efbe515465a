#include <gtest/gtest.h>

#include <cstdlib>

#include "src/env/env.h"

namespace pipelsm {
namespace {

class PosixEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Posix();
    // One directory per case: ctest -j runs cases in parallel, and each
    // TearDown removes its whole directory.
    dir_ = ::testing::TempDir() + "pipelsm_env_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    env_->CreateDir(dir_);
  }

  void TearDown() override {
    std::vector<std::string> children;
    if (env_->GetChildren(dir_, &children).ok()) {
      for (const auto& c : children) {
        env_->RemoveFile(dir_ + "/" + c);
      }
    }
    env_->RemoveDir(dir_);
  }

  Env* env_;
  std::string dir_;
};

TEST_F(PosixEnvTest, WriteReadRoundTrip) {
  const std::string fname = dir_ + "/f";
  ASSERT_TRUE(WriteStringToFile(env_, "posix bytes", fname).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, fname, &data).ok());
  EXPECT_EQ("posix bytes", data);
  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  EXPECT_EQ(11u, size);
}

TEST_F(PosixEnvTest, RandomAccess) {
  const std::string fname = dir_ + "/f";
  ASSERT_TRUE(WriteStringToFile(env_, "0123456789", fname).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &f).ok());
  char scratch[8];
  Slice result;
  ASSERT_TRUE(f->Read(4, 3, &result, scratch).ok());
  EXPECT_EQ("456", result.ToString());
}

TEST_F(PosixEnvTest, RenameAndChildren) {
  ASSERT_TRUE(WriteStringToFile(env_, "x", dir_ + "/a").ok());
  ASSERT_TRUE(env_->RenameFile(dir_ + "/a", dir_ + "/b").ok());
  EXPECT_FALSE(env_->FileExists(dir_ + "/a"));
  EXPECT_TRUE(env_->FileExists(dir_ + "/b"));

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  ASSERT_EQ(1u, children.size());
  EXPECT_EQ("b", children[0]);
}

TEST_F(PosixEnvTest, MissingFileIsNotFound) {
  std::unique_ptr<SequentialFile> f;
  EXPECT_TRUE(env_->NewSequentialFile(dir_ + "/missing", &f).IsNotFound());
}

TEST_F(PosixEnvTest, AppendableFile) {
  const std::string fname = dir_ + "/log";
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env_->NewAppendableFile(fname, &f).ok());
    ASSERT_TRUE(f->Append("first").ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env_->NewAppendableFile(fname, &f).ok());
    ASSERT_TRUE(f->Append("+second").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, fname, &data).ok());
  EXPECT_EQ("first+second", data);
}

TEST_F(PosixEnvTest, NowMicrosAdvances) {
  const uint64_t a = env_->NowMicros();
  env_->SleepForMicroseconds(2000);
  const uint64_t b = env_->NowMicros();
  EXPECT_GE(b - a, 1500u);
}

}  // namespace
}  // namespace pipelsm
