// Randomized model check: a long random sequence of puts, deletes,
// overwrites and reopens applied both to the DB and to a std::map
// reference; after every phase the DB must agree with the model exactly
// — under every compaction executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "src/db/db.h"
#include "src/env/sim_env.h"
#include "src/util/random.h"
#include "tests/db/executor_matrix.h"

namespace pipelsm {
namespace {

struct ModelParams {
  CompactionMode mode;
  uint32_t seed;
};

class DbModelCheck : public ::testing::TestWithParam<ModelParams> {
 protected:
  DbModelCheck() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.compaction_mode = test::DbExecutor(GetParam().mode);
    options_.compute_parallelism =
        GetParam().mode == CompactionMode::kCPPCP ? 3 : 1;
    options_.write_buffer_size = 32 << 10;  // rotate often
    options_.max_file_size = 32 << 10;
    options_.subtask_bytes = 8 << 10;
  }

  void Open() {
    db_.reset();
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/model", &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  void CheckAgainstModel(const std::map<std::string, std::string>& model) {
    // Point reads.
    std::string value;
    for (const auto& [k, v] : model) {
      Status s = db_->Get(ReadOptions(), k, &value);
      ASSERT_TRUE(s.ok()) << k << ": " << s.ToString();
      ASSERT_EQ(v, value) << k;
    }
    // Full scan equals the model exactly (order + content).
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    auto m = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++m) {
      ASSERT_NE(model.end(), m);
      ASSERT_EQ(m->first, it->key().ToString());
      ASSERT_EQ(m->second, it->value().ToString());
    }
    ASSERT_TRUE(it->status().ok());
    ASSERT_EQ(model.end(), m);
  }

  SimEnv env_{test::DbDevice(GetParam().mode)};
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DbModelCheck, RandomOpsMatchReference) {
  Open();
  Random rnd(GetParam().seed);
  std::map<std::string, std::string> model;

  const int kKeySpace = 800;
  auto key_for = [](uint32_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06u", i);
    return std::string(buf);
  };

  for (int phase = 0; phase < 4; phase++) {
    for (int op = 0; op < 2000; op++) {
      const std::string key = key_for(rnd.Uniform(kKeySpace));
      if (rnd.OneIn(4)) {
        ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
        model.erase(key);
      } else {
        std::string value =
            "v" + std::to_string(rnd.Next()) +
            std::string(rnd.Uniform(150), static_cast<char>('a' + op % 26));
        ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
        model[key] = value;
      }
    }
    ASSERT_TRUE(db_->WaitForCompactions().ok());
    CheckAgainstModel(model);

    // Every other phase: crash-free reopen.
    if (phase % 2 == 1) {
      Open();
      CheckAgainstModel(model);
    }
  }

  // Final manual compaction must preserve everything too.
  db_->CompactRange(nullptr, nullptr);
  CheckAgainstModel(model);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, DbModelCheck,
    ::testing::Values(ModelParams{CompactionMode::kSCP, 101},
                      ModelParams{CompactionMode::kPCP, 202},
                      ModelParams{CompactionMode::kPCP, 203},
                      ModelParams{CompactionMode::kSPPCP, 303},
                      ModelParams{CompactionMode::kCPPCP, 404}),
    [](const ::testing::TestParamInfo<ModelParams>& info) {
      std::string name = CompactionModeName(info.param.mode);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace pipelsm
