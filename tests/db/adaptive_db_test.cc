// Compaction admission, end to end through a live DB. Every job runs
// exactly what its governor granted: a scripted CompactionGovernor passed
// through Options::compaction_governor pins the executor and k of each
// job, and the DB must run them, report them on EVENT compaction_begin,
// and release every grant. With no governor the DB's own scheduler
// admits: its adaptive verdicts reach the info LOG, and a static
// configuration stays pinned. The timing claim (a live phase shift
// flips the chosen executor) belongs to `bench_adaptive --smoke`; the
// scheduler's phase flip on injected profiles is unit-tested in
// tests/compaction/scheduler_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/compaction/scheduler.h"
#include "src/compaction/types.h"
#include "src/db/db.h"
#include "src/env/sim_env.h"
#include "src/obs/event_listener.h"
#include "src/workload/generator.h"
#include "tests/obs/json_check.h"

namespace pipelsm {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

// Records the scheduler-facing slice of every compaction Begin event.
class DecisionListener : public obs::EventListener {
 public:
  struct Decision {
    std::string executor;
    int read_parallelism = 0;
    int compute_parallelism = 0;
    bool adaptive = false;
    std::string rationale;
  };

  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    Decision d;
    d.executor = info.executor;
    d.read_parallelism = info.read_parallelism;
    d.compute_parallelism = info.compute_parallelism;
    d.adaptive = info.adaptive;
    d.rationale = info.scheduler_rationale;
    std::lock_guard<std::mutex> lock(mu_);
    decisions_.push_back(std::move(d));
  }

  std::vector<Decision> decisions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return decisions_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Decision> decisions_;
};

// Hands out a fixed script of grants in turn and records every
// admission and release.
class ScriptedGovernor : public CompactionGovernor {
 public:
  explicit ScriptedGovernor(std::vector<CompactionGrant> script)
      : script_(std::move(script)) {}

  CompactionGrant Admit(const CompactionAdmissionRequest&,
                        const std::function<bool()>&) override {
    std::lock_guard<std::mutex> lock(mu_);
    CompactionGrant g = script_[granted_.size() % script_.size()];
    g.granted = true;
    g.id = granted_.size() + 1;
    granted_.push_back(g);
    open_.insert(g.id);
    return g;
  }

  void Release(uint64_t grant_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    EXPECT_EQ(1u, open_.erase(grant_id)) << "grant " << grant_id;
  }

  std::vector<CompactionGrant> granted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return granted_;
  }
  size_t open() const {
    std::lock_guard<std::mutex> lock(mu_);
    return open_.size();
  }

 private:
  const std::vector<CompactionGrant> script_;
  mutable std::mutex mu_;
  std::vector<CompactionGrant> granted_;
  std::set<uint64_t> open_;  // granted, not yet released
};

CompactionGrant Grant(CompactionMode mode, int read_k, int compute_k,
                      const char* rationale) {
  CompactionGrant g;
  g.mode = mode;
  g.read_parallelism = read_k;
  g.compute_parallelism = compute_k;
  g.adaptive = true;
  g.rationale = rationale;
  return g;
}

class AdaptiveDbTest : public ::testing::Test {
 protected:
  AdaptiveDbTest() : env_(DeviceProfile::Ssd(4)) {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.compaction_mode = CompactionMode::kPCP;  // static seed choice
    options_.adaptive_compaction = true;
    options_.max_compute_workers = 4;
    options_.max_stripe_width = 4;
    options_.scheduler_hysteresis_jobs = 2;
    options_.scheduler_warmup_jobs = 2;
    options_.write_buffer_size = 16 << 10;
    options_.max_file_size = 16 << 10;
    options_.subtask_bytes = 16 << 10;
    options_.listeners.push_back(&listener_);
  }

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  // One workload phase: `num` values of `value_size` bytes at the given
  // compressibility, then quiesce.
  void FillPhase(uint64_t num, size_t value_size, double compressibility,
                 uint32_t seed) {
    WorkloadGenerator gen(num, 16, value_size, KeyOrder::kRandom, seed,
                          compressibility);
    for (uint64_t i = 0; i < num; i++) {
      EXPECT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
      // Quiesce periodically so the phase yields several separate
      // compaction jobs instead of one giant catch-up job at the end.
      if ((i + 1) % (num / 4) == 0) {
        EXPECT_TRUE(db_->WaitForCompactions().ok());
      }
    }
    EXPECT_TRUE(db_->WaitForCompactions().ok());
  }

  std::string Property(const std::string& name) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return value;
  }

  SimEnv env_;
  Options options_;
  DecisionListener listener_;
  std::unique_ptr<DB> db_;
};

// The governor's grant is exactly what runs: each job's executor, read
// and compute k and rationale come from its grant, the job's one
// compaction_begin line reports them, and every grant is released.
TEST_F(AdaptiveDbTest, GovernorGrantIsExactlyWhatRuns) {
  ScriptedGovernor governor({
      Grant(CompactionMode::kCPPCP, 1, 3, "script: C-PPCP k=3"),
      Grant(CompactionMode::kSPPCP, 2, 1, "script: S-PPCP k=2"),
      Grant(CompactionMode::kSCP, 1, 1, "script: SCP"),
      Grant(CompactionMode::kPCP, 1, 1, "script: PCP"),
  });
  options_.compaction_governor = &governor;
  Open();
  FillPhase(/*num=*/16000, /*value_size=*/100, /*compressibility=*/1.0,
            /*seed=*/305);
  db_.reset();  // close: every job finished, LOG complete

  const std::vector<CompactionGrant> granted = governor.granted();
  const std::vector<DecisionListener::Decision> ran = listener_.decisions();
  ASSERT_GE(ran.size(), 4u) << "every scripted executor must run";
  ASSERT_EQ(granted.size(), ran.size());
  EXPECT_EQ(0u, governor.open()) << "every grant is released";

  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, "/db/LOG", &log).ok());
  std::vector<std::string> begins;
  std::istringstream lines(log);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("EVENT compaction_begin") != std::string::npos) {
      begins.push_back(line);
    }
  }
  ASSERT_EQ(granted.size(), begins.size());

  for (size_t i = 0; i < granted.size(); i++) {
    const CompactionGrant& g = granted[i];
    SCOPED_TRACE("job " + std::to_string(i) + ": " + g.rationale);
    EXPECT_EQ(CompactionModeName(g.mode), ran[i].executor);
    EXPECT_EQ(g.read_parallelism, ran[i].read_parallelism);
    EXPECT_EQ(g.compute_parallelism, ran[i].compute_parallelism);
    EXPECT_EQ(g.rationale, ran[i].rationale);
    EXPECT_TRUE(ran[i].adaptive);
    const std::string fields =
        std::string(" executor=") + CompactionModeName(g.mode) +
        " read_k=" + std::to_string(g.read_parallelism) +
        " compute_k=" + std::to_string(g.compute_parallelism) + " ";
    EXPECT_NE(std::string::npos, begins[i].find(fields)) << begins[i];
    EXPECT_NE(std::string::npos,
              begins[i].find("rationale=\"" + g.rationale + "\""))
        << begins[i];
  }
}

TEST_F(AdaptiveDbTest, AdaptiveDecisionsReachTheInfoLog) {
  Open();
  FillPhase(/*num=*/8000, /*value_size=*/100, /*compressibility=*/1.0,
            /*seed=*/303);
  ASSERT_GE(listener_.decisions().size(), 1u);
  db_.reset();  // close: LOG complete

  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, "/db/LOG", &log).ok());
  // The verdict rides on each job's one compaction_begin line.
  int begins = 0;
  std::istringstream lines(log);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("EVENT compaction_begin") == std::string::npos) continue;
    begins++;
    EXPECT_NE(std::string::npos, line.find(" rationale=\"")) << line;
    EXPECT_EQ(std::string::npos, line.find("rationale=\"\"")) << line;
  }
  EXPECT_GE(begins, 1);
  EXPECT_NE(std::string::npos, log.find("+adaptive"));  // opening banner
}

TEST_F(AdaptiveDbTest, StaticConfigurationStaysPinned) {
  options_.adaptive_compaction = false;
  options_.compaction_mode = CompactionMode::kSCP;
  Open();
  FillPhase(/*num=*/8000, /*value_size=*/100, /*compressibility=*/1.0,
            /*seed=*/304);
  const std::vector<DecisionListener::Decision> all = listener_.decisions();
  ASSERT_GE(all.size(), 1u);
  for (const auto& d : all) {
    EXPECT_EQ("SCP", d.executor);
    EXPECT_FALSE(d.adaptive);
  }

  JsonValue v;
  std::string err;
  const std::string json = Property("pipelsm.scheduler");
  ASSERT_TRUE(ParseJson(json, &v, &err)) << err << "\n" << json;
  EXPECT_EQ(0, v.Find("switches")->number_value);
}

}  // namespace
}  // namespace pipelsm
