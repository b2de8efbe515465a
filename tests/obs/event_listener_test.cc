// EventListener dispatch tests, run against a live DB for every
// compaction procedure: Begin precedes Completed for the same job id,
// job ids are monotone across flushes and compactions, completed
// compactions carry a populated S1-S7 StepProfile, stall transitions
// chain consistently, and the internal EventLogger leaves grep-able
// EVENT lines in the LOG file.
#include "src/obs/event_listener.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/env/sim_env.h"
#include "src/util/stopwatch.h"
#include "src/workload/generator.h"
#include "tests/db/executor_matrix.h"

namespace pipelsm {
namespace {

// Records every callback, tagged so cross-event ordering is checkable.
// Callbacks arrive from the background thread (flush/compaction) and
// writer threads (stalls), hence the mutex.
class RecordingListener : public obs::EventListener {
 public:
  enum Kind { kFlushBegin, kFlushEnd, kCompactionBegin, kCompactionEnd };
  struct Event {
    Kind kind = kFlushBegin;
    obs::FlushJobInfo flush;
    obs::CompactionJobInfo compaction;
  };

  void OnFlushBegin(const obs::FlushJobInfo& info) override {
    Event e;
    e.kind = kFlushBegin;
    e.flush = info;
    Push(e);
  }
  void OnFlushCompleted(const obs::FlushJobInfo& info) override {
    Event e;
    e.kind = kFlushEnd;
    e.flush = info;
    Push(e);
  }
  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    Event e;
    e.kind = kCompactionBegin;
    e.compaction = info;
    Push(e);
  }
  void OnCompactionCompleted(const obs::CompactionJobInfo& info) override {
    Event e;
    e.kind = kCompactionEnd;
    e.compaction = info;
    Push(e);
  }
  void OnWriteStallChange(const obs::WriteStallInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    stalls_.push_back(info);
  }

  std::vector<Event> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  std::vector<obs::WriteStallInfo> stalls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stalls_;
  }

 private:
  void Push(const Event& e) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
  }

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::vector<obs::WriteStallInfo> stalls_;
};

const char* ExecutorName(CompactionMode mode) {
  switch (mode) {
    case CompactionMode::kSCP:   return "SCP";
    case CompactionMode::kPCP:   return "PCP";
    case CompactionMode::kSPPCP: return "S-PPCP";
    case CompactionMode::kCPPCP: return "C-PPCP";
  }
  return "?";
}

class EventListenerTest : public ::testing::TestWithParam<CompactionMode> {
 protected:
  EventListenerTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.compaction_mode = test::DbExecutor(GetParam());
    options_.compute_parallelism =
        GetParam() == CompactionMode::kCPPCP ? 3 : 1;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    options_.subtask_bytes = 16 << 10;
    options_.listeners.push_back(&listener_);
  }

  void OpenFillClose() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    std::unique_ptr<DB> db(raw);
    WorkloadGenerator gen(4000, 16, 100, KeyOrder::kRandom);
    for (uint64_t i = 0; i < gen.num_entries(); i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
    }
    ASSERT_TRUE(db->WaitForCompactions().ok());
  }

  SimEnv env_{test::DbDevice(GetParam())};
  Options options_;
  RecordingListener listener_;
};

TEST_P(EventListenerTest, BeginPrecedesCompletedAndJobIdsAreMonotone) {
  OpenFillClose();
  const std::vector<RecordingListener::Event> events = listener_.events();

  size_t flush_begin = 0, flush_end = 0, comp_begin = 0, comp_end = 0;
  uint64_t last_begin_job_id = 0;
  std::set<uint64_t> begun, completed;
  for (const auto& e : events) {
    const bool is_begin = e.kind == RecordingListener::kFlushBegin ||
                          e.kind == RecordingListener::kCompactionBegin;
    const uint64_t job_id = (e.kind == RecordingListener::kFlushBegin ||
                             e.kind == RecordingListener::kFlushEnd)
                                ? e.flush.job_id
                                : e.compaction.job_id;
    EXPECT_GT(job_id, 0u);
    if (is_begin) {
      // One shared sequence: every Begin — flush or compaction — carries
      // a larger id than every Begin before it.
      EXPECT_GT(job_id, last_begin_job_id);
      last_begin_job_id = job_id;
      EXPECT_TRUE(begun.insert(job_id).second) << "duplicate Begin " << job_id;
    } else {
      EXPECT_TRUE(begun.count(job_id)) << "Completed before Begin " << job_id;
      EXPECT_TRUE(completed.insert(job_id).second)
          << "duplicate Completed " << job_id;
    }
    switch (e.kind) {
      case RecordingListener::kFlushBegin:      flush_begin++; break;
      case RecordingListener::kFlushEnd:        flush_end++; break;
      case RecordingListener::kCompactionBegin: comp_begin++; break;
      case RecordingListener::kCompactionEnd:   comp_end++; break;
    }
  }

  // The tiny write buffer forces many flushes and at least one major
  // compaction, and every Begin got its Completed.
  EXPECT_GT(flush_begin, 0u);
  EXPECT_GT(comp_begin, 0u);
  EXPECT_EQ(flush_begin, flush_end);
  EXPECT_EQ(comp_begin, comp_end);
  EXPECT_EQ(begun, completed);
}

TEST_P(EventListenerTest, CompletedEventsCarryMeasurements) {
  OpenFillClose();
  for (const auto& e : listener_.events()) {
    if (e.kind == RecordingListener::kFlushEnd) {
      ASSERT_TRUE(e.flush.status.ok()) << e.flush.status.ToString();
      EXPECT_GT(e.flush.file_number, 0u);
      EXPECT_GT(e.flush.entries, 0u);
      EXPECT_GT(e.flush.output_bytes, 0u);
      EXPECT_GT(e.flush.micros, 0u);
    } else if (e.kind == RecordingListener::kCompactionEnd) {
      const obs::CompactionJobInfo& c = e.compaction;
      ASSERT_TRUE(c.status.ok()) << c.status.ToString();
      EXPECT_STREQ(ExecutorName(test::DbExecutor(GetParam())), c.executor);
      EXPECT_GT(c.input_files, 0);
      EXPECT_GT(c.input_bytes, 0u);
      EXPECT_GT(c.profile.subtasks, 0u);
      EXPECT_GT(c.profile.output_bytes, 0u);
      EXPECT_GT(c.profile.wall_nanos, 0u);
      // The advisor's food: nonzero measured time in each pipeline stage.
      EXPECT_GT(c.profile.nanos[kStepRead], 0u);
      EXPECT_GT(c.profile.ComputeNanos(), 0u);
      EXPECT_GT(c.profile.nanos[kStepWrite], 0u);
    }
  }
}

TEST_P(EventListenerTest, StallTransitionsChainAndEndNormal) {
  OpenFillClose();
  obs::WriteStallCondition previous = obs::WriteStallCondition::kNormal;
  for (const obs::WriteStallInfo& s : listener_.stalls()) {
    EXPECT_EQ(previous, s.previous);  // no skipped transitions
    EXPECT_NE(s.condition, s.previous);
    previous = s.condition;
  }
  // MakeRoomForWrite restores kNormal once room exists, so a quiesced DB
  // never ends mid-stall.
  EXPECT_EQ(obs::WriteStallCondition::kNormal, previous);
}

TEST_P(EventListenerTest, EventLoggerWritesGrepableLogLines) {
  OpenFillClose();  // DB closed: LOG complete, including the final stats
  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, "/db/LOG", &log).ok());
  EXPECT_NE(std::string::npos, log.find("EVENT flush_begin"));
  EXPECT_NE(std::string::npos, log.find("EVENT flush_end"));
  EXPECT_NE(std::string::npos, log.find("EVENT compaction_begin"));
  EXPECT_NE(std::string::npos, log.find("EVENT compaction_end"));
  EXPECT_NE(std::string::npos,
            log.find(std::string("executor=") +
                     ExecutorName(test::DbExecutor(GetParam()))));
  EXPECT_NE(std::string::npos, log.find("closing DB"));
}

INSTANTIATE_TEST_SUITE_P(AllModes, EventListenerTest,
                         ::testing::Values(CompactionMode::kSCP,
                                           CompactionMode::kPCP,
                                           CompactionMode::kSPPCP,
                                           CompactionMode::kCPPCP),
                         [](const auto& info) {
                           // gtest names must be alnum: drop the dashes.
                           std::string name = ExecutorName(info.param);
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

}  // namespace
}  // namespace pipelsm
