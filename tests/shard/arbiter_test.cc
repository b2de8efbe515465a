// CompactionArbiter: the fleet's compute workers are a hard ceiling under
// concurrent admission, a second job is shrunk to fit the free workers, a
// blocked
// waiter honors its abort predicate, and a repeatedly passed-over waiter
// is force-granted (starvation-freedom).
#include "src/shard/arbiter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "src/model/model.h"

namespace pipelsm::shard {
namespace {

model::StepTimes Make(double read_s, double compute_s, double write_s) {
  model::StepTimes t;
  t.seconds[kStepRead] = read_s;
  t.seconds[kStepChecksum] = compute_s / 5;
  t.seconds[kStepDecompress] = compute_s / 5;
  t.seconds[kStepSort] = compute_s / 5;
  t.seconds[kStepCompress] = compute_s / 5;
  t.seconds[kStepRechecksum] = compute_s / 5;
  t.seconds[kStepWrite] = write_s;
  t.subtask_bytes = 1 << 20;
  return t;
}

// I/O-bound (HDD regime): runs PCP on one worker, solo gain 1.0; its
// parallelism is the Env's stripe.
model::StepTimes IoBound() { return Make(0.030, 0.010, 0.020); }
// CPU-bound (SSD regime): Eq. 6 saturates at 3 workers, solo gain 2.5x.
model::StepTimes CpuBound() { return Make(0.010, 0.030, 0.012); }

CompactionAdmissionRequest Request(int shard, const model::StepTimes& t) {
  CompactionAdmissionRequest r;
  r.shard_id = shard;
  r.profile = t;
  r.advisor_jobs = 16;
  r.level = 1;
  r.input_bytes = 8 << 20;
  return r;
}

bool Never() { return false; }

// Spins until `pred` holds (tests only gate on arbiter-internal state
// that the thread under test is guaranteed to reach).
template <typename Pred>
void WaitFor(Pred pred) {
  for (int i = 0; i < 5000 && !pred(); i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

TEST(Arbiter, ConcurrentAdmitsNeverExceedBudget) {
  ArbiterOptions o;
  o.budget.compute_workers = 2;
  o.wait_poll_micros = 1000;
  CompactionArbiter arb(o);

  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; i++) {
    threads.emplace_back([&arb, &completed, &o, i] {
      CompactionGrant g =
          arb.Admit(Request(i, (i % 2) ? IoBound() : CpuBound()), Never);
      EXPECT_TRUE(g.granted);
      EXPECT_LE(arb.workers_in_use(), o.budget.compute_workers);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      completed.fetch_add(1);
      arb.Release(g.id);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(6, completed.load());
  EXPECT_EQ(6u, arb.grants());
  EXPECT_LE(arb.peak_workers(), o.budget.compute_workers);
  EXPECT_GE(arb.peak_workers(), 1);
  EXPECT_EQ(0, arb.workers_in_use());
  EXPECT_EQ(0u, arb.waiting());
}

TEST(Arbiter, SecondJobIsShrunkToTheFreeUnits) {
  ArbiterOptions o;
  o.budget.compute_workers = 4;
  CompactionArbiter arb(o);

  // Solo, the CPU-bound job saturates at 3 workers and gets them.
  CompactionGrant a = arb.Admit(Request(0, CpuBound()), Never);
  ASSERT_TRUE(a.granted);
  EXPECT_EQ(CompactionMode::kCPPCP, a.mode);
  EXPECT_EQ(3, a.compute_parallelism);
  EXPECT_TRUE(a.adaptive);
  EXPECT_EQ(0u, arb.shrinks());

  // The same job admitted while A runs only finds 1 free worker: granted,
  // but shrunk to the PCP floor — and the shrink is counted.
  CompactionGrant b = arb.Admit(Request(1, CpuBound()), Never);
  ASSERT_TRUE(b.granted);
  EXPECT_EQ(CompactionMode::kPCP, b.mode);
  EXPECT_EQ(1, b.compute_parallelism);
  EXPECT_EQ(1u, arb.shrinks());
  EXPECT_EQ(o.budget.compute_workers, arb.workers_in_use());

  // A's workers come back on release.
  arb.Release(a.id);
  arb.Release(b.id);
  EXPECT_EQ(0, arb.workers_in_use());
  EXPECT_EQ(4, arb.peak_workers());  // 3 (A) + 1 (B)
}

// An I/O-bound job runs PCP on one worker: it is not shrunk (its solo
// prescription is k = 1 too), and it leaves the rest of the budget free.
TEST(Arbiter, IoBoundJobHoldsOneWorker) {
  ArbiterOptions o;
  o.budget.compute_workers = 4;
  CompactionArbiter arb(o);

  CompactionGrant g = arb.Admit(Request(0, IoBound()), Never);
  ASSERT_TRUE(g.granted);
  EXPECT_EQ(CompactionMode::kPCP, g.mode);
  EXPECT_EQ(1, g.compute_parallelism);
  EXPECT_EQ(1, arb.workers_in_use());
  EXPECT_EQ(0u, arb.shrinks());
  arb.Release(g.id);
  EXPECT_EQ(0, arb.workers_in_use());
}

TEST(Arbiter, AbortedWaiterReturnsUngranted) {
  ArbiterOptions o;
  o.budget.compute_workers = 1;
  o.wait_poll_micros = 1000;
  CompactionArbiter arb(o);

  CompactionGrant hold = arb.Admit(Request(0, IoBound()), Never);
  ASSERT_TRUE(hold.granted);

  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    CompactionGrant g =
        arb.Admit(Request(1, IoBound()), [&] { return stop.load(); });
    EXPECT_FALSE(g.granted);
  });
  WaitFor([&] { return arb.waiting() == 1; });
  stop.store(true);
  waiter.join();
  EXPECT_EQ(0u, arb.waiting());

  arb.Release(hold.id);
  EXPECT_EQ(0, arb.workers_in_use());
}

TEST(Arbiter, PassedOverWaiterIsForceGranted) {
  ArbiterOptions o;
  o.budget.compute_workers = 1;
  o.wait_poll_micros = 1000;
  CompactionArbiter arb(o);

  // The budget is held continuously; a low-gain waiter (empty profile,
  // gain 1.0) queues behind a stream of high-gain (CPU-bound) jobs.
  CompactionGrant hold = arb.Admit(Request(0, CpuBound()), Never);
  ASSERT_TRUE(hold.granted);

  std::atomic<bool> low_granted{false};
  std::thread low_thread([&] {
    CompactionGrant g = arb.Admit(Request(9, model::StepTimes()), Never);
    EXPECT_TRUE(g.granted);
    low_granted.store(true);
    arb.Release(g.id);
  });
  WaitFor([&] { return arb.waiting() == 1; });

  // Three cycles: queue a high-gain waiter, free the budget — the
  // high-gain job outranks the low-gain one, which is passed over.
  for (int i = 0; i < 3; i++) {
    std::promise<CompactionGrant> p;
    std::future<CompactionGrant> f = p.get_future();
    std::thread hi([&arb, &p, i] {
      p.set_value(arb.Admit(Request(1 + i, CpuBound()), Never));
    });
    WaitFor([&] { return arb.waiting() == 2; });
    arb.Release(hold.id);
    hold = f.get();
    hi.join();
    ASSERT_TRUE(hold.granted);
    EXPECT_FALSE(low_granted.load()) << "cycle " << i;
  }

  // Passed over three times (the passover limit): the low-gain waiter is
  // now forced and must beat a fresh high-gain arrival to the next free
  // floor.
  std::promise<CompactionGrant> p;
  std::future<CompactionGrant> f = p.get_future();
  std::thread hi([&arb, &p] {
    p.set_value(arb.Admit(Request(7, CpuBound()), Never));
  });
  WaitFor([&] { return arb.waiting() == 2; });
  arb.Release(hold.id);
  low_thread.join();
  EXPECT_TRUE(low_granted.load());
  EXPECT_GE(arb.forced_grants(), 1u);

  CompactionGrant last = f.get();
  hi.join();
  ASSERT_TRUE(last.granted);
  arb.Release(last.id);
  EXPECT_EQ(0, arb.workers_in_use());
  EXPECT_EQ(1, arb.peak_workers());  // budget of 1 never exceeded
}

TEST(Arbiter, ToJsonCarriesBudgetAndCounters) {
  ArbiterOptions o;
  o.budget.compute_workers = 3;
  CompactionArbiter arb(o);

  CompactionGrant g = arb.Admit(Request(0, IoBound()), Never);
  ASSERT_TRUE(g.granted);
  const std::string json = arb.ToJson();
  EXPECT_NE(std::string::npos,
            json.find("\"compute_workers\":{\"budget\":3,\"in_use\":1"))
      << json;
  EXPECT_EQ(std::string::npos, json.find("lanes")) << json;
  EXPECT_NE(std::string::npos, json.find("\"running\":["));
  EXPECT_NE(std::string::npos, json.find("\"shard\":0"));
  arb.Release(g.id);
}

}  // namespace
}  // namespace pipelsm::shard
