// CompactionArbiter: it grants each shard's own choice, never more; the
// fleet's compute workers are a hard ceiling under concurrent admission,
// a second job is shrunk to fit the free workers, a blocked waiter
// honors its abort predicate, and a repeatedly passed-over waiter is
// force-granted (starvation-freedom).
#include "src/shard/arbiter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace pipelsm::shard {
namespace {

// What a shard's scheduler hands the arbiter: a procedure, its k and
// the gain its prescription reported.
CompactionChoice Choice(CompactionMode mode, int k, double gain,
                        bool adaptive = true) {
  CompactionChoice c;
  c.mode = mode;
  c.compute_parallelism = k;
  c.gain = gain;
  c.adaptive = adaptive;
  c.rationale = "shard choice";
  return c;
}

// A PCP job on one worker (an I/O-bound or static choice), gain 1.0.
CompactionChoice Pcp() { return Choice(CompactionMode::kPCP, 1, 1.0); }
// A CPU-bound job: C-PPCP on 3 workers, reported gain 2.5x.
CompactionChoice Cppcp3() { return Choice(CompactionMode::kCPPCP, 3, 2.5); }

CompactionAdmissionRequest Request(int shard, const CompactionChoice& c) {
  CompactionAdmissionRequest r;
  r.shard_id = shard;
  r.level = 1;
  r.choice = c;
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
  o.compute_workers = 2;
  CompactionArbiter arb(o);

  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; i++) {
    threads.emplace_back([&arb, &completed, &o, i] {
      CompactionGrant g =
          arb.Admit(Request(i, (i % 2) ? Pcp() : Cppcp3()), Never);
      EXPECT_TRUE(g.granted);
      EXPECT_LE(g.compute_parallelism, 2);
      EXPECT_LE(arb.workers_in_use(), o.compute_workers);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      completed.fetch_add(1);
      arb.Release(g.id);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(6, completed.load());
  EXPECT_EQ(6u, arb.grants());
  EXPECT_LE(arb.peak_workers(), o.compute_workers);
  EXPECT_GE(arb.peak_workers(), 1);
  EXPECT_EQ(0, arb.workers_in_use());
  EXPECT_EQ(0u, arb.waiting());
}

TEST(Arbiter, SecondJobIsShrunkToTheFreeUnits) {
  ArbiterOptions o;
  o.compute_workers = 4;
  CompactionArbiter arb(o);

  // Alone, the C-PPCP choice gets its 3 workers: the choice, its
  // adaptive flag and its rationale pass through, plus the fleet note.
  CompactionGrant a = arb.Admit(Request(0, Cppcp3()), Never);
  ASSERT_TRUE(a.granted);
  EXPECT_EQ(CompactionMode::kCPPCP, a.mode);
  EXPECT_EQ(3, a.compute_parallelism);
  EXPECT_TRUE(a.adaptive);
  EXPECT_EQ(0u, a.rationale.find("shard choice; arbiter grant: C-PPCP k=3"))
      << a.rationale;
  EXPECT_EQ(0u, arb.shrinks());

  // The same choice admitted while A runs only finds 1 free worker:
  // granted, but shrunk to one worker, which runs PCP — and the shrink
  // is counted.
  CompactionGrant b = arb.Admit(Request(1, Cppcp3()), Never);
  ASSERT_TRUE(b.granted);
  EXPECT_EQ(CompactionMode::kPCP, b.mode);
  EXPECT_EQ(1, b.compute_parallelism);
  EXPECT_EQ(1u, arb.shrinks());
  EXPECT_EQ(o.compute_workers, arb.workers_in_use());

  // A's workers come back on release.
  arb.Release(a.id);
  arb.Release(b.id);
  EXPECT_EQ(0, arb.workers_in_use());
  EXPECT_EQ(4, arb.peak_workers());  // 3 (A) + 1 (B)
}

// An I/O-bound profile prescribes PCP on one worker: it is not shrunk,
// and it leaves the rest of the budget free.
TEST(Arbiter, IoBoundJobHoldsOneWorker) {
  ArbiterOptions o;
  o.compute_workers = 4;
  CompactionArbiter arb(o);

  CompactionGrant g = arb.Admit(Request(0, Pcp()), Never);
  ASSERT_TRUE(g.granted);
  EXPECT_EQ(CompactionMode::kPCP, g.mode);
  EXPECT_EQ(1, g.compute_parallelism);
  EXPECT_EQ(1, arb.workers_in_use());
  EXPECT_EQ(0u, arb.shrinks());
  arb.Release(g.id);
  EXPECT_EQ(0, arb.workers_in_use());
}

// A static choice runs as chosen: SCP and PCP on one worker are not
// shrunk and leave the rest of the budget free, and a static k=2 PCP
// (two key-range sub-jobs) is never widened to the free workers.
TEST(Arbiter, StaticChoiceRunsAsChosen) {
  ArbiterOptions o;
  o.compute_workers = 4;
  CompactionArbiter arb(o);

  CompactionGrant scp = arb.Admit(
      Request(0, Choice(CompactionMode::kSCP, 1, 1.0, /*adaptive=*/false)),
      Never);
  ASSERT_TRUE(scp.granted);
  EXPECT_EQ(CompactionMode::kSCP, scp.mode);
  EXPECT_EQ(1, scp.compute_parallelism);
  EXPECT_FALSE(scp.adaptive);
  CompactionGrant pcp = arb.Admit(
      Request(1, Choice(CompactionMode::kPCP, 2, 1.0, /*adaptive=*/false)),
      Never);
  ASSERT_TRUE(pcp.granted);
  EXPECT_EQ(CompactionMode::kPCP, pcp.mode);
  EXPECT_EQ(2, pcp.compute_parallelism);
  EXPECT_EQ(3, arb.workers_in_use());
  EXPECT_EQ(0u, arb.shrinks());
  arb.Release(scp.id);
  arb.Release(pcp.id);
  EXPECT_EQ(0, arb.workers_in_use());
}

TEST(Arbiter, AbortedWaiterReturnsUngranted) {
  ArbiterOptions o;
  o.compute_workers = 1;
  CompactionArbiter arb(o);

  CompactionGrant hold = arb.Admit(Request(0, Pcp()), Never);
  ASSERT_TRUE(hold.granted);

  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    CompactionGrant g =
        arb.Admit(Request(1, Pcp()), [&] { return stop.load(); });
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
  o.compute_workers = 1;
  CompactionArbiter arb(o);

  // The budget is held continuously; a low-gain waiter (a static PCP
  // choice, gain 1.0) queues behind a stream of high-gain (C-PPCP) jobs.
  CompactionGrant hold = arb.Admit(Request(0, Cppcp3()), Never);
  ASSERT_TRUE(hold.granted);

  std::atomic<bool> low_granted{false};
  std::thread low_thread([&] {
    CompactionGrant g = arb.Admit(
        Request(9, Choice(CompactionMode::kPCP, 1, 1.0, /*adaptive=*/false)),
        Never);
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
      p.set_value(arb.Admit(Request(1 + i, Cppcp3()), Never));
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
    p.set_value(arb.Admit(Request(7, Cppcp3()), Never));
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
  o.compute_workers = 3;
  CompactionArbiter arb(o);

  CompactionGrant g = arb.Admit(Request(0, Pcp()), Never);
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
