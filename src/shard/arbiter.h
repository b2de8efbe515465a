// CompactionArbiter: fleet-wide compaction admission (docs/SHARDING.md).
//
// One arbiter owns a budget of compute workers shared by every shard of
// a ShardedDB. It chooses nothing: each shard's own CompactionScheduler
// picks the procedure and k, and the shard's background thread calls
// Admit() with that choice. The arbiter ranks the waiting jobs, grants
// the front-runner min(its k, free workers) and blocks the rest. A grant
// SMALLER than the choice is the arbiter shrinking the job to fit the
// fleet (counted in `shrinks`; a C-PPCP choice shrunk to one worker runs
// PCP); the workers come back when Release() frees them. I/O
// parallelism is not the arbiter's to hand out: the shards share the
// Env's stripe (DESIGN.md decision 14).
//
// Starvation-freedom: every time a job is granted, every other waiter's
// passover count rises; a waiter passed over kMaxPassovers (3) times is
// granted as soon as one worker is free, ahead of any higher-gain
// newcomer. So a long-running big-gain job cannot pin a low-gain shard
// in the queue forever.
//
// Thread-safe; never calls back into a DB (CompactionGovernor contract).
// GetProperty("pipelsm.arbiter") on a ShardedDB renders ToJson().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/compaction/scheduler.h"
#include "src/obs/metrics.h"

namespace pipelsm::shard {

struct ArbiterOptions {
  // Fleet-wide compute workers. A worker is one unit of compute
  // parallelism (a core in Eq. 6 terms); every admitted job holds at
  // least one, so this also bounds the number of jobs at once.
  int compute_workers = 4;

  // arbiter.* instruments land here, or in a registry of the arbiter's
  // own when null.
  obs::MetricsRegistry* metrics = nullptr;
};

class CompactionArbiter : public CompactionGovernor {
 public:
  explicit CompactionArbiter(const ArbiterOptions& options);
  ~CompactionArbiter() override;

  CompactionArbiter(const CompactionArbiter&) = delete;
  CompactionArbiter& operator=(const CompactionArbiter&) = delete;

  CompactionGrant Admit(const CompactionAdmissionRequest& request,
                        const std::function<bool()>& abort) override;
  void Release(uint64_t grant_id) override;

  // The GetProperty("pipelsm.arbiter") payload: budget, in-use + peak
  // workers, running grants (shard/level/procedure/k), waiting
  // count, grant/shrink/forced totals.
  std::string ToJson() const;

  // Test accessors.
  int workers_in_use() const;
  int peak_workers() const;
  uint64_t grants() const;
  uint64_t shrinks() const;
  uint64_t forced_grants() const;
  size_t waiting() const;
  int compute_workers() const { return opts_.compute_workers; }

 private:
  struct Waiter {
    uint64_t seq = 0;             // FIFO tiebreak
    CompactionAdmissionRequest request;
    int passovers = 0;
  };
  struct Grant {
    int shard_id = -1;
    int level = 0;
    CompactionMode mode = CompactionMode::kPCP;
    int workers = 1;  // the grant's k
  };

  // REQUIRES: mu_ held. True iff `w` is the waiter the policy would pick
  // next AND a floor is free.
  bool EligibleLocked(const Waiter& w) const;
  // REQUIRES: mu_ held. The waiter the ranking picks first, or nullptr.
  const Waiter* FrontLocked() const;
  // REQUIRES: mu_ held. Builds the grant for `w` with the free budget.
  CompactionGrant GrantLocked(const Waiter& w);

  const ArbiterOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Waiter> waiters_;   // keyed by seq
  std::map<uint64_t, Grant> running_;    // keyed by grant id
  uint64_t next_seq_ = 1;
  uint64_t next_grant_id_ = 1;
  int workers_in_use_ = 0;
  int peak_workers_ = 0;

  obs::MetricsRegistry own_metrics_;  // used when opts_.metrics is null
  obs::Gauge* workers_gauge_ = nullptr;
  obs::Gauge* waiting_gauge_ = nullptr;
  obs::Counter* grants_counter_ = nullptr;
  obs::Counter* shrinks_counter_ = nullptr;
  obs::Counter* forced_counter_ = nullptr;
  obs::HistogramMetric* wait_micros_ = nullptr;
};

}  // namespace pipelsm::shard
