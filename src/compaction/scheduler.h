// CompactionScheduler: the advisor's verdict, acted on.
//
// PR 2's BottleneckAdvisor evaluates the paper's Eqs. 1-7 on a decayed
// profile of completed compactions and *reports* which procedure §III-C
// prescribes. This class closes that loop: at every compaction admission
// the DB asks it which executor (SCP / PCP / C-PPCP) and how many compute
// workers k the *current* profile calls for, so the procedure tracks
// workload shifts (value size, compressibility, device regime) instead of
// freezing at DB::Open. The paper's own evaluation is the motivation: the
// best procedure flips between S-PPCP and C-PPCP as the pipeline moves
// between I/O- and CPU-bound (Figures 6 and 12). S-PPCP is PCP on a
// striped device, so an I/O-bound profile gets PCP here and its
// parallelism from the Env.
//
// Decision rule per admission, on the advisor's decayed StepTimes t:
//   1. Before `warmup_jobs` completed compactions (or with adaptive off)
//      the static Options choice applies verbatim.
//   2. model::Prescribe(t, max_compute_workers) picks the target: C-PPCP
//      at the capped Eq. 6 saturation k when compute limits Eq. 2 and the
//      gain reaches model::kMinParallelGain, plain PCP otherwise, or SCP
//      when even pipelining gains ~nothing (Eq. 3 speedup below
//      model::kMinPipelineGain). The advisor reports the same call with
//      the same cap.
//   3. Hysteresis: a choice that differs from the current one must be
//      prescribed on `hysteresis_jobs` *consecutive* admissions before
//      the scheduler switches, so one noisy profile cannot flap the
//      pipeline shape.
//
// It is the one chooser: every engine, sharded or not, asks its own
// scheduler at each compaction admission. A fleet arbiter only rations
// workers to the choice (src/shard/arbiter.h); value-log GC passes are
// not decisions.
//
// Thread-safe: Choose (background compaction thread) and ToJson
// (GetProperty("pipelsm.scheduler"), any thread) may race.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "src/db/options.h"
#include "src/model/model.h"
#include "src/obs/metrics.h"

namespace pipelsm {

struct SchedulerOptions {
  bool adaptive = false;

  // The static configuration, used before warmup / with adaptive off.
  CompactionMode static_mode = CompactionMode::kPCP;
  int static_compute_parallelism = 1;

  // Cap on the k the scheduler may choose (Options::max_compute_workers);
  // the lower bound is always 1.
  int max_compute_workers = 4;

  int hysteresis_jobs = 3;
  int warmup_jobs = 2;

  // The one place the Options scheduling knobs are clamped into range.
  static SchedulerOptions FromOptions(const Options& options);
};

// One compaction's procedure and compute workers, as the engine's
// CompactionScheduler chose them.
struct CompactionChoice {
  CompactionMode mode = CompactionMode::kPCP;
  int compute_parallelism = 1;
  bool adaptive = false;     // false: static config or warmup fallback
  // The Eq. 7 gain over PCP that model::Prescribe reported for this
  // choice; 1.0 for a static, warm-up or held choice. A fleet arbiter
  // ranks its waiters by it.
  double gain = 1.0;
  std::string rationale;     // one line for EVENT compaction_begin / info
};

// What one engine tells its governor when it wants to compact or GC.
struct CompactionAdmissionRequest {
  int shard_id = -1;                // Options::shard_id (-1: unsharded)
  int level = 0;                    // compaction input level (-1 for GC)
  // Value-log garbage collection (docs/VALUE_LOG.md): competes for the
  // same worker budget as compactions but ranks below every
  // non-forced compaction — reclaiming dead value bytes is maintenance,
  // shrinking read amplification is not.
  bool is_gc = false;
  // The engine scheduler's choice (the PCP default for a GC pass).
  CompactionChoice choice;
};

// The governor's answer: the choice that runs. `granted == false` means
// the engine must yield the admission slot (its background loop
// re-schedules); on success the engine runs `mode` with the given
// parallelism — per-job inputs, never read back from mutable shared
// state mid-run — and MUST call Release(id) when the job, or its failure
// path, finishes (ScopedGrant does both).
struct CompactionGrant : CompactionChoice {
  bool granted = false;
  uint64_t id = 0;
};

// Fleet admission (docs/SHARDING.md). An engine with
// Options::compaction_governor set (a ShardedDB's CompactionArbiter,
// shared by every shard) passes each compaction's choice and each
// value-log GC pass through it; without one the choice runs at once.
// Admit() blocks until the governor hands out a budget share or `abort`
// returns true. Implementations must be thread-safe and must not call
// back into any DB.
class CompactionGovernor {
 public:
  virtual ~CompactionGovernor();

  // Blocks until a grant is available or `abort()` turns true (polled at
  // implementation-defined intervals; the caller passes e.g. "DB is
  // shutting down or a flush is pending"). Never holds DB mutexes.
  virtual CompactionGrant Admit(const CompactionAdmissionRequest& request,
                                const std::function<bool()>& abort) = 0;

  // Returns the grant's workers to the pool. Must tolerate ids
  // from grants already released (no-op) but is called exactly once per
  // successful Admit.
  virtual void Release(uint64_t grant_id) = 0;
};

// One admission: Admit() on construction, Release() once, at the latest
// when it goes out of scope. With no governor the request's own choice
// is granted at once.
class ScopedGrant {
 public:
  ScopedGrant(CompactionGovernor* governor,
              const CompactionAdmissionRequest& request,
              const std::function<bool()>& abort)
      : governor_(governor),
        grant_(governor != nullptr ? governor->Admit(request, abort)
                                   : CompactionGrant{request.choice, true}) {}
  ~ScopedGrant() { Release(); }

  ScopedGrant(const ScopedGrant&) = delete;
  ScopedGrant& operator=(const ScopedGrant&) = delete;

  bool granted() const { return grant_.granted; }
  const CompactionGrant& grant() const { return grant_; }

  void Release() {
    if (grant_.granted && !released_ && governor_ != nullptr) {
      governor_->Release(grant_.id);
    }
    released_ = true;
  }

 private:
  CompactionGovernor* const governor_;
  const CompactionGrant grant_;
  bool released_ = false;
};

class CompactionScheduler {
 public:
  // scheduler.* counters (decisions, switches, per-procedure choice
  // counts) land in `metrics`, or in a registry of the scheduler's own
  // when it is null.
  CompactionScheduler(const SchedulerOptions& options,
                      obs::MetricsRegistry* metrics);

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  // Rules on one compaction with the advisor's decayed profile and the
  // number of jobs it has digested. Deterministic given the same profile
  // sequence.
  CompactionChoice Choose(const model::StepTimes& profile,
                          uint64_t advisor_jobs);

  uint64_t decisions() const;
  uint64_t switches() const;

  // The GetProperty("pipelsm.scheduler") payload (docs/TUNING.md):
  // current choice, pending candidate + streak, decision/switch counts.
  std::string ToJson() const;

 private:
  struct Choice {
    CompactionMode mode = CompactionMode::kPCP;
    int compute_parallelism = 1;

    bool operator==(const Choice& o) const {
      return mode == o.mode && compute_parallelism == o.compute_parallelism;
    }
    bool operator!=(const Choice& o) const { return !(*this == o); }
  };

  // REQUIRES: mu_ held. `choice` with last_rationale_, counted.
  CompactionChoice Render(const Choice& choice, bool adaptive,
                          double gain) const;

  const SchedulerOptions opts_;

  mutable std::mutex mu_;
  Choice current_;           // what jobs run as right now
  Choice candidate_;         // differing target accumulating a streak
  int candidate_streak_ = 0; // consecutive admissions prescribing it
  std::string last_rationale_;

  obs::MetricsRegistry own_metrics_;  // used when none was given
  obs::Counter* decisions_counter_ = nullptr;
  obs::Counter* switches_counter_ = nullptr;
  obs::Counter* mode_counters_[4] = {nullptr, nullptr, nullptr, nullptr};
};

}  // namespace pipelsm
