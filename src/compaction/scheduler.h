// CompactionScheduler: the advisor's verdict, acted on.
//
// PR 2's BottleneckAdvisor evaluates the paper's Eqs. 1-7 on a decayed
// profile of completed compactions and *reports* which procedure §III-C
// prescribes. This class closes that loop: at every compaction admission
// the DB asks it which executor (SCP / PCP / S-PPCP / C-PPCP) and which
// parallelism degree k the *current* profile calls for, so the procedure
// tracks workload shifts (value size, compressibility, device regime)
// instead of freezing at DB::Open. The paper's own evaluation is the
// motivation: the best procedure flips between S-PPCP and C-PPCP as the
// pipeline moves between I/O- and CPU-bound (Figures 6 and 12).
//
// Decision rule per admission, on the advisor's decayed StepTimes t:
//   1. Before `warmup_jobs` completed compactions (or with adaptive off)
//      the static Options choice applies verbatim.
//   2. model::Prescribe(t, max_stripe_width, max_compute_workers) picks
//      the target: S-PPCP/C-PPCP at the capped Eq. 4/6 saturation k,
//      plain PCP when neither parallel variant's ideal gain reaches
//      model::kMinParallelGain, or SCP when even pipelining gains ~nothing
//      (Eq. 3 speedup below model::kMinPipelineGain). The advisor reports
//      the same call with the same caps.
//   3. Hysteresis: a choice that differs from the current one must be
//      prescribed on `hysteresis_jobs` *consecutive* admissions before
//      the scheduler switches, so one noisy profile cannot flap the
//      pipeline shape.
//
// It is the DB's default CompactionGovernor: its Admit grants at once,
// never blocks, and has nothing to release. A value-log GC request is
// granted without counting as a decision.
//
// Thread-safe: Admit (background compaction thread) and ToJson
// (GetProperty("pipelsm.scheduler"), any thread) may race.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "src/db/options.h"
#include "src/model/model.h"

namespace pipelsm {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

struct SchedulerOptions {
  bool adaptive = false;

  // The static configuration, used before warmup / with adaptive off.
  CompactionMode static_mode = CompactionMode::kPCP;
  int static_read_parallelism = 1;
  int static_compute_parallelism = 1;

  // Caps on the k the scheduler may choose (Options::max_*); the lower
  // bound is always 1.
  int max_compute_workers = 4;
  int max_stripe_width = 4;

  int hysteresis_jobs = 3;
  int warmup_jobs = 2;

  // The one place the Options scheduling knobs are clamped into range.
  static SchedulerOptions FromOptions(const Options& options);
};

// What one engine tells its governor when it wants to compact or GC.
struct CompactionAdmissionRequest {
  int shard_id = -1;                // Options::shard_id (-1: unsharded)
  model::StepTimes profile;         // advisor's decayed per-step times
  uint64_t advisor_jobs = 0;        // jobs the advisor has digested
  int level = 0;                    // compaction input level (-1 for GC)
  uint64_t input_bytes = 0;         // sum of input file sizes
  // Picker-predicted bytes-written amplification of the job
  // (docs/COMPACTION.md): ~1 for tiered pushes, (src+overlap)/src for
  // leveled spills. Lets a fleet governor weigh cheap reclamation
  // against expensive rewrites when ordering its queue.
  double predicted_write_amp = 1.0;
  // Value-log garbage collection (docs/VALUE_LOG.md): competes for the
  // same lane/worker budget as compactions but ranks below every
  // non-forced compaction — reclaiming dead value bytes is maintenance,
  // shrinking read amplification is not.
  bool is_gc = false;
};

// The governor's answer. `granted == false` means the engine must yield
// the admission slot (its background loop re-schedules); on success the
// engine runs `mode` with the given parallelism — per-job inputs, never
// read back from mutable shared state mid-run — and MUST call
// Release(id) when the job, or its failure path, finishes (ScopedGrant
// does both).
struct CompactionGrant {
  bool granted = false;
  uint64_t id = 0;
  CompactionMode mode = CompactionMode::kPCP;
  int read_parallelism = 1;
  int compute_parallelism = 1;
  bool adaptive = false;     // false: static config or warmup fallback
  std::string rationale;     // one line for EVENT compaction_begin / info
};

// Compaction admission. Every engine admits each compaction and value-log
// GC pass through one governor: Options::compaction_governor (a
// ShardedDB's CompactionArbiter, shared by every shard), or else the
// engine's own CompactionScheduler. Admit() blocks until the governor
// hands out a budget share or `abort` returns true. Implementations must
// be thread-safe and must not call back into any DB.
class CompactionGovernor {
 public:
  virtual ~CompactionGovernor();

  // Blocks until a grant is available or `abort()` turns true (polled at
  // implementation-defined intervals; the caller passes e.g. "DB is
  // shutting down or a flush is pending"). Never holds DB mutexes.
  virtual CompactionGrant Admit(const CompactionAdmissionRequest& request,
                                const std::function<bool()>& abort) = 0;

  // Returns the grant's lanes/workers to the pool. Must tolerate ids
  // from grants already released (no-op) but is called exactly once per
  // successful Admit.
  virtual void Release(uint64_t grant_id) = 0;
};

// One admission: Admit() on construction, Release() once, at the latest
// when it goes out of scope.
class ScopedGrant {
 public:
  ScopedGrant(CompactionGovernor* governor,
              const CompactionAdmissionRequest& request,
              const std::function<bool()>& abort)
      : governor_(governor), grant_(governor->Admit(request, abort)) {}
  ~ScopedGrant() { Release(); }

  ScopedGrant(const ScopedGrant&) = delete;
  ScopedGrant& operator=(const ScopedGrant&) = delete;

  bool granted() const { return grant_.granted; }
  const CompactionGrant& grant() const { return grant_; }

  void Release() {
    if (grant_.granted && !released_) governor_->Release(grant_.id);
    released_ = true;
  }

 private:
  CompactionGovernor* const governor_;
  const CompactionGrant grant_;
  bool released_ = false;
};

class CompactionScheduler : public CompactionGovernor {
 public:
  // `metrics` (nullable) receives scheduler.* counters: decisions,
  // switches, and per-procedure choice counts.
  CompactionScheduler(const SchedulerOptions& options,
                      obs::MetricsRegistry* metrics);

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  // Rules on one compaction with the advisor's decayed profile and how
  // many jobs it has digested (request.profile / advisor_jobs).
  // Deterministic given the same profile sequence; `abort` is unused.
  CompactionGrant Admit(const CompactionAdmissionRequest& request,
                        const std::function<bool()>& abort) override;
  void Release(uint64_t) override {}

  uint64_t decisions() const;
  uint64_t switches() const;

  // The GetProperty("pipelsm.scheduler") payload (docs/TUNING.md):
  // current choice, pending candidate + streak, decision/switch counts.
  std::string ToJson() const;

 private:
  struct Choice {
    CompactionMode mode = CompactionMode::kPCP;
    int read_parallelism = 1;
    int compute_parallelism = 1;

    bool operator==(const Choice& o) const {
      return mode == o.mode && read_parallelism == o.read_parallelism &&
             compute_parallelism == o.compute_parallelism;
    }
    bool operator!=(const Choice& o) const { return !(*this == o); }
  };

  // The §III-C target for one profile, bounds applied (no hysteresis).
  Choice Target(const model::StepTimes& t, std::string* why) const;

  CompactionGrant Render(const Choice& choice, bool adaptive,
                         std::string rationale) const;

  const SchedulerOptions opts_;

  mutable std::mutex mu_;
  Choice current_;           // what jobs run as right now
  Choice candidate_;         // differing target accumulating a streak
  int candidate_streak_ = 0; // consecutive admissions prescribing it
  uint64_t decisions_ = 0;
  uint64_t switches_ = 0;
  std::string last_rationale_;

  obs::Counter* decisions_counter_ = nullptr;
  obs::Counter* switches_counter_ = nullptr;
  obs::Counter* mode_counters_[4] = {nullptr, nullptr, nullptr, nullptr};
};

}  // namespace pipelsm
