// CompactionScheduler: the engine's one compaction controller. It learns
// the step profile, chooses each job's procedure from it, and admits the
// job.
//
// Learning: every completed compaction's and value-log GC pass's
// StepProfile is folded into an exponentially decayed per-sub-task
// profile (AddJob), so it tracks workload shifts. AdvisorJson() evaluates
// the paper's Eqs. 1-7 on it: the Eq. 2 bottleneck, every procedure's
// predicted bandwidth next to the measured one, and the §III-C
// recommendation (GetProperty("pipelsm.advisor")). The regime is also the
// `advisor.regime` gauge (0 none, 1 io-bound, 2 cpu-bound).
//
// Choosing, at every compaction admission, on the decayed StepTimes t
// (the best procedure flips as the pipeline moves between I/O- and
// CPU-bound, Figures 6 and 12):
//   1. Before scheduler_warmup_jobs digested jobs (or with
//      adaptive_compaction off) the static Options choice applies.
//   2. model::Prescribe(t, max_compute_workers) picks the target: C-PPCP
//      at the capped Eq. 6 saturation k when compute limits Eq. 2 and the
//      gain reaches model::kMinParallelGain, SCP when Eq. 3 falls below
//      model::kMinPipelineGain, PCP otherwise. S-PPCP is PCP on a striped
//      device, so an I/O-bound profile gets PCP and its parallelism from
//      the Env. The advisor report makes the same call with the same cap.
//   3. Hysteresis: a differing target must be prescribed on
//      scheduler_hysteresis_jobs consecutive admissions before the
//      controller switches, so one noisy profile cannot flap the pipeline.
//
// Admitting: Admit() stamps the choice with Options::shard_id and passes
// it through Options::compaction_governor, which only rations workers to
// it (src/shard/arbiter.h); AdmitGc() does the same for a GC pass, which
// is not a decision.
//
// Thread-safe: AddJob, Admit and the JSON reports may race.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "src/db/options.h"
#include "src/model/model.h"
#include "src/obs/metrics.h"

namespace pipelsm {

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
  // Reads the scheduling knobs of `options`, clamped into range here and
  // nowhere else, and its fleet wiring (compaction_governor, shard_id).
  // The scheduler.* counters and the advisor.regime gauge land in
  // `metrics`, or in a registry of the controller's own when null.
  CompactionScheduler(const Options& options, obs::MetricsRegistry* metrics);

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  // Folds one completed job into the decayed profile; one with zero
  // sub-tasks or zero wall time is ignored (nothing to average).
  void AddJob(const StepProfile& profile);

  // Jobs digested so far, and their decayed per-sub-task step times.
  uint64_t jobs() const;
  model::StepTimes Profile() const;

  // "none" before the first job, then "cpu-bound" or "io-bound": the
  // "regime" field of AdvisorJson().
  const char* Regime() const;

  // Rules on one compaction with a decayed profile and the number of
  // jobs behind it. Deterministic given the same profile sequence.
  CompactionChoice Choose(const model::StepTimes& profile,
                          uint64_t advisor_jobs);

  // The one admission path: Choose() on this controller's own profile,
  // then the governor, which blocks until it grants or `abort()` turns
  // true; without a governor the choice runs at once. AdmitGc() admits a
  // value-log GC pass at the GC tier with the PCP default and chooses
  // nothing. REQUIRES: no DB mutex held.
  ScopedGrant Admit(int level, const std::function<bool()>& abort);
  ScopedGrant AdmitGc(const std::function<bool()>& abort);

  bool adaptive() const { return adaptive_; }
  uint64_t decisions() const;
  uint64_t switches() const;

  // The GetProperty("pipelsm.scheduler") payload (docs/TUNING.md):
  // current choice, pending candidate + streak, decision/switch counts.
  std::string ToJson() const;

  // The GetProperty("pipelsm.advisor") payload (docs/OBSERVABILITY.md
  // "Bottleneck advisor"). Always valid JSON; before the first job it
  // carries {"jobs":0} and a note.
  std::string AdvisorJson() const;

 private:
  struct Choice {
    CompactionMode mode = CompactionMode::kPCP;
    int compute_parallelism = 1;
    bool operator==(const Choice&) const = default;
  };

  static const char* RegimeOf(uint64_t jobs, const model::StepTimes& t);

  // REQUIRES: mu_ held.
  CompactionChoice ChooseLocked(const model::StepTimes& profile,
                                uint64_t advisor_jobs);
  // REQUIRES: mu_ held. `choice` with last_rationale_, counted.
  CompactionChoice Render(const Choice& choice, bool adaptive,
                          double gain) const;

  const bool adaptive_;
  const int max_compute_workers_;  // the cap on k; the floor is 1
  const int hysteresis_jobs_;
  const int warmup_jobs_;
  CompactionGovernor* const governor_;
  const int shard_id_;

  obs::MetricsRegistry own_metrics_;  // used when none was given
  obs::Gauge* regime_gauge_ = nullptr;
  obs::Counter* decisions_counter_ = nullptr;
  obs::Counter* switches_counter_ = nullptr;
  obs::Counter* mode_counters_[4] = {nullptr, nullptr, nullptr, nullptr};

  mutable std::mutex mu_;
  // The decayed profile.
  uint64_t jobs_ = 0;
  model::StepTimes ema_;          // per-sub-task step seconds
  double measured_wall_bps_ = 0;  // decayed input_bytes / wall_nanos
  double measured_seq_bps_ = 0;   // decayed Eq. 1 view (sum of steps)
  // The choice.
  Choice current_;            // what jobs run as right now
  Choice candidate_;          // differing target accumulating a streak
  int candidate_streak_ = 0;  // consecutive admissions prescribing it
  std::string last_rationale_;
};

}  // namespace pipelsm
