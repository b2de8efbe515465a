// BottleneckAdvisor: the paper's analytic model (Eqs. 1–7, §III) run
// online against the live system.
//
// Every completed compaction's measured StepProfile is folded into an
// exponentially decayed running per-sub-task step-time profile (recent
// jobs dominate, so the advisor tracks workload shifts). On demand it
// evaluates the model on that profile and reports, as JSON:
//
//   * which pipeline stage (read / compute / write) is the Eq. 2
//     bottleneck, and whether the regime is I/O- or CPU-bound;
//   * the predicted bandwidth of every procedure — B_scp (Eq. 1),
//     B_pcp (Eq. 2), B_s-ppcp (Eq. 4) and B_c-ppcp (Eq. 6) at their
//     saturation k — next to the bandwidth actually measured;
//   * the recommended procedure and parallelism k: model::Prescribe, the
//     paper's §III-C prescription of adding parallelism to whichever
//     stage limits Eq. 2, called with the engine's per-job caps exactly as
//     the adaptive CompactionScheduler calls it, so the recommendation is
//     the scheduler's target for the same profile.
//
// Exposed as DB::GetProperty("pipelsm.advisor"); the DB feeds it through
// its internal EventListener. Thread-safe: AddJob and ToJson may race.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "src/model/model.h"
#include "src/util/stopwatch.h"

namespace pipelsm::obs {

class BottleneckAdvisor {
 public:
  // `max_lanes` / `max_workers` cap the recommended S-PPCP / C-PPCP k
  // (the engine's Options::max_stripe_width / max_compute_workers; <= 0
  // is no cap). `decay` is the weight of the newest job in the running
  // profile (0 < decay <= 1); 0.3 keeps ~the last half-dozen jobs
  // relevant.
  explicit BottleneckAdvisor(int max_lanes = 0, int max_workers = 0,
                             double decay = 0.3);

  BottleneckAdvisor(const BottleneckAdvisor&) = delete;
  BottleneckAdvisor& operator=(const BottleneckAdvisor&) = delete;

  // Folds one completed job's measurements in. Jobs with zero sub-tasks
  // or zero wall time are ignored (nothing to average).
  void AddJob(const StepProfile& profile);

  uint64_t jobs() const;

  // The decayed per-sub-task step times the model is evaluated on.
  model::StepTimes Profile() const;

  // "none" before the first job, then "cpu-bound" or "io-bound": the
  // "regime" field of ToJson().
  const char* Regime() const;

  // The advisor report (see docs/OBSERVABILITY.md "Bottleneck advisor"
  // for the schema). Always valid JSON; before the first job it carries
  // {"jobs":0} and empty predictions.
  std::string ToJson() const;

 private:
  static const char* RegimeOf(uint64_t jobs, const model::StepTimes& t);

  const int max_lanes_;
  const int max_workers_;
  const double decay_;
  mutable std::mutex mu_;
  uint64_t jobs_ = 0;
  model::StepTimes ema_;          // decayed per-sub-task step seconds
  double measured_wall_bps_ = 0;  // decayed input_bytes / wall_nanos
  double measured_seq_bps_ = 0;   // decayed Eq. 1 view (sum of steps)
};

}  // namespace pipelsm::obs
