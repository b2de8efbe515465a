#include "src/shard/arbiter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/stopwatch.h"

namespace pipelsm::shard {

CompactionArbiter::CompactionArbiter(const ArbiterOptions& options,
                                     const Options& engine)
    : opts_(options),
      max_job_lanes_(SchedulerOptions::FromOptions(engine).max_stripe_width),
      max_job_workers_(
          SchedulerOptions::FromOptions(engine).max_compute_workers) {
  if (opts_.metrics != nullptr) {
    lanes_gauge_ = opts_.metrics->RegisterGauge(
        "arbiter.io_lanes_in_use", "fleet I/O lanes currently granted");
    workers_gauge_ = opts_.metrics->RegisterGauge(
        "arbiter.compute_workers_in_use",
        "fleet compute workers currently granted");
    waiting_gauge_ = opts_.metrics->RegisterGauge(
        "arbiter.waiting", "shards blocked in compaction admission");
    grants_counter_ = opts_.metrics->RegisterCounter(
        "arbiter.grants", "compaction grants issued");
    shrinks_counter_ = opts_.metrics->RegisterCounter(
        "arbiter.shrinks",
        "grants smaller than the job's solo Prescribe() k");
    forced_counter_ = opts_.metrics->RegisterCounter(
        "arbiter.forced_grants",
        "floor grants forced by the passover (anti-starvation) rule");
    wait_micros_ = opts_.metrics->RegisterHistogram(
        "arbiter.wait_micros", "time shards spend blocked in Admit()");
  }
}

CompactionArbiter::~CompactionArbiter() = default;

namespace {

// Force-grant a waiter after it has been passed over this many times.
constexpr int kMaxPassovers = 3;

CompactionMode ModeOf(model::Prescription::Procedure procedure) {
  switch (procedure) {
    case model::Prescription::kSCP:
      return CompactionMode::kSCP;
    case model::Prescription::kSPPCP:
      return CompactionMode::kSPPCP;
    case model::Prescription::kCPPCP:
      return CompactionMode::kCPPCP;
    case model::Prescription::kPCP:
      break;
  }
  return CompactionMode::kPCP;
}

}  // namespace

model::Prescription CompactionArbiter::SoloPrescription(
    const model::StepTimes& t) const {
  return model::Prescribe(
      t, model::IsCpuBound(t) ? max_job_workers_ : max_job_lanes_);
}

const CompactionArbiter::Waiter* CompactionArbiter::FrontLocked() const {
  // Ranking: (1) forced waiters (passovers >= max) in FIFO order, so a
  // starving shard is next no matter what arrives; (2) compactions over
  // value-log GC — reclaiming dead value bytes is maintenance and can
  // wait (GC still escapes starvation via the passover rule); (3)
  // highest predicted solo gain — the fleet's units buy the most
  // bandwidth there; (4) FIFO.
  const Waiter* best = nullptr;
  for (const auto& [seq, w] : waiters_) {
    const bool w_forced = w.passovers >= kMaxPassovers;
    if (best == nullptr) {
      best = &w;
      continue;
    }
    const bool b_forced = best->passovers >= kMaxPassovers;
    if (w_forced != b_forced) {
      if (w_forced) best = &w;
      continue;
    }
    if (w_forced) continue;  // both forced: keep FIFO (map order)
    if (w.request.is_gc != best->request.is_gc) {
      if (!w.request.is_gc) best = &w;
      continue;
    }
    if (w.solo_gain > best->solo_gain) best = &w;
  }
  return best;
}

bool CompactionArbiter::EligibleLocked(const Waiter& w) const {
  const Waiter* front = FrontLocked();
  if (front == nullptr || front->seq != w.seq) return false;
  return lanes_in_use_ + 1 <= opts_.budget.io_lanes &&
         workers_in_use_ + 1 <= opts_.budget.compute_workers;
}

CompactionGrant CompactionArbiter::GrantLocked(const Waiter& w) {
  // Ask the fleet model what this job's share of the FREE budget is,
  // with every other current waiter (up to the job bound) competing for
  // the same pool — so one early job cannot swallow units that better
  // jobs just behind it would use.
  model::FleetBudget free;
  free.io_lanes = opts_.budget.io_lanes - lanes_in_use_;
  free.compute_workers = opts_.budget.compute_workers - workers_in_use_;

  std::vector<model::StepTimes> jobs;
  jobs.push_back(w.request.profile);
  for (const auto& [seq, other] : waiters_) {
    if (seq == w.seq) continue;
    if (int(jobs.size()) >= std::min(free.io_lanes, free.compute_workers)) {
      break;
    }
    jobs.push_back(other.request.profile);
  }
  std::vector<model::FleetAllocation> alloc =
      model::PrescribeFleet(jobs, free);
  model::FleetAllocation mine = alloc[0];
  mine.lanes = std::min(mine.lanes, max_job_lanes_);
  mine.workers = std::min(mine.workers, max_job_workers_);
  mine.prescription.k = std::max(mine.lanes, mine.workers);

  Grant g;
  g.shard_id = w.request.shard_id;
  g.level = w.request.level;
  g.lanes = std::max(1, mine.lanes);
  g.workers = std::max(1, mine.workers);
  g.mode = ModeOf(mine.prescription.procedure);
  g.k = std::max(1, mine.prescription.k);

  lanes_in_use_ += g.lanes;
  workers_in_use_ += g.workers;
  peak_lanes_ = std::max(peak_lanes_, lanes_in_use_);
  peak_workers_ = std::max(peak_workers_, workers_in_use_);
  grants_++;
  const bool forced = w.passovers >= kMaxPassovers;
  if (forced) forced_grants_++;

  // Shrink accounting: did the fleet hand out less than the job's solo
  // saturation k (at the same per-job cap)?
  if (w.request.profile.total() > 0) {
    const model::Prescription solo = SoloPrescription(w.request.profile);
    if ((solo.procedure == model::Prescription::kSPPCP ||
         solo.procedure == model::Prescription::kCPPCP) &&
        g.k < solo.k) {
      shrinks_++;
      if (shrinks_counter_ != nullptr) shrinks_counter_->Add(1);
    }
  }

  const uint64_t id = next_grant_id_++;
  running_[id] = g;

  if (lanes_gauge_ != nullptr) lanes_gauge_->Set(lanes_in_use_);
  if (workers_gauge_ != nullptr) workers_gauge_->Set(workers_in_use_);
  if (grants_counter_ != nullptr) grants_counter_->Add(1);
  if (forced_counter_ != nullptr && forced) {
    forced_counter_->Add(1);
  }

  CompactionGrant out;
  out.granted = true;
  out.id = id;
  out.decision.mode = g.mode;
  out.decision.read_parallelism = g.lanes;
  out.decision.compute_parallelism = g.workers;
  out.decision.adaptive = true;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "arbiter grant: %s k=%d (%d lanes, %d workers; fleet "
                "%d/%d lanes %d/%d workers in use)",
                CompactionModeName(g.mode), g.k, g.lanes, g.workers,
                lanes_in_use_, opts_.budget.io_lanes, workers_in_use_,
                opts_.budget.compute_workers);
  out.decision.rationale = buf;
  return out;
}

CompactionGrant CompactionArbiter::Admit(
    const CompactionAdmissionRequest& request,
    const std::function<bool()>& abort) {
  Stopwatch sw;
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t seq = next_seq_++;
  Waiter& me = waiters_[seq];
  me.seq = seq;
  me.request = request;
  // Zero/garbage profiles rank at the PCP floor (gain 1.0): a cold shard
  // must not outrank warmed-up ones on NaN arithmetic.
  me.solo_gain = request.profile.total() > 0
                     ? SoloPrescription(request.profile).gain_vs_pcp
                     : 1.0;
  if (waiting_gauge_ != nullptr) {
    waiting_gauge_->Set(static_cast<int64_t>(waiters_.size()));
  }

  CompactionGrant out;
  while (true) {
    if (abort && abort()) break;
    if (EligibleLocked(me)) {
      // Everyone still waiting has been passed over by this grant.
      for (auto& [s, w] : waiters_) {
        if (s != seq) w.passovers++;
      }
      out = GrantLocked(me);
      break;
    }
    cv_.wait_for(lock,
                 std::chrono::microseconds(opts_.wait_poll_micros));
  }

  waiters_.erase(seq);
  if (waiting_gauge_ != nullptr) {
    waiting_gauge_->Set(static_cast<int64_t>(waiters_.size()));
  }
  // A departing waiter may have been the blocking front-runner.
  cv_.notify_all();
  if (wait_micros_ != nullptr) {
    wait_micros_->Observe(sw.ElapsedNanos() * 1e-3);
  }
  return out;
}

void CompactionArbiter::Release(uint64_t grant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = running_.find(grant_id);
  if (it == running_.end()) return;
  lanes_in_use_ -= it->second.lanes;
  workers_in_use_ -= it->second.workers;
  running_.erase(it);
  if (lanes_gauge_ != nullptr) lanes_gauge_->Set(lanes_in_use_);
  if (workers_gauge_ != nullptr) workers_gauge_->Set(workers_in_use_);
  cv_.notify_all();
}

std::string CompactionArbiter::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"io_lanes\":{\"budget\":%d,\"in_use\":%d,\"peak\":%d},"
                "\"compute_workers\":{\"budget\":%d,\"in_use\":%d,"
                "\"peak\":%d},",
                opts_.budget.io_lanes, lanes_in_use_, peak_lanes_,
                opts_.budget.compute_workers, workers_in_use_,
                peak_workers_);
  out += buf;
  out += "\"running\":[";
  bool first = true;
  for (const auto& [id, g] : running_) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"grant\":%llu,\"shard\":%d,\"level\":%d,"
                  "\"procedure\":\"%s\",\"k\":%d,\"lanes\":%d,"
                  "\"workers\":%d}",
                  static_cast<unsigned long long>(id), g.shard_id, g.level,
                  CompactionModeName(g.mode), g.k, g.lanes, g.workers);
    out += buf;
  }
  out += "],";
  std::snprintf(buf, sizeof(buf),
                "\"waiting\":%zu,\"grants\":%llu,\"shrinks\":%llu,"
                "\"forced_grants\":%llu}",
                waiters_.size(), static_cast<unsigned long long>(grants_),
                static_cast<unsigned long long>(shrinks_),
                static_cast<unsigned long long>(forced_grants_));
  out += buf;
  return out;
}

int CompactionArbiter::lanes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_in_use_;
}
int CompactionArbiter::workers_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_in_use_;
}
int CompactionArbiter::peak_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_lanes_;
}
int CompactionArbiter::peak_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_workers_;
}
uint64_t CompactionArbiter::grants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grants_;
}
uint64_t CompactionArbiter::shrinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shrinks_;
}
uint64_t CompactionArbiter::forced_grants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return forced_grants_;
}
size_t CompactionArbiter::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_.size();
}

}  // namespace pipelsm::shard
