#include "src/shard/arbiter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/util/json_writer.h"
#include "src/util/stopwatch.h"

namespace pipelsm::shard {

CompactionArbiter::CompactionArbiter(const ArbiterOptions& options)
    : opts_(options) {
  obs::MetricsRegistry* metrics =
      opts_.metrics != nullptr ? opts_.metrics : &own_metrics_;
  workers_gauge_ = metrics->RegisterGauge(
      "arbiter.compute_workers_in_use",
      "fleet compute workers currently granted");
  waiting_gauge_ = metrics->RegisterGauge(
      "arbiter.waiting", "shards blocked in compaction admission");
  grants_counter_ =
      metrics->RegisterCounter("arbiter.grants", "compaction grants issued");
  shrinks_counter_ = metrics->RegisterCounter(
      "arbiter.shrinks", "grants smaller than the shard scheduler's k");
  forced_counter_ = metrics->RegisterCounter(
      "arbiter.forced_grants",
      "floor grants forced by the passover (anti-starvation) rule");
  wait_micros_ = metrics->RegisterHistogram(
      "arbiter.wait_micros", "time shards spend blocked in Admit()");
}

CompactionArbiter::~CompactionArbiter() = default;

namespace {

// Force-grant a waiter after it has been passed over this many times.
constexpr int kMaxPassovers = 3;

// How often a blocked Admit() re-checks its abort predicate.
constexpr auto kWaitPoll = std::chrono::milliseconds(10);

}  // namespace

const CompactionArbiter::Waiter* CompactionArbiter::FrontLocked() const {
  // Ranking: (1) forced waiters (passovers >= max) in FIFO order, so a
  // starving shard is next no matter what arrives; (2) compactions over
  // value-log GC — reclaiming dead value bytes is maintenance and can
  // wait (GC still escapes starvation via the passover rule); (3)
  // highest gain the shard's own prescription reported — the fleet's
  // workers buy the most bandwidth there; (4) FIFO.
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
    if (w.request.choice.gain > best->request.choice.gain) best = &w;
  }
  return best;
}

bool CompactionArbiter::EligibleLocked(const Waiter& w) const {
  const Waiter* front = FrontLocked();
  if (front == nullptr || front->seq != w.seq) return false;
  return workers_in_use_ < opts_.compute_workers;
}

CompactionGrant CompactionArbiter::GrantLocked(const Waiter& w) {
  const CompactionChoice& want = w.request.choice;
  Grant g;
  g.shard_id = w.request.shard_id;
  g.level = w.request.level;
  g.workers = std::clamp(want.compute_parallelism, 1,
                         opts_.compute_workers - workers_in_use_);
  g.mode = want.mode == CompactionMode::kCPPCP && g.workers == 1
               ? CompactionMode::kPCP
               : want.mode;

  workers_in_use_ += g.workers;
  peak_workers_ = std::max(peak_workers_, workers_in_use_);
  grants_counter_->Add();
  if (w.passovers >= kMaxPassovers) forced_counter_->Add();
  if (g.workers < want.compute_parallelism) shrinks_counter_->Add();

  const uint64_t id = next_grant_id_++;
  running_[id] = g;
  workers_gauge_->Set(workers_in_use_);

  CompactionGrant out{want, /*granted=*/true, id};
  out.mode = g.mode;
  out.compute_parallelism = g.workers;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "arbiter grant: %s k=%d (fleet %d/%d workers in use)",
                CompactionModeName(g.mode), g.workers, workers_in_use_,
                opts_.compute_workers);
  if (!out.rationale.empty()) out.rationale += "; ";
  out.rationale += buf;
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
  waiting_gauge_->Set(static_cast<int64_t>(waiters_.size()));

  CompactionGrant out;
  while (true) {
    if (EligibleLocked(me)) {
      // Everyone still waiting has been passed over by this grant.
      for (auto& [s, w] : waiters_) {
        if (s != seq) w.passovers++;
      }
      out = GrantLocked(me);
      break;
    }
    // `abort` ends a wait; a job the fleet can run now is granted.
    if (abort && abort()) break;
    cv_.wait_for(lock, kWaitPoll);
  }

  waiters_.erase(seq);
  waiting_gauge_->Set(static_cast<int64_t>(waiters_.size()));
  // A departing waiter may have been the blocking front-runner.
  cv_.notify_all();
  wait_micros_->Observe(sw.ElapsedNanos() * 1e-3);
  return out;
}

void CompactionArbiter::Release(uint64_t grant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = running_.find(grant_id);
  if (it == running_.end()) return;
  workers_in_use_ -= it->second.workers;
  running_.erase(it);
  workers_gauge_->Set(workers_in_use_);
  cv_.notify_all();
}

std::string CompactionArbiter::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("compute_workers").BeginObject();
  w.Key("budget").Int(opts_.compute_workers);
  w.Key("in_use").Int(workers_in_use_).Key("peak").Int(peak_workers_);
  w.EndObject();
  w.Key("running").BeginArray();
  for (const auto& [id, g] : running_) {
    w.BeginObject().Key("grant").Uint(id).Key("shard").Int(g.shard_id);
    w.Key("level").Int(g.level);
    w.Key("procedure").String(CompactionModeName(g.mode));
    w.Key("k").Int(g.workers).EndObject();
  }
  w.EndArray().Key("waiting").Uint(waiters_.size());
  w.Key("grants").Uint(grants()).Key("shrinks").Uint(shrinks());
  w.Key("forced_grants").Uint(forced_grants()).EndObject();
  return out;
}

int CompactionArbiter::workers_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_in_use_;
}
int CompactionArbiter::peak_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_workers_;
}
uint64_t CompactionArbiter::grants() const {
  return grants_counter_->value();
}
uint64_t CompactionArbiter::shrinks() const {
  return shrinks_counter_->value();
}
uint64_t CompactionArbiter::forced_grants() const {
  return forced_counter_->value();
}
size_t CompactionArbiter::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_.size();
}

}  // namespace pipelsm::shard
