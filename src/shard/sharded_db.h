// ShardedDB: one logical DB split into N key-range shards, each a full
// engine instance — own memtable, WAL, version set, background thread and
// scheduler profile — under a single DB interface (docs/SHARDING.md).
//
// Layout on disk:
//   <root>/SHARDS        boundary manifest (varint count + length-
//                        prefixed boundary keys); written on first Open,
//                        adopted on reopen, and validated against any
//                        explicitly passed boundaries so a config drift
//                        cannot silently re-route keys.
//   <root>/LOG           fleet-level info log (shard map, arbiter)
//   <root>/shard-0000    first shard's complete DB directory
//   <root>/shard-0001    ...
//
// Routing: ShardRouter maps each user key to exactly one shard
// (boundary keys belong to the shard above). Point ops forward to one
// engine; WriteBatches are split per shard and fanned out in parallel
// (single-shard batches skip the fan-out). Cross-shard batches are NOT
// atomic across shards — each sub-batch commits in its own WAL; a crash
// between sub-commits can persist a prefix of the shards.
//
// Scans: shard ranges are disjoint and ascending, so NewIterator()
// returns a concatenation (not a merge) of the per-shard iterators —
// Seek routes to the owning shard, Next/Prev step across shard seams.
//
// Compaction: each shard's own scheduler chooses every job's procedure
// and k, and every shard shares one CompactionArbiter via
// Options::compaction_governor, so fleet-wide compaction compute stays
// within ArbiterOptions::compute_workers no matter how many shards want
// to compact at once (the point of this layer; see arbiter.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "src/read/cache.h"
#include "src/shard/arbiter.h"
#include "src/shard/router.h"
#include "src/util/thread_pool.h"

namespace pipelsm {
namespace obs {
class MetricsRegistry;
}  // namespace obs
}  // namespace pipelsm

namespace pipelsm::shard {

struct ShardedOptions {
  // Number of shards; 1 = a plain DB behind the router (still valid).
  // On reopen, the SHARDS manifest wins; passing a different count is an
  // InvalidArgument.
  size_t num_shards = 1;

  // Explicit boundary keys (num_shards - 1 of them, sorted). Empty with
  // num_shards > 1 is an error on first open — key distribution is
  // workload knowledge the DB cannot guess (see
  // ShardRouter::SplitDecimalKeyspace for bench keyspaces). On reopen,
  // empty means "adopt the manifest".
  std::vector<std::string> boundary_keys;

  // Share one CompactionArbiter across the shards. When false, every
  // shard admits compactions independently (the free-for-all baseline in
  // EXPERIMENTS.md).
  bool enable_arbiter = true;
  ArbiterOptions arbiter;
};

class ShardedDB final : public DB {
 public:
  // Opens (creating if Options::create_if_missing) the shard fleet under
  // `name`. `options` is the per-shard engine configuration; fields that
  // must differ per shard (shard_id, compaction_governor, info_log) are
  // overridden internally; the rest, compaction_mode and the adaptive
  // scheduler's knobs included, configure every shard's own scheduler.
  // Listeners in options.listeners receive events from
  // EVERY shard (they were already required to be thread-safe).
  static Status Open(const Options& options, const ShardedOptions& sharded,
                     const std::string& name, ShardedDB** dbptr);

  // Destroys every shard directory, the manifest and the root dir.
  static Status Destroy(const std::string& name, const Options& options);

  ~ShardedDB() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  // Splits every batch at the shard seams and hands each shard its parts
  // in one WriteMany, the shards in parallel. statuses[i] is the first
  // error among batch i's parts.
  void WriteMany(const WriteOptions& options, WriteBatch* const* batches,
                 size_t n, Status* statuses) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;

  // Everything DBImpl recognizes, plus (docs/SHARDING.md):
  //   "pipelsm.arbiter"      fleet arbiter JSON ("{}" with arbiter off)
  //   "pipelsm.shards"       shard map JSON (count, boundaries, arbiter)
  //   "pipelsm.shard<N>.<p>" forwards "pipelsm.<p>" to shard N
  // Numeric engine properties (num-files-at-level<N>,
  // approximate-memory-usage) sum across shards; JSON ones (metrics,
  // advisor, scheduler, vlog) return a JSON array with one element per
  // shard; stats concatenates with per-shard headers; background-error
  // reports the first non-OK shard.
  bool GetProperty(const Slice& property, std::string* value) override;
  void GetApproximateSizes(const Range* range, int n,
                           uint64_t* sizes) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  // Full value-log GC sweep on every shard (first error wins).
  Status CompactValueLog() override;
  Status WaitForCompactions() override;
  Status Resume() override;
  CompactionMetrics GetCompactionMetrics() override;
  obs::MetricsRegistry* MetricsHandle() override;
  obs::Logger* InfoLogHandle() override;

  const ShardRouter& router() const { return *router_; }
  size_t num_shards() const { return shards_.size(); }
  DB* shard(size_t i) { return shards_[i].get(); }
  CompactionArbiter* arbiter() { return arbiter_.get(); }

 private:
  ShardedDB() = default;

  class ShardedSnapshot;
  class ConcatIterator;

  // Translates a fleet snapshot in `options` to shard `i`'s member
  // snapshot (pass-through when no snapshot is set).
  ReadOptions ForShard(const ReadOptions& options, size_t i) const;

  Env* env_ = nullptr;
  std::string name_;
  std::unique_ptr<obs::Logger> info_log_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<ShardRouter> router_;
  // Fleet-wide block cache injected into every member shard's Options;
  // declared before shards_ so it outlives them.
  std::unique_ptr<read::Cache> block_cache_;
  // Order matters: shards_ holds grants into arbiter_ until their last
  // compaction drains, so the arbiter must be destroyed AFTER the shards
  // (members are destroyed in reverse declaration order).
  std::unique_ptr<CompactionArbiter> arbiter_;
  std::vector<std::unique_ptr<DB>> shards_;
  std::unique_ptr<ThreadPool> write_pool_;
};

}  // namespace pipelsm::shard
