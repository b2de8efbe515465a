#include "src/shard/sharded_db.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/db/filename.h"
#include "src/obs/logger.h"
#include "src/obs/metrics.h"
#include "src/util/coding.h"
#include "src/util/json_writer.h"
#include "src/util/string_util.h"

namespace pipelsm::shard {

namespace {

constexpr char kManifestName[] = "SHARDS";

std::string ShardDirName(const std::string& root, size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", i);
  return root + "/" + buf;
}

std::string EncodeManifest(const std::vector<std::string>& boundaries) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(boundaries.size() + 1));
  for (const std::string& b : boundaries) {
    PutLengthPrefixedSlice(&out, Slice(b));
  }
  return out;
}

Status DecodeManifest(const std::string& data,
                      std::vector<std::string>* boundaries) {
  Slice in(data);
  uint32_t num_shards = 0;
  if (!GetVarint32(&in, &num_shards) || num_shards == 0) {
    return Status::Corruption("bad SHARDS manifest header");
  }
  boundaries->clear();
  for (uint32_t i = 0; i + 1 < num_shards; i++) {
    Slice b;
    if (!GetLengthPrefixedSlice(&in, &b)) {
      return Status::Corruption("truncated SHARDS manifest");
    }
    boundaries->push_back(b.ToString());
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// Snapshots: a fleet snapshot is one member snapshot per shard, taken in
// shard order. Cross-shard writes are not atomic (see header), so the
// fleet snapshot is "each shard at some recent point", not one global
// sequence number — the same guarantee the shards give individually.
class ShardedDB::ShardedSnapshot : public Snapshot {
 public:
  explicit ShardedSnapshot(std::vector<const Snapshot*> members)
      : members_(std::move(members)) {}
  ~ShardedSnapshot() override = default;

  const Snapshot* member(size_t i) const { return members_[i]; }
  size_t size() const { return members_.size(); }

 private:
  std::vector<const Snapshot*> members_;
};

// ---------------------------------------------------------------------
// ConcatIterator: shard ranges are disjoint and ascending, so iteration
// order is just shard 0's entries, then shard 1's, ... Seek jumps to the
// owning shard directly. Any child error freezes the iterator (Valid()
// false, status() reports it) instead of silently skipping a shard.
class ShardedDB::ConcatIterator : public Iterator {
 public:
  ConcatIterator(const ShardRouter* router, std::vector<Iterator*> children)
      : router_(router), children_(std::move(children)) {}

  ~ConcatIterator() override {
    for (Iterator* it : children_) delete it;
  }

  bool Valid() const override {
    return current_ < children_.size() && children_[current_]->Valid();
  }

  void SeekToFirst() override {
    current_ = 0;
    if (!children_.empty()) children_[0]->SeekToFirst();
    SkipEmptyForward();
  }

  void SeekToLast() override {
    current_ = children_.size() - 1;
    if (!children_.empty()) children_[current_]->SeekToLast();
    SkipEmptyBackward();
  }

  void Seek(const Slice& target) override {
    current_ = router_->ShardOf(target);
    children_[current_]->Seek(target);
    SkipEmptyForward();
  }

  void Next() override {
    children_[current_]->Next();
    SkipEmptyForward();
  }

  void Prev() override {
    children_[current_]->Prev();
    SkipEmptyBackward();
  }

  Slice key() const override { return children_[current_]->key(); }
  Slice value() const override { return children_[current_]->value(); }

  Status status() const override {
    for (Iterator* it : children_) {
      if (!it->status().ok()) return it->status();
    }
    return Status::OK();
  }

 private:
  // Walks forward across shard seams until a valid child (or an error,
  // or the end). The freshly entered child is positioned at its first
  // entry — correct for both Seek past a shard's data and Next off a
  // shard's tail.
  void SkipEmptyForward() {
    while (current_ < children_.size() && !children_[current_]->Valid()) {
      if (!children_[current_]->status().ok()) {
        current_ = children_.size();  // freeze; status() surfaces it
        return;
      }
      current_++;
      if (current_ < children_.size()) children_[current_]->SeekToFirst();
    }
  }

  void SkipEmptyBackward() {
    while (current_ < children_.size() && !children_[current_]->Valid()) {
      if (!children_[current_]->status().ok()) {
        current_ = children_.size();
        return;
      }
      if (current_ == 0) {
        current_ = children_.size();  // walked off the front
        return;
      }
      current_--;
      children_[current_]->SeekToLast();
    }
  }

  const ShardRouter* const router_;
  std::vector<Iterator*> children_;
  size_t current_ = 0;
};

// ---------------------------------------------------------------------

Status ShardedDB::Open(const Options& options, const ShardedOptions& sharded,
                       const std::string& name, ShardedDB** dbptr) {
  *dbptr = nullptr;
  Env* env = options.env != nullptr ? options.env : Env::Posix();

  if (sharded.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (!sharded.boundary_keys.empty() &&
      sharded.boundary_keys.size() != sharded.num_shards - 1) {
    return Status::InvalidArgument(
        "need exactly num_shards - 1 boundary keys");
  }
  Status s = ShardRouter::Validate(sharded.boundary_keys);
  if (!s.ok()) return s;

  if (!env->FileExists(name)) {
    if (!options.create_if_missing) {
      return Status::InvalidArgument(name + " does not exist");
    }
    s = env->CreateDir(name);
    if (!s.ok()) return s;
  }

  // Resolve the boundary set: manifest wins on reopen; explicit keys
  // must match it exactly (re-routing keys under existing shard data
  // would silently lose them).
  std::vector<std::string> boundaries = sharded.boundary_keys;
  const std::string manifest_path = name + "/" + kManifestName;
  if (env->FileExists(manifest_path)) {
    std::string data;
    s = ReadFileToString(env, manifest_path, &data);
    if (!s.ok()) return s;
    std::vector<std::string> on_disk;
    s = DecodeManifest(data, &on_disk);
    if (!s.ok()) return s;
    if (!sharded.boundary_keys.empty() &&
        on_disk != sharded.boundary_keys) {
      return Status::InvalidArgument(
          "boundary keys do not match the SHARDS manifest");
    }
    if (sharded.num_shards != 1 &&
        sharded.num_shards != on_disk.size() + 1) {
      return Status::InvalidArgument(
          "num_shards does not match the SHARDS manifest");
    }
    boundaries = std::move(on_disk);
  } else {
    if (sharded.num_shards > 1 && boundaries.empty()) {
      return Status::InvalidArgument(
          "first open with num_shards > 1 requires boundary keys");
    }
    s = WriteStringToFile(env, Slice(EncodeManifest(boundaries)),
                          manifest_path, /*sync=*/true);
    if (!s.ok()) return s;
  }
  const size_t num_shards = boundaries.size() + 1;

  auto db = std::unique_ptr<ShardedDB>(new ShardedDB());
  db->env_ = env;
  db->name_ = name;
  db->metrics_ = std::make_unique<obs::MetricsRegistry>();
  db->router_ = std::make_unique<ShardRouter>(std::move(boundaries));
  OpenInfoLog(env, name, &db->info_log_);  // best effort

  if (sharded.enable_arbiter) {
    ArbiterOptions aopts = sharded.arbiter;
    aopts.metrics = db->metrics_.get();
    db->arbiter_ = std::make_unique<CompactionArbiter>(aopts);
  }

  // One fleet-wide block cache shared by every member shard (unless the
  // caller supplied their own), so hot blocks are cached once regardless
  // of which shard owns them. Stats bind into the fleet registry.
  if (options.block_cache == nullptr) {
    db->block_cache_ = read::NewShardedLRUCache(options.block_cache_size,
                                                options.block_cache_shards);
    read::BindBlockCacheMetrics(db->block_cache_.get(), db->metrics_.get());
  }

  for (size_t i = 0; i < num_shards; i++) {
    Options shard_options = options;
    shard_options.env = env;
    if (db->block_cache_ != nullptr) {
      shard_options.block_cache = db->block_cache_.get();
    }
    shard_options.shard_id = static_cast<int>(i);
    shard_options.info_log = nullptr;  // each shard keeps its own LOG
    if (db->arbiter_ != nullptr) {
      shard_options.compaction_governor = db->arbiter_.get();
    }
    DB* raw = nullptr;
    s = DB::Open(shard_options, ShardDirName(name, i), &raw);
    if (!s.ok()) {
      obs::Log(db->info_log_.get(), "EVENT shard_open_failed shard=%zu: %s",
               i, s.ToString().c_str());
      return s;  // already-opened shards close via ~ShardedDB
    }
    db->shards_.emplace_back(raw);
  }
  db->write_pool_ = std::make_unique<ThreadPool>(num_shards);

  obs::Log(db->info_log_.get(),
           "EVENT sharded_open shards=%zu arbiter=%d compute_workers=%d",
           num_shards, db->arbiter_ != nullptr ? 1 : 0,
           sharded.arbiter.compute_workers);

  *dbptr = db.release();
  return Status::OK();
}

Status ShardedDB::Destroy(const std::string& name, const Options& options) {
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  if (!env->FileExists(name)) return Status::OK();
  Status result = Status::OK();
  std::vector<std::string> children;
  env->GetChildren(name, &children);
  for (const std::string& child : children) {
    if (child == "." || child == "..") continue;
    const std::string path = name + "/" + child;
    Status s;
    if (child.rfind("shard-", 0) == 0) {
      s = DestroyDB(path, options);
      if (s.ok()) env->RemoveDir(path);
    } else {
      s = env->RemoveFile(path);
    }
    if (result.ok() && !s.ok()) result = s;
  }
  env->RemoveDir(name);
  return result;
}

ShardedDB::~ShardedDB() {
  if (write_pool_ != nullptr) write_pool_->Shutdown();
  // shards_ then arbiter_ destroyed by member order (see header).
}

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[router_->ShardOf(key)]->Put(options, key, value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[router_->ShardOf(key)]->Delete(options, key);
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* updates) {
  Status s;
  WriteMany(options, &updates, 1, &s);
  return s;
}

void ShardedDB::WriteMany(const WriteOptions& options,
                          WriteBatch* const* batches, size_t n,
                          Status* statuses) {
  // parts[s] holds shard s's part of every batch that reaches it, in
  // batch order; owners[s][k] is the batch that parts[s][k] came from.
  std::vector<std::vector<WriteBatch>> parts(shards_.size());
  std::vector<std::vector<size_t>> owners(shards_.size());
  std::vector<WriteBatch> split;
  for (size_t i = 0; i < n; i++) {
    statuses[i] = router_->SplitBatch(*batches[i], &split);
    if (!statuses[i].ok()) continue;
    for (size_t s = 0; s < split.size(); s++) {
      if (WriteBatchInternal::Count(&split[s]) == 0) continue;
      parts[s].push_back(std::move(split[s]));
      owners[s].push_back(i);
    }
  }
  std::vector<size_t> touched;
  for (size_t s = 0; s < parts.size(); s++) {
    if (!parts[s].empty()) touched.push_back(s);
  }

  std::mutex mu;  // guards statuses and pending once shards run in parallel
  auto write_shard = [&](size_t s) {
    std::vector<WriteBatch*> ptrs;
    for (WriteBatch& b : parts[s]) ptrs.push_back(&b);
    std::vector<Status> results(ptrs.size());
    shards_[s]->WriteMany(options, ptrs.data(), ptrs.size(), results.data());
    std::lock_guard<std::mutex> l(mu);
    for (size_t k = 0; k < results.size(); k++) {
      const size_t i = owners[s][k];
      if (statuses[i].ok() && !results[k].ok()) statuses[i] = results[k];
    }
  };
  // One shard (the common case under keyed traffic) skips the fan-out.
  if (touched.size() <= 1) {
    if (!touched.empty()) write_shard(touched[0]);
    return;
  }

  // Parallel fan-out: each touched shard commits its parts in its own WAL
  // (group-committed with that shard's other writers). NOT atomic across
  // shards — documented in the header.
  std::condition_variable cv;
  size_t pending = touched.size();
  for (size_t s : touched) {
    const bool submitted = write_pool_->Submit([&, s] {
      write_shard(s);
      std::lock_guard<std::mutex> l(mu);
      if (--pending == 0) cv.notify_one();
    });
    if (!submitted) {  // pool shut down mid-write (DB closing)
      std::lock_guard<std::mutex> l(mu);
      for (size_t i : owners[s]) {
        if (statuses[i].ok()) {
          statuses[i] = Status::IOError("sharded DB shutting down");
        }
      }
      if (--pending == 0) cv.notify_one();
    }
  }
  std::unique_lock<std::mutex> l(mu);
  cv.wait(l, [&] { return pending == 0; });
}

ReadOptions ShardedDB::ForShard(const ReadOptions& options, size_t i) const {
  ReadOptions ro = options;
  if (options.snapshot != nullptr) {
    const auto* snap = dynamic_cast<const ShardedSnapshot*>(options.snapshot);
    ro.snapshot = snap != nullptr ? snap->member(i) : nullptr;
  }
  return ro;
}

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  const size_t i = router_->ShardOf(key);
  return shards_[i]->Get(ForShard(options, i), key, value);
}

Iterator* ShardedDB::NewIterator(const ReadOptions& options) {
  std::vector<Iterator*> children;
  children.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); i++) {
    children.push_back(shards_[i]->NewIterator(ForShard(options, i)));
  }
  return new ConcatIterator(router_.get(), std::move(children));
}

const Snapshot* ShardedDB::GetSnapshot() {
  std::vector<const Snapshot*> members;
  members.reserve(shards_.size());
  for (auto& shard : shards_) {
    members.push_back(shard->GetSnapshot());
  }
  return new ShardedSnapshot(std::move(members));
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  const auto* snap = dynamic_cast<const ShardedSnapshot*>(snapshot);
  if (snap == nullptr) return;
  for (size_t i = 0; i < snap->size(); i++) {
    shards_[i]->ReleaseSnapshot(snap->member(i));
  }
  delete snap;
}

bool ShardedDB::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  const std::string prop = property.ToString();

  if (prop == "pipelsm.arbiter") {
    *value = arbiter_ != nullptr ? arbiter_->ToJson() : "{}";
    return true;
  }
  if (prop == "pipelsm.cache" && block_cache_ != nullptr) {
    // Fleet-wide block cache (shard 0's per-shard answer would miss the
    // shared view; table caches stay per shard).
    JsonWriter w(value);
    w.BeginObject().Key("block");
    read::WriteCacheStats(*block_cache_, &w);
    w.EndObject();
    return true;
  }
  if (prop == "pipelsm.shards") {
    JsonWriter w(value);
    w.BeginObject().Key("num_shards").Uint(shards_.size());
    w.Key("arbiter").Bool(arbiter_ != nullptr).Key("boundaries").BeginArray();
    for (const std::string& b : router_->boundaries()) w.String(b);
    w.EndArray().EndObject();
    return true;
  }

  // "pipelsm.shard<N>.<rest>" forwards "pipelsm.<rest>" to shard N. The
  // name can come from a client (STATS), so N is parsed with an overflow
  // check: a malformed or out-of-range N is an unknown property.
  Slice rest = property;
  if (rest.starts_with("pipelsm.shard")) {
    rest.remove_prefix(sizeof("pipelsm.shard") - 1);
    if (!rest.empty() && rest[0] >= '0' && rest[0] <= '9') {
      uint64_t i = 0;
      if (!ConsumeDecimalNumber(&rest, &i) || i >= shards_.size() ||
          !rest.starts_with(".")) {
        return false;
      }
      rest.remove_prefix(1);
      return shards_[i]->GetProperty("pipelsm." + rest.ToString(), value);
    }
  }

  // Numeric properties sum across shards.
  if (prop.rfind("pipelsm.num-files-at-level", 0) == 0 ||
      prop == "pipelsm.approximate-memory-usage") {
    uint64_t total = 0;
    for (auto& shard : shards_) {
      std::string v;
      if (!shard->GetProperty(property, &v)) return false;
      total += std::strtoull(v.c_str(), nullptr, 10);
    }
    *value = std::to_string(total);
    return true;
  }

  // JSON payloads become a JSON array, one element per shard. (All
  // shards share one Options, so pipelsm.vlog is all-or-none.) The
  // metrics snapshot also carries the fleet registry: server.*,
  // arbiter.* and the shared cache.block.* live there.
  const bool metrics = prop == "pipelsm.metrics";
  if (metrics || prop == "pipelsm.advisor" || prop == "pipelsm.scheduler" ||
      prop == "pipelsm.vlog") {
    JsonWriter w(value);
    if (metrics) {
      w.BeginObject().Key("fleet").Raw(metrics_->ToJson()).Key("shards");
    }
    w.BeginArray();
    for (auto& shard : shards_) {
      std::string v;
      if (!shard->GetProperty(property, &v)) return false;
      w.Raw(v);
    }
    w.EndArray();
    if (metrics) w.EndObject();
    return true;
  }

  if (prop == "pipelsm.stats") {
    for (size_t i = 0; i < shards_.size(); i++) {
      std::string v;
      if (!shards_[i]->GetProperty(property, &v)) return false;
      char header[48];
      std::snprintf(header, sizeof(header), "== shard %zu ==\n", i);
      *value += header;
      *value += v;
      if (!v.empty() && v.back() != '\n') *value += "\n";
    }
    if (arbiter_ != nullptr) {
      *value += "arbiter: " + arbiter_->ToJson() + "\n";
    }
    return true;
  }

  if (prop == "pipelsm.background-error") {
    for (auto& shard : shards_) {
      std::string v;
      if (!shard->GetProperty(property, &v)) return false;
      if (v != "OK") {
        *value = v;
        return true;
      }
    }
    *value = "OK";
    return true;
  }

  // Anything else is the first shard's answer: recognized iff shard 0
  // recognizes it, with shard 0's payload (sstables and friends are
  // per-shard — use the pipelsm.shard<N>. prefix for a specific one).
  return shards_[0]->GetProperty(property, value);
}

void ShardedDB::GetApproximateSizes(const Range* range, int n,
                                    uint64_t* sizes) {
  // Each shard holds only its own keys, so per-range sums over all
  // shards are exact (a shard outside the range contributes ~0).
  std::vector<uint64_t> shard_sizes(n);
  for (int i = 0; i < n; i++) sizes[i] = 0;
  for (auto& shard : shards_) {
    shard->GetApproximateSizes(range, n, shard_sizes.data());
    for (int i = 0; i < n; i++) sizes[i] += shard_sizes[i];
  }
}

void ShardedDB::CompactRange(const Slice* begin, const Slice* end) {
  for (auto& shard : shards_) {
    shard->CompactRange(begin, end);
  }
}

Status ShardedDB::CompactValueLog() {
  Status result = Status::OK();
  for (auto& shard : shards_) {
    Status s = shard->CompactValueLog();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

Status ShardedDB::WaitForCompactions() {
  Status result = Status::OK();
  for (auto& shard : shards_) {
    Status s = shard->WaitForCompactions();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

Status ShardedDB::Resume() {
  Status result = Status::OK();
  for (auto& shard : shards_) {
    Status s = shard->Resume();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

CompactionMetrics ShardedDB::GetCompactionMetrics() {
  CompactionMetrics total;
  for (auto& shard : shards_) {
    const CompactionMetrics m = shard->GetCompactionMetrics();
    total.profile.Merge(m.profile);
    total.compactions += m.compactions;
    total.memtable_flushes += m.memtable_flushes;
    total.compaction_bytes_written += m.compaction_bytes_written;
    total.stall_micros += m.stall_micros;
  }
  return total;
}

obs::MetricsRegistry* ShardedDB::MetricsHandle() { return metrics_.get(); }

obs::Logger* ShardedDB::InfoLogHandle() { return info_log_.get(); }

}  // namespace pipelsm::shard
