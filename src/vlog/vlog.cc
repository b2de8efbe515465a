#include "src/vlog/vlog.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstring>

#include "src/db/filename.h"
#include "src/db/write_batch.h"
#include "src/obs/logger.h"
#include "src/obs/metrics.h"
#include "src/read/cache.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/json_writer.h"

namespace pipelsm {
namespace vlog {

namespace {

// fixed32 crc + up-to-5-byte varints for klen/vlen.
constexpr size_t kFrameHeaderMax = 4 + 5 + 5;
constexpr size_t kFrameMin = 4 + 1 + 1;  // crc + two zero-length varints

// A sealed segment becomes a GC candidate once this fraction of its bytes
// is known dead (from compaction discard credits).
constexpr double kGcDeadRatio = 0.5;

// Value-cache key: fixed64 cache id + fixed64 segment + fixed64 offset.
// Its first 16 bytes name the segment, so one ErasePrefix drops every
// cached value of a retired segment.
constexpr size_t kCacheKeySize = 24;
constexpr size_t kSegmentPrefixSize = 16;

// What one cache entry costs beyond its value bytes: the key and its heap
// copy, the queue and index nodes, the shared_ptr control block and the
// length prefix, with allocator headers (about 200 bytes, rounded up).
constexpr size_t kCacheEntryOverhead = 256;

void EncodeCacheKey(uint64_t cache_id, uint64_t segment, uint64_t offset,
                    char* buf) {
  EncodeFixed64(buf, cache_id);
  EncodeFixed64(buf + 8, segment);
  EncodeFixed64(buf + 16, offset);
}

// A cached value is one allocation: fixed32 length, then the bytes. A
// value larger than one shard's capacity slice is not cached: the cache
// never evicts the entry it just inserted, so it would empty that whole
// shard of blocks and stay there. `referenced` is the cache's hint for a
// frame just written: readers of a fresh value tend to come soon.
void InsertValue(read::Cache* cache, const char* key, const Slice& value,
                 bool referenced) {
  if (value.size() + kCacheEntryOverhead >
      cache->capacity() / cache->num_shards()) {
    return;
  }
  auto entry = std::make_shared_for_overwrite<char[]>(4 + value.size());
  EncodeFixed32(entry.get(), static_cast<uint32_t>(value.size()));
  memcpy(entry.get() + 4, value.data(), value.size());
  cache->Insert(Slice(key, kCacheKeySize), std::move(entry),
                value.size() + kCacheEntryOverhead, referenced);
}

Slice CachedValue(const std::shared_ptr<void>& entry) {
  const char* p = static_cast<const char*>(entry.get());
  return Slice(p + 4, DecodeFixed32(p));
}

// Decode one frame starting at `input` (which must hold the full
// remainder of the segment's valid region). On success sets *key,
// *value, *frame_len and returns true; a short or CRC-corrupt frame
// returns false.
bool DecodeFrame(const Slice& input, Slice* key, Slice* value,
                 uint64_t* frame_len) {
  if (input.size() < kFrameMin) return false;
  const char* base = input.data();
  uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(base));
  const char* p = base + 4;
  const char* limit = base + input.size();
  uint32_t klen = 0;
  uint32_t vlen = 0;
  p = GetVarint32Ptr(p, limit, &klen);
  if (p == nullptr) return false;
  p = GetVarint32Ptr(p, limit, &vlen);
  if (p == nullptr) return false;
  if (static_cast<uint64_t>(limit - p) <
      static_cast<uint64_t>(klen) + static_cast<uint64_t>(vlen)) {
    return false;
  }
  const char* payload = base + 4;
  const size_t payload_len = static_cast<size_t>(p - payload) + klen + vlen;
  if (crc32c::Value(payload, payload_len) != expected_crc) return false;
  *key = Slice(p, klen);
  *value = Slice(p + klen, vlen);
  *frame_len = 4 + payload_len;
  return true;
}

void EncodeFrame(std::string* dst, const Slice& key, const Slice& value) {
  dst->clear();
  dst->reserve(kFrameHeaderMax + key.size() + value.size());
  dst->append(4, '\0');  // crc placeholder
  PutVarint32(dst, static_cast<uint32_t>(key.size()));
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(key.data(), key.size());
  dst->append(value.data(), value.size());
  const uint32_t crc = crc32c::Value(dst->data() + 4, dst->size() - 4);
  EncodeFixed32(dst->data(), crc32c::Mask(crc));
}

}  // namespace

void EncodeValueLocation(std::string* dst, const ValueLocation& loc) {
  PutFixed64(dst, loc.segment);
  PutFixed64(dst, loc.offset);
  PutFixed32(dst, loc.length);
}

bool DecodeValueLocation(const Slice& src, ValueLocation* loc) {
  if (src.size() != kValueLocationSize) return false;
  loc->segment = DecodeFixed64(src.data());
  loc->offset = DecodeFixed64(src.data() + 8);
  loc->length = DecodeFixed32(src.data() + 16);
  return true;
}

Status ResolvePointer(VlogManager* vlog, const Slice& encoded,
                      std::string* value, bool fill_cache) {
  ValueLocation loc;
  if (vlog == nullptr || !DecodeValueLocation(encoded, &loc)) {
    return Status::Corruption(
        "value pointer without a value log to resolve it");
  }
  return vlog->Read(loc, value, fill_cache);
}

VlogManager::VlogManager(Env* env, const std::string& dbname,
                         const VlogOptions& options,
                         obs::MetricsRegistry* metrics, obs::Logger* info_log,
                         std::function<uint64_t()> file_number_allocator)
    : env_(env),
      dbname_(dbname),
      opts_(options),
      info_log_(info_log),
      next_file_number_(std::move(file_number_allocator)),
      cache_id_(options.cache != nullptr ? options.cache->NewId() : 0) {
  if (metrics == nullptr) metrics = &own_metrics_;
  appends_counter_ =
      metrics->RegisterCounter("vlog.appends", "Value frames appended");
  append_bytes_counter_ = metrics->RegisterCounter(
      "vlog.append_bytes", "Frame bytes appended to the value log");
  resolves_counter_ = metrics->RegisterCounter(
      "vlog.resolves", "Value pointers resolved on the read path");
  resolve_error_counter_ = metrics->RegisterCounter(
      "vlog.resolve_errors", "Pointer resolutions that failed");
  resolve_cache_hit_counter_ = metrics->RegisterCounter(
      "vlog.resolve_cache_hits",
      "Value pointers resolved from the block cache");
  rolls_counter_ = metrics->RegisterCounter(
      "vlog.segments_rolled", "Active segments sealed and replaced");
  gc_runs_counter_ =
      metrics->RegisterCounter("vlog.gc_runs", "Completed GC passes");
  gc_rewritten_counter_ = metrics->RegisterCounter(
      "vlog.gc_bytes_rewritten", "Live value bytes GC rewrote");
  gc_reclaimed_counter_ = metrics->RegisterCounter(
      "vlog.gc_bytes_reclaimed", "Segment bytes GC retired");
  retired_counter_ = metrics->RegisterCounter(
      "vlog.segments_retired", "Segments retired and deleted by GC");
  segments_gauge_ =
      metrics->RegisterGauge("vlog.segments", "Live segment files");
  dead_bytes_gauge_ = metrics->RegisterGauge(
      "vlog.dead_bytes", "Bytes known dead across sealed segments");
  live_bytes_gauge_ = metrics->RegisterGauge(
      "vlog.bytes", "Total valid frame bytes across segments");
  pending_retire_gauge_ = metrics->RegisterGauge(
      "vlog.pending_retire", "Retired segments awaiting reader drain");
}

VlogManager::~VlogManager() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_file_ != nullptr) {
    active_file_->Sync();
    active_file_->Close();
    active_file_.reset();
  }
}

Status VlogManager::Recover(uint64_t* max_recovered) {
  *max_recovered = 0;
  std::vector<std::string> children;
  Status s = env_->GetChildren(dbname_, &children);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type) || type != kVlogFile) continue;
    const std::string path = VlogFileName(dbname_, number);
    std::string contents;
    s = ReadFileToString(env_, path, &contents);
    if (!s.ok()) return s;
    // Find the end of the last whole frame.
    uint64_t valid = 0;
    Slice rest(contents);
    Slice key, value;
    uint64_t frame_len = 0;
    while (DecodeFrame(rest, &key, &value, &frame_len)) {
      valid += frame_len;
      rest.remove_prefix(frame_len);
    }
    if (valid == 0) {
      // Empty or all-garbage: nothing a committed pointer could
      // reference (pointers only commit after a successful sync).
      env_->RemoveFile(path);
      obs::Log(info_log_, "EVENT vlog_segment_dropped segment=%llu bytes=%llu",
               (unsigned long long)number,
               (unsigned long long)contents.size());
      continue;
    }
    if (valid < contents.size()) {
      // Torn tail (crash mid-append): rewrite the valid prefix through a
      // synced temp file + atomic rename. The Env has no truncate.
      const std::string tmp = TempFileName(dbname_, number);
      s = WriteStringToFile(env_, Slice(contents.data(), valid), tmp, true);
      if (s.ok()) s = env_->RenameFile(tmp, path);
      if (s.ok()) s = env_->SyncDir(dbname_);
      if (!s.ok()) {
        env_->RemoveFile(tmp);
        return s;
      }
      obs::Log(info_log_,
               "EVENT vlog_segment_truncated segment=%llu from=%llu to=%llu",
               (unsigned long long)number, (unsigned long long)contents.size(),
               (unsigned long long)valid);
    }
    SegmentInfo info;
    info.size = valid;
    info.state = SegmentState::kSealed;
    segments_[number] = info;
    *max_recovered = std::max(*max_recovered, number);
  }
  max_recovered_ = *max_recovered;
  if (max_recovered_ != 0) {
    // The newest segment was the active one. After a process crash its
    // unsynced frames are still readable, so WAL replay keeps their
    // pointers and flushes them into tables: sync the frames first.
    // Every older segment was synced when it was sealed.
    std::unique_ptr<WritableFile> file;
    s = env_->NewAppendableFile(VlogFileName(dbname_, max_recovered_), &file);
    if (s.ok()) s = file->Sync();
    if (s.ok()) s = file->Close();
    if (!s.ok()) return s;
  }
  UpdateGaugesLocked();
  return Status::OK();
}

bool VlogManager::PointersRecovered(const WriteBatch& batch) const {
  struct Checker : public WriteBatch::Handler {
    const VlogManager* vlog;
    bool recovered = true;
    void Put(const Slice&, const Slice&) override {}
    void Delete(const Slice&) override {}
    void PutPointer(const Slice&, const Slice& location) override {
      ValueLocation loc;
      if (!recovered || !DecodeValueLocation(location, &loc)) return;
      if (vlog->segments_.count(loc.segment) == 0) {
        recovered = loc.segment < vlog->max_recovered_;  // retired by GC
      } else {
        recovered = vlog->CheckLocationLocked(loc).ok();
      }
    }
  };
  Checker checker;
  checker.vlog = this;
  std::lock_guard<std::mutex> lock(mu_);
  batch.Iterate(&checker);
  return checker.recovered;
}

Status VlogManager::OpenActive(uint64_t number) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(active_file_ == nullptr);
  Status s = env_->NewWritableFile(VlogFileName(dbname_, number), &active_file_);
  if (!s.ok()) return s;
  active_number_ = number;
  active_size_ = 0;
  active_poisoned_ = false;
  SegmentInfo info;
  info.state = SegmentState::kActive;
  segments_[number] = info;
  UpdateGaugesLocked();
  return Status::OK();
}

Status VlogManager::RollActiveLocked() {
  // Seal the current active segment at its synced size and open a fresh
  // one. Called with data already appended (or the segment poisoned).
  Status s;
  if (active_file_ != nullptr) {
    s = active_file_->Sync();
    if (!s.ok() && unsynced_) sync_error_ = s;
    if (s.ok()) s = active_file_->Close();
    active_file_.reset();
    auto it = segments_.find(active_number_);
    if (it != segments_.end()) {
      // active_size_ only counts successful appends; committed pointers
      // can only reference frames that were also synced, so sealing a
      // poisoned segment at this size at worst over-counts dead bytes.
      it->second.size = active_size_;
      it->second.state = SegmentState::kSealed;
    }
    unsynced_ = false;
    acked_unsynced_ = false;
  }
  const uint64_t number = next_file_number_();
  std::unique_ptr<WritableFile> file;
  Status open_s = env_->NewWritableFile(VlogFileName(dbname_, number), &file);
  if (!open_s.ok()) return s.ok() ? open_s : s;
  active_file_ = std::move(file);
  active_number_ = number;
  active_size_ = 0;
  active_poisoned_ = false;
  SegmentInfo info;
  info.state = SegmentState::kActive;
  segments_[number] = info;
  rolls_counter_->Add(1);
  obs::Log(info_log_, "EVENT vlog_segment_rolled segment=%llu",
           (unsigned long long)number);
  RecomputeGcFlagLocked();
  UpdateGaugesLocked();
  return s;
}

Status VlogManager::Add(const Slice& key, const Slice& value,
                        ValueLocation* loc, bool acked_unsynced) {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_file_ == nullptr) {
    return Status::IOError("value log not open");
  }
  EncodeFrame(&frame_scratch_, key, value);
  if (active_poisoned_ ||
      (active_size_ > 0 &&
       active_size_ + frame_scratch_.size() > opts_.segment_size)) {
    Status rs = RollActiveLocked();
    if (!rs.ok() && active_file_ == nullptr) return rs;
  }
  Status s = active_file_->Append(frame_scratch_);
  if (!s.ok()) {
    // The tail of the file is now suspect; never hand out locations past
    // this point in this segment.
    active_poisoned_ = true;
    return s;
  }
  loc->segment = active_number_;
  loc->offset = active_size_;
  loc->length = static_cast<uint32_t>(frame_scratch_.size());
  active_size_ += frame_scratch_.size();
  unsynced_ = true;
  if (acked_unsynced) acked_unsynced_ = true;
  segments_[active_number_].append_pending++;
  appends_counter_->Add(1);
  append_bytes_counter_->Add(frame_scratch_.size());
  // Keep vlog.bytes tracking the active segment between rolls; the
  // segment count stays small, so the walk is cheap.
  UpdateGaugesLocked();
  return Status::OK();
}

Status VlogManager::Sync(std::optional<uint64_t> failures_before) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sync_error_.ok()) return sync_error_;
  if (failures_before.has_value() && *failures_before != sync_failures_) {
    return Status::IOError("value log sync failed after this caller's Add");
  }
  if (active_file_ == nullptr || !unsynced_) return Status::OK();
  Status s = active_file_->Sync();
  if (!s.ok()) {
    active_poisoned_ = true;
    sync_failures_++;
    // A caller whose frames failed to sync drops their pointers, so a
    // retry is harmless, unless a pointer was already acked: that one
    // cannot be taken back.
    if (acked_unsynced_) sync_error_ = s;
    return s;
  }
  unsynced_ = false;
  acked_unsynced_ = false;
  return Status::OK();
}

uint64_t VlogManager::sync_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_failures_;
}

void VlogManager::ReleaseAppends(const std::vector<uint64_t>& segment_numbers) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t number : segment_numbers) {
    auto it = segments_.find(number);
    if (it != segments_.end() && it->second.append_pending > 0) {
      it->second.append_pending--;
    }
  }
}

Status VlogManager::EnsureReadableLocked(
    uint64_t segment, std::shared_ptr<RandomAccessFile>* file) {
  auto rit = readers_.find(segment);
  if (rit != readers_.end()) {
    *file = rit->second;
    return Status::OK();
  }
  if (segments_.find(segment) == segments_.end()) {
    return Status::NotFound("unknown vlog segment");
  }
  if (segment == active_number_ && active_file_ != nullptr) {
    // The writable handle may hold user-space-buffered bytes a separate
    // read handle cannot see yet.
    Status fs = active_file_->Flush();
    if (!fs.ok()) return fs;
  }
  std::unique_ptr<RandomAccessFile> raw;
  Status s = env_->NewRandomAccessFile(VlogFileName(dbname_, segment), &raw);
  if (!s.ok()) return s;
  std::shared_ptr<RandomAccessFile> shared(raw.release());
  readers_[segment] = shared;
  *file = shared;
  return Status::OK();
}

Status VlogManager::CheckLocationLocked(const ValueLocation& loc) const {
  auto it = segments_.find(loc.segment);
  if (it == segments_.end()) return Status::NotFound("unknown vlog segment");
  // The pointer comes from an SSTable, so it is checked before it can
  // size an allocation or reach the cache.
  const uint64_t size =
      loc.segment == active_number_ ? active_size_ : it->second.size;
  if (loc.length < kFrameMin || loc.offset > size ||
      loc.length > size - loc.offset) {
    return Status::Corruption("value location outside its segment");
  }
  return Status::OK();
}

void VlogManager::CacheValue(const ValueLocation& loc, const Slice& value) {
  if (opts_.cache == nullptr ||
      !any_resolve_.load(std::memory_order_relaxed)) {
    return;
  }
  char key[kCacheKeySize];
  EncodeCacheKey(cache_id_, loc.segment, loc.offset, key);
  InsertValue(opts_.cache, key, value, /*referenced=*/true);
}

Status VlogManager::Read(const ValueLocation& loc, std::string* value,
                         bool fill_cache) {
  auto fail = [this](Status s) {
    resolve_error_counter_->Add(1);
    return s;
  };
  Status s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = CheckLocationLocked(loc);
  }
  if (!s.ok()) return fail(s);
  if (!any_resolve_.load(std::memory_order_relaxed)) {  // stored once
    any_resolve_.store(true, std::memory_order_relaxed);
  }
  char cache_key[kCacheKeySize];
  if (opts_.cache != nullptr) {
    EncodeCacheKey(cache_id_, loc.segment, loc.offset, cache_key);
    std::shared_ptr<void> entry =
        opts_.cache->Lookup(Slice(cache_key, kCacheKeySize));
    if (entry != nullptr) {
      const Slice cached = CachedValue(entry);
      value->assign(cached.data(), cached.size());
      resolves_counter_->Add(1);
      resolve_cache_hit_counter_->Add(1);
      return Status::OK();
    }
  }
  std::shared_ptr<RandomAccessFile> file;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = EnsureReadableLocked(loc.segment, &file);
    if (s.ok() && loc.segment == active_number_ && active_file_ != nullptr) {
      // Re-flush in case frames were appended after the reader was
      // cached; sealed segments never grow.
      s = active_file_->Flush();
    }
  }
  if (!s.ok()) return fail(s);
  std::string scratch(loc.length, '\0');
  Slice frame;
  s = file->Read(loc.offset, loc.length, &frame, scratch.data());
  if (s.ok() && frame.size() != loc.length) {
    s = Status::Corruption("short value log read");
  }
  Slice key, val;
  uint64_t frame_len = 0;
  if (s.ok() &&
      (!DecodeFrame(frame, &key, &val, &frame_len) || frame_len != loc.length)) {
    s = Status::Corruption("corrupt value log frame");
  }
  if (!s.ok()) return fail(s);
  value->assign(val.data(), val.size());
  if (opts_.cache != nullptr && fill_cache) {
    InsertValue(opts_.cache, cache_key, val, /*referenced=*/false);
  }
  resolves_counter_->Add(1);
  return Status::OK();
}

void VlogManager::CreditDiscard(const Slice& encoded_location) {
  ValueLocation loc;
  if (!DecodeValueLocation(encoded_location, &loc)) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(loc.segment);
  if (it == segments_.end()) return;
  it->second.dead += loc.length;
  if (it->second.dead > it->second.size &&
      it->second.state != SegmentState::kActive) {
    it->second.dead = it->second.size;
  }
  RecomputeGcFlagLocked();
  UpdateGaugesLocked();
}

void VlogManager::RecomputeGcFlagLocked() {
  bool needs = false;
  for (const auto& [number, info] : segments_) {
    if (info.state != SegmentState::kSealed || info.size == 0) continue;
    if (static_cast<double>(info.dead) >=
        kGcDeadRatio * static_cast<double>(info.size)) {
      needs = true;
      break;
    }
  }
  needs_gc_.store(needs, std::memory_order_release);
}

void VlogManager::UpdateGaugesLocked() {
  int64_t total = 0;
  int64_t dead = 0;
  int64_t pending = 0;
  for (const auto& [number, info] : segments_) {
    if (info.state == SegmentState::kRetiring) {
      pending++;
      continue;
    }
    total += static_cast<int64_t>(number == active_number_ ? active_size_
                                                           : info.size);
    dead += static_cast<int64_t>(info.dead);
  }
  segments_gauge_->Set(static_cast<int64_t>(segments_.size()) - pending);
  dead_bytes_gauge_->Set(dead);
  live_bytes_gauge_->Set(total);
  pending_retire_gauge_->Set(pending);
}

bool VlogManager::PickGcSegment(uint64_t* segment) {
  std::lock_guard<std::mutex> lock(mu_);
  double best_ratio = 0;
  bool found = false;
  for (const auto& [number, info] : segments_) {
    if (info.state != SegmentState::kSealed || info.size == 0 ||
        info.append_pending > 0) {
      continue;
    }
    const double ratio =
        static_cast<double>(info.dead) / static_cast<double>(info.size);
    if (ratio >= kGcDeadRatio && ratio >= best_ratio) {
      best_ratio = ratio;
      *segment = number;
      found = true;
    }
  }
  return found;
}

std::vector<uint64_t> VlogManager::SealedSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> result;
  for (const auto& [number, info] : segments_) {
    if (info.state == SegmentState::kSealed) result.push_back(number);
  }
  return result;
}

Status VlogManager::RollActive() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_file_ == nullptr) return Status::OK();
  if (active_size_ == 0 && !active_poisoned_) return Status::OK();
  return RollActiveLocked();
}

bool VlogManager::BeginGc(uint64_t segment) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(segment);
  if (it == segments_.end() || it->second.state != SegmentState::kSealed ||
      it->second.append_pending > 0) {
    return false;
  }
  it->second.state = SegmentState::kGcInProgress;
  return true;
}

Status VlogManager::ScanSegment(
    uint64_t segment,
    const std::function<Status(const Slice& key, const Slice& value,
                               const ValueLocation& loc)>& cb) {
  uint64_t limit = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(segment);
    if (it == segments_.end()) return Status::NotFound("unknown vlog segment");
    limit = it->second.size;
  }
  std::string contents;
  Status s = ReadFileToString(env_, VlogFileName(dbname_, segment), &contents);
  if (!s.ok()) return s;
  if (contents.size() < limit) {
    return Status::Corruption("vlog segment shorter than sealed size");
  }
  Slice rest(contents.data(), limit);
  uint64_t offset = 0;
  while (!rest.empty()) {
    Slice key, value;
    uint64_t frame_len = 0;
    if (!DecodeFrame(rest, &key, &value, &frame_len)) {
      return Status::Corruption("corrupt frame in sealed vlog segment");
    }
    ValueLocation loc;
    loc.segment = segment;
    loc.offset = offset;
    loc.length = static_cast<uint32_t>(frame_len);
    s = cb(key, value, loc);
    if (!s.ok()) return s;
    offset += frame_len;
    rest.remove_prefix(frame_len);
  }
  return Status::OK();
}

void VlogManager::FinishGc(uint64_t segment, bool retire,
                           SequenceNumber retire_seq,
                           uint64_t rewritten_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(segment);
  if (it == segments_.end()) return;
  assert(it->second.state == SegmentState::kGcInProgress);
  if (retire) {
    it->second.state = SegmentState::kRetiring;
    it->second.retire_seq = retire_seq;
    gc_runs_counter_->Add(1);
    gc_rewritten_counter_->Add(rewritten_bytes);
    gc_reclaimed_counter_->Add(it->second.size);
  } else {
    it->second.state = SegmentState::kSealed;
  }
  RecomputeGcFlagLocked();
  UpdateGaugesLocked();
}

void VlogManager::SweepRetired(SequenceNumber min_pinned) {
  std::vector<uint64_t> swept;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = segments_.begin(); it != segments_.end();) {
      if (it->second.state == SegmentState::kRetiring &&
          it->second.retire_seq <= min_pinned) {
        const uint64_t number = it->first;
        readers_.erase(number);  // in-flight reads keep their shared_ptr
        env_->RemoveFile(VlogFileName(dbname_, number));
        obs::Log(info_log_,
                 "EVENT vlog_segment_retired segment=%llu bytes=%llu",
                 (unsigned long long)number,
                 (unsigned long long)it->second.size);
        retired_counter_->Add(1);
        swept.push_back(number);
        it = segments_.erase(it);
      } else {
        ++it;
      }
    }
    UpdateGaugesLocked();
  }
  if (opts_.cache == nullptr) return;
  // Outside mu_: each erase scans every cache shard.
  for (uint64_t number : swept) {
    char prefix[kCacheKeySize];
    EncodeCacheKey(cache_id_, number, 0, prefix);
    opts_.cache->ErasePrefix(Slice(prefix, kSegmentPrefixSize));
  }
}

std::string VlogManager::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("active_segment").Uint(active_number_);
  w.Key("active_bytes").Uint(active_size_);
  w.Key("gc_runs").Uint(gc_runs()).Key("segments_retired");
  w.Uint(segments_retired()).Key("segments").BeginArray();
  for (const auto& [number, info] : segments_) {
    const char* state = "sealed";
    switch (info.state) {
      case SegmentState::kActive:
        state = "active";
        break;
      case SegmentState::kSealed:
        state = "sealed";
        break;
      case SegmentState::kGcInProgress:
        state = "gc";
        break;
      case SegmentState::kRetiring:
        state = "retiring";
        break;
    }
    w.BeginObject().Key("number").Uint(number);
    w.Key("bytes").Uint(number == active_number_ ? active_size_ : info.size);
    w.Key("dead_bytes").Uint(info.dead).Key("state").String(state);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

uint64_t VlogManager::active_segment() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_number_;
}

size_t VlogManager::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [number, info] : segments_) {
    if (info.state != SegmentState::kRetiring) n++;
  }
  return n;
}

size_t VlogManager::pending_retire_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [number, info] : segments_) {
    if (info.state == SegmentState::kRetiring) n++;
  }
  return n;
}

uint64_t VlogManager::dead_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [number, info] : segments_) {
    if (info.state != SegmentState::kRetiring) n += info.dead;
  }
  return n;
}

}  // namespace vlog
}  // namespace pipelsm
