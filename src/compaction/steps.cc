#include "src/compaction/steps.h"

#include <algorithm>

#include "src/memtable/memtable.h"
#include "src/table/block.h"
#include "src/table/table.h"
#include "src/util/coding.h"
#include "src/util/stopwatch.h"

namespace pipelsm {

namespace {

// End offset of a block's stored bytes (payload + trailer).
uint64_t StoredEnd(const BlockHandle& handle) {
  return handle.offset() + handle.size() + kBlockTrailerSize;
}

// Calls fn(begin, end) for each run of consecutive blocks from one table.
template <typename Fn>
Status ForEachTableRun(const std::vector<BlockRead>& blocks, Fn fn) {
  for (size_t i = 0; i < blocks.size();) {
    size_t j = i + 1;
    while (j < blocks.size() &&
           blocks[j].table_index == blocks[i].table_index) {
      j++;
    }
    Status s = fn(i, j);
    if (!s.ok()) return s;
    i = j;
  }
  return Status::OK();
}

}  // namespace

WindowedReader::WindowedReader(
    const CompactionJobOptions& options,
    const std::vector<std::shared_ptr<Table>>& inputs,
    const std::vector<SubTaskPlan>& plans)
    : inputs_(inputs),
      window_bytes_(std::max(options.subtask_bytes, options.min_read_bytes)),
      min_read_bytes_(options.min_read_bytes),
      windowed_(options.coalesce_reads),
      windows_(inputs.size()) {
  for (const SubTaskPlan& plan : plans) {
    ForEachTableRun(plan.blocks, [&](size_t begin, size_t end) {
      const size_t t = plan.blocks[begin].table_index;
      if (t < windows_.size()) {
        windows_[t].reads_left++;
        windows_[t].limit = std::max(windows_[t].limit,
                                     StoredEnd(plan.blocks[end - 1].handle));
      }
      return Status::OK();
    });
  }
}

Status WindowedReader::Read(SubTaskPlan plan, RawSubTask* out,
                            StepProfile* profile) {
  out->plan = std::move(plan);
  out->blocks.clear();
  out->blocks.resize(out->plan.blocks.size());

  Stopwatch sw;
  uint64_t bytes = 0;
  Status s = ForEachTableRun(out->plan.blocks, [&](size_t begin, size_t end) {
    const int t = out->plan.blocks[begin].table_index;
    if (t < 0 || t >= static_cast<int>(inputs_.size())) {
      return Status::InvalidArgument("sub-task references unknown table");
    }
    return ReadRun(begin, end, out, &bytes);
  });
  if (!s.ok()) return s;
  profile->AddStep(kStepRead, sw.ElapsedNanos(), bytes);
  return Status::OK();
}

Status WindowedReader::ReadRun(size_t begin, size_t end, RawSubTask* out,
                               uint64_t* bytes) {
  const std::vector<BlockRead>& brs = out->plan.blocks;
  const int t = brs[begin].table_index;
  const Table& table = *inputs_[t];

  if (!windowed_) {
    for (size_t k = begin; k < end; k++) {
      const uint64_t len = brs[k].handle.size() + kBlockTrailerSize;
      out->blocks[k].handle = brs[k].handle;
      Status s =
          table.ReadExtent(brs[k].handle.offset(), len, &out->blocks[k].payload);
      if (!s.ok()) return s;
      *bytes += len;
    }
    return Status::OK();
  }

  Window& w = windows_[t];
  std::lock_guard<std::mutex> lock(w.mu);
  const uint64_t run_end = StoredEnd(brs[end - 1].handle);
  for (size_t k = begin; k < end; k++) {
    const uint64_t off = brs[k].handle.offset();
    const uint64_t len = brs[k].handle.size() + kBlockTrailerSize;
    const uint64_t held_end = w.offset + w.data.size();
    if (off < w.offset || off + len > held_end) {
      // Miss: the window restarts at this block, keeping the bytes of it
      // that are already held, and reads at least a window's worth. It
      // also takes a tail of the table shorter than min_read_bytes: read
      // on its own, that tail (often one block spilling past a table cut
      // at max_output_file_size) would pay a whole positioning.
      if (off >= w.offset && off < held_end) {
        w.data.erase(0, off - w.offset);
      } else {
        w.data.clear();
      }
      w.offset = off;
      const uint64_t from = off + w.data.size();
      uint64_t to = std::max(run_end, std::min(w.limit, off + window_bytes_));
      if (to < w.limit && w.limit - to < min_read_bytes_) to = w.limit;
      std::string tail;
      std::string* dst = w.data.empty() ? &w.data : &tail;
      Status s = table.ReadExtent(from, to - from, dst);
      if (!s.ok()) {
        w.data.clear();
        return s;
      }
      if (dst == &tail) w.data.append(tail);
      *bytes += to - from;
    }
    out->blocks[k].handle = brs[k].handle;
    out->blocks[k].payload.assign(w.data.data() + (off - w.offset), len);
  }
  // After the table's last planned sub-task, drop its window.
  if (w.reads_left > 0) w.reads_left--;
  if (w.reads_left == 0) std::string().swap(w.data);
  return Status::OK();
}

namespace {

// Internal-key order for seeking in an input block, which may be hostile:
// a key too short to hold its 8-byte tag sorts first, so a seek passes it
// instead of reading out of bounds. A cursor that lands on one reports it.
class SeekComparator final : public Comparator {
 public:
  explicit SeekComparator(const Comparator* icmp) : icmp_(icmp) {}
  const char* Name() const override { return "pipelsm.SeekComparator"; }
  int Compare(const Slice& a, const Slice& b) const override {
    if (a.size() < 8 || b.size() < 8) {
      return static_cast<int>(a.size() >= 8) - static_cast<int>(b.size() >= 8);
    }
    return icmp_->Compare(a, b);
  }

 private:
  const Comparator* const icmp_;
};

// Forward-only cursor over one sorted run within a sub-task: an input
// table's run of decoded blocks, or a memtable's iterator. Blocks of one
// table are disjoint and sorted, so chaining them yields that table's
// sorted entries. The current entry's user key and 8-byte tag are cached,
// so the merge compares user keys once and tags as integers.
class RunCursor {
 public:
  RunCursor(const Comparator* cmp, std::vector<std::unique_ptr<Block>> blocks,
            int order)
      : cmp_(cmp), blocks_(std::move(blocks)), order_(order), next_block_(1),
        iter_(blocks_[0]->NewIterator(cmp)) {}
  RunCursor(Iterator* iter, int order)
      : cmp_(nullptr), order_(order), iter_(iter) {}

  // Positions the cursor on the run's first entry whose user key is past
  // `lo` (its first entry when lo is null). The planner lists a block only
  // if its last key is past lo, so only the first block can hold keys at
  // or below lo: it is binary-searched, and the loop covers other plans.
  Status Start(const Comparator* ucmp, const Slice* lo) {
    if (lo == nullptr) {
      iter_->SeekToFirst();
      return Load();
    }
    std::string target(lo->data(), lo->size());
    PutFixed64(&target, 0);  // the last internal key of user key lo
    iter_->Seek(target);
    Status s = Load();
    while (s.ok() && Valid() && ucmp->Compare(user_key_, *lo) <= 0) {
      s = Next();
    }
    return s;
  }

  bool Valid() const { return iter_ != nullptr; }
  Slice key() const { return key_; }
  Slice user_key() const { return user_key_; }
  uint64_t tag() const { return tag_; }
  Slice value() const { return iter_->value(); }
  int order() const { return order_; }

  Status Next() {
    iter_->Next();
    return Load();
  }

 private:
  // Caches the entry under iter_, first moving to the next non-empty
  // block if iter_ is exhausted; clears iter_ at the end of the run.
  Status Load() {
    while (!iter_->Valid()) {
      Status s = iter_->status();
      if (!s.ok() || next_block_ == blocks_.size()) {
        iter_.reset();
        return s;
      }
      iter_.reset(blocks_[next_block_++]->NewIterator(cmp_));
      iter_->SeekToFirst();
    }
    key_ = iter_->key();
    if (key_.size() < 8) {
      iter_.reset();
      return Status::Corruption("compaction: unparsable internal key");
    }
    user_key_ = Slice(key_.data(), key_.size() - 8);
    tag_ = DecodeFixed64(key_.data() + key_.size() - 8);
    return Status::OK();
  }

  const Comparator* const cmp_;
  std::vector<std::unique_ptr<Block>> blocks_;  // empty for an iterator run
  const int order_;  // table order: breaks ties between equal keys
  size_t next_block_ = 0;
  std::unique_ptr<Iterator> iter_;  // null once exhausted
  Slice key_;
  Slice user_key_;
  uint64_t tag_ = 0;
};

// Binary min-heap of the live cursors, ordered by (user key ascending, tag
// descending, table order ascending): the internal-key order, with one
// user-comparator call per comparison.
class MergeHeap {
 public:
  explicit MergeHeap(const Comparator* ucmp) : ucmp_(ucmp) {}

  void Push(RunCursor* c) {
    size_t i = heap_.size();
    heap_.push_back(c);
    while (i > 0 && Before(c, heap_[(i - 1) / 2])) {
      heap_[i] = heap_[(i - 1) / 2];
      i = (i - 1) / 2;
    }
    heap_[i] = c;
  }

  bool empty() const { return heap_.empty(); }
  RunCursor* top() const { return heap_[0]; }

  // Restores the order after top() moved forward, dropping it if it ran
  // out.
  void TopAdvanced() {
    if (!heap_[0]->Valid()) {
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (heap_.empty()) return;
    }
    RunCursor* const c = heap_[0];
    const size_t n = heap_.size();
    size_t i = 0;
    for (size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && Before(heap_[child + 1], heap_[child])) child++;
      if (!Before(heap_[child], c)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = c;
  }

 private:
  bool Before(const RunCursor* a, const RunCursor* b) const {
    const int r = ucmp_->Compare(a->user_key(), b->user_key());
    if (r != 0) return r < 0;
    if (a->tag() != b->tag()) return a->tag() > b->tag();
    return a->order() < b->order();
  }

  const Comparator* const ucmp_;
  std::vector<RunCursor*> heap_;
};

}  // namespace

Status ComputeSubTask(const CompactionJobOptions& options, RawSubTask raw,
                      ComputedSubTask* out) {
  const InternalKeyComparator* icmp = options.icmp;
  const Comparator* ucmp = icmp->user_comparator();
  const SubTaskPlan& plan = raw.plan;

  out->seq = plan.seq;
  out->blocks.clear();
  out->entries = 0;
  out->output_raw_bytes = 0;
  StepProfile* profile = &out->profile;
  profile->subtasks = 1;

  // ---- S2: CHECKSUM — verify every raw block's trailer. ----
  {
    Stopwatch sw;
    uint64_t bytes = 0;
    for (const RawBlock& rb : raw.blocks) {
      Status s = VerifyRawBlock(rb);
      if (!s.ok()) return s;
      bytes += rb.payload.size();
    }
    profile->AddStep(kStepChecksum, sw.ElapsedNanos(), bytes);
  }

  // ---- S3: DECOMPRESS — restore the original key-value blocks. ----
  // Each block is decoded once; an uncompressed one is parsed in place
  // from `raw`, which outlives the merge. Blocks are grouped per input
  // table, preserving block order, so each table contributes one sorted
  // run to the merge.
  std::vector<std::vector<std::unique_ptr<Block>>> runs;
  {
    Stopwatch sw;
    uint64_t bytes = 0;
    int max_table = -1;
    for (const BlockRead& br : plan.blocks) {
      max_table = std::max(max_table, br.table_index);
    }
    runs.resize(max_table + 1);
    for (size_t i = 0; i < raw.blocks.size(); i++) {
      BlockContents contents;
      Status s = DecodeBlock(raw.blocks[i].payload, &contents);
      if (!s.ok()) return s;
      bytes += contents.data.size();
      runs[plan.blocks[i].table_index].emplace_back(new Block(contents));
    }
    profile->AddStep(kStepDecompress, sw.ElapsedNanos(), bytes);
  }

  // ---- S4: SORT — k-way merge with shadowing/tombstone dropping. ----
  // Each run starts past lo, and the merge stops once the smallest
  // remaining user key passes hi, so entries outside (lo, hi] are never
  // merged. S5/S6 run per output block inside BlockEncoder::Finish.
  {
    Stopwatch sort_sw;
    uint64_t sort_ns = 0;
    uint64_t merged_bytes = 0;

    const SeekComparator seek_cmp(icmp);
    const Slice lo(plan.lo_user_key);
    const Slice hi(plan.hi_user_key);
    std::vector<RunCursor> cursors;
    cursors.reserve(runs.size() + 1);  // the heap points into it
    for (size_t t = 0; t < runs.size(); t++) {
      if (runs[t].empty()) continue;
      cursors.emplace_back(&seek_cmp, std::move(runs[t]), static_cast<int>(t));
    }
    if (options.memtable != nullptr) {
      cursors.emplace_back(options.memtable->NewIterator(),
                           static_cast<int>(runs.size()));
    }
    MergeHeap heap(ucmp);
    for (RunCursor& cursor : cursors) {
      Status s = cursor.Start(ucmp, plan.unbounded_lo ? nullptr : &lo);
      if (!s.ok()) return s;
      if (cursor.Valid()) heap.Push(&cursor);
    }

    BlockEncoder encoder(options.table);
    std::string current_user_key;
    bool has_current_user_key = false;
    bool first_occurrence = true;  // no newer version of this key seen yet
    SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

    auto flush_block = [&]() {
      if (encoder.empty()) return;
      // Finish times itself: the filter under S4, then S5 and S6.
      sort_ns += sort_sw.ElapsedNanos();
      EncodedBlock eb;
      encoder.Finish(&eb, profile);
      out->output_raw_bytes += eb.raw_size;
      out->blocks.push_back(std::move(eb));
      sort_sw.Restart();
    };

    while (!heap.empty()) {
      RunCursor* best = heap.top();
      const Slice user_key = best->user_key();
      if (!plan.unbounded_hi && ucmp->Compare(user_key, hi) > 0) break;
      const ValueType type = static_cast<ValueType>(best->tag() & 0xff);
      const SequenceNumber sequence = best->tag() >> 8;
      if (type > kTypeValuePointer) {
        return Status::Corruption("compaction: unparsable internal key");
      }

      if (!has_current_user_key ||
          ucmp->Compare(user_key, current_user_key) != 0) {
        // First occurrence of this user key.
        current_user_key.assign(user_key.data(), user_key.size());
        has_current_user_key = true;
        first_occurrence = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }

      bool drop = false;
      if (!first_occurrence &&
          last_sequence_for_key <= options.smallest_snapshot) {
        // Hidden by a newer entry for the same user key.
        drop = true;
      } else if (type == kTypeDeletion &&
                 sequence <= options.smallest_snapshot &&
                 plan.drop_deletions) {
        // A tombstone with no data below it and no snapshot that could
        // still observe the deleted key: drop it.
        drop = true;
      }
      last_sequence_for_key = sequence;
      first_occurrence = false;

      if (drop) {
        if (options.on_drop_entry) options.on_drop_entry(type, best->value());
      } else {
        const Slice key = best->key();
        encoder.Add(key, best->value());
        out->entries++;
        merged_bytes += key.size() + best->value().size();
        if (encoder.full()) {
          flush_block();
        }
      }

      Status s = best->Next();
      if (!s.ok()) return s;
      heap.TopAdvanced();
    }
    flush_block();
    sort_ns += sort_sw.ElapsedNanos();
    profile->AddStep(kStepSort, sort_ns, merged_bytes);
    if (out->entries > 0) {
      out->smallest_key = out->blocks.front().first_key;
      out->largest_key = out->blocks.back().last_key;
    }
  }

  if (options.time_dilation > 1.0) {
    // Slow-motion mode: stretch this sub-task's compute phase uniformly.
    // The extra time is spent sleeping, so concurrent compute workers
    // overlap even on a single physical core. SleepUntil wakes on time:
    // compute threads never charge the device, so their timer slack
    // would otherwise add up to 50 µs to each dilated sub-task.
    const uint64_t real_ns = profile->ComputeNanos();
    const uint64_t extra =
        static_cast<uint64_t>(real_ns * (options.time_dilation - 1.0));
    SleepUntil(std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(extra));
    for (CompactionStep s : {kStepChecksum, kStepDecompress, kStepSort,
                             kStepCompress, kStepRechecksum}) {
      profile->nanos[s] = static_cast<uint64_t>(profile->nanos[s] *
                                                options.time_dilation);
    }
  }

  return Status::OK();
}

DeviceProfile DilatedProfile(DeviceProfile profile, double dilation) {
  if (dilation > 1.0) {
    profile.read_position_us *= dilation;
    profile.write_position_us *= dilation;
    profile.read_bw_bps /= dilation;
    profile.write_bw_bps /= dilation;
    profile.name += "-x" + std::to_string(static_cast<int>(dilation));
  }
  return profile;
}

}  // namespace pipelsm
