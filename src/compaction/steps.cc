#include "src/compaction/steps.h"

#include <algorithm>
#include <thread>

#include "src/table/block.h"
#include "src/table/table.h"

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
      window_bytes_(options.subtask_bytes),
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
      // that are already held, and reads at least a sub-task's worth.
      if (off >= w.offset && off < held_end) {
        w.data.erase(0, off - w.offset);
      } else {
        w.data.clear();
      }
      w.offset = off;
      const uint64_t from = off + w.data.size();
      const uint64_t to =
          std::max(run_end, std::min(w.limit, off + window_bytes_));
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

// Forward-only cursor over one input table's run of decoded blocks within
// a sub-task. Blocks of one table are disjoint and sorted, so chaining
// their iterators yields that table's sorted entries.
class ChainCursor {
 public:
  ChainCursor(const Comparator* icmp, std::vector<std::unique_ptr<Block>> blocks)
      : icmp_(icmp), blocks_(std::move(blocks)) {
    Advance();
  }

  bool Valid() const { return iter_ != nullptr && iter_->Valid(); }
  Slice key() const { return iter_->key(); }
  Slice value() const { return iter_->value(); }

  void Next() {
    iter_->Next();
    if (!iter_->Valid() && iter_->status().ok()) Advance();
  }

  Status status() const {
    return iter_ != nullptr ? iter_->status() : Status::OK();
  }

 private:
  // Position on the first non-empty remaining block (or stop on error).
  void Advance() {
    iter_.reset();
    while (next_block_ < blocks_.size()) {
      iter_.reset(blocks_[next_block_++]->NewIterator(icmp_));
      iter_->SeekToFirst();
      if (iter_->Valid() || !iter_->status().ok()) return;
      iter_.reset();
    }
  }

  const Comparator* icmp_;
  std::vector<std::unique_ptr<Block>> blocks_;
  size_t next_block_ = 0;
  std::unique_ptr<Iterator> iter_;
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
  // Decoded contents are grouped per input table, preserving block order,
  // so each table contributes one sorted run to the merge.
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
      std::string contents;
      Status s = DecodeRawBlock(raw.blocks[i], &contents);
      if (!s.ok()) return s;
      bytes += contents.size();
      // Hand the decoded bytes to a Block that owns them.
      char* buf = new char[contents.size()];
      std::memcpy(buf, contents.data(), contents.size());
      BlockContents bc;
      bc.data = Slice(buf, contents.size());
      bc.heap_allocated = true;
      bc.cachable = false;
      runs[plan.blocks[i].table_index].emplace_back(new Block(bc));
    }
    profile->AddStep(kStepDecompress, sw.ElapsedNanos(), bytes);
  }

  // ---- S4: SORT — k-way merge with shadowing/tombstone dropping. ----
  // ---- S5/S6 run per output block inside BlockEncoder::Finish. ----
  {
    Stopwatch sort_sw;
    uint64_t sort_ns = 0;
    uint64_t merged_bytes = 0;

    std::vector<std::unique_ptr<ChainCursor>> cursors;
    for (auto& run : runs) {
      if (!run.empty()) {
        cursors.emplace_back(new ChainCursor(icmp, std::move(run)));
      }
    }

    BlockEncoder encoder(options.table);
    std::string current_user_key;
    bool has_current_user_key = false;
    bool first_occurrence = true;  // no newer version of this key seen yet
    SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

    auto flush_block = [&]() {
      if (encoder.empty()) return;
      // S4 time has been accumulating; pause it across S5/S6.
      sort_ns += sort_sw.ElapsedNanos();
      EncodedBlock eb;
      encoder.Finish(&eb, profile);
      out->output_raw_bytes += eb.raw_size;
      out->blocks.push_back(std::move(eb));
      sort_sw.Restart();
    };

    while (true) {
      // Pick the smallest current key among the table runs.
      ChainCursor* best = nullptr;
      for (auto& c : cursors) {
        if (c->Valid()) {
          if (best == nullptr ||
              icmp->Compare(c->key(), best->key()) < 0) {
            best = c.get();
          }
        }
      }
      if (best == nullptr) break;

      Slice key = best->key();
      ParsedInternalKey parsed;
      if (!ParseInternalKey(key, &parsed)) {
        return Status::Corruption("compaction: unparsable internal key");
      }

      // Range filter: only user keys in (lo, hi] belong to this sub-task.
      bool in_range = true;
      if (!plan.unbounded_lo &&
          ucmp->Compare(parsed.user_key, plan.lo_user_key) <= 0) {
        in_range = false;
      }
      if (in_range && !plan.unbounded_hi &&
          ucmp->Compare(parsed.user_key, plan.hi_user_key) > 0) {
        in_range = false;
      }

      bool drop = !in_range;
      if (in_range) {
        if (!has_current_user_key ||
            ucmp->Compare(parsed.user_key, current_user_key) != 0) {
          // First occurrence of this user key.
          current_user_key.assign(parsed.user_key.data(),
                                  parsed.user_key.size());
          has_current_user_key = true;
          first_occurrence = true;
          last_sequence_for_key = kMaxSequenceNumber;
        }

        if (!first_occurrence &&
            last_sequence_for_key <= options.smallest_snapshot) {
          // Hidden by a newer entry for the same user key.
          drop = true;
        } else if (parsed.type == kTypeDeletion &&
                   parsed.sequence <= options.smallest_snapshot &&
                   plan.drop_deletions) {
          // A tombstone with no data below it and no snapshot that could
          // still observe the deleted key: drop it.
          drop = true;
        }
        last_sequence_for_key = parsed.sequence;
        first_occurrence = false;
      }

      if (drop && in_range && options.on_drop_entry) {
        options.on_drop_entry(parsed.type, best->value());
      }

      if (!drop) {
        if (out->entries == 0) {
          out->smallest_key.assign(key.data(), key.size());
        }
        encoder.Add(key, best->value());
        out->largest_key.assign(key.data(), key.size());
        out->entries++;
        merged_bytes += key.size() + best->value().size();
        if (encoder.full()) {
          flush_block();
        }
      }

      best->Next();
      if (!best->status().ok()) return best->status();
    }
    flush_block();
    sort_ns += sort_sw.ElapsedNanos();
    profile->AddStep(kStepSort, sort_ns, merged_bytes);
  }

  if (options.time_dilation > 1.0) {
    // Slow-motion mode: stretch this sub-task's compute phase uniformly.
    // The extra time is spent sleeping, so concurrent compute workers
    // overlap even on a single physical core.
    const uint64_t real_ns = profile->ComputeNanos();
    const uint64_t extra =
        static_cast<uint64_t>(real_ns * (options.time_dilation - 1.0));
    std::this_thread::sleep_for(std::chrono::nanoseconds(extra));
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
