#include "src/compaction/picker.h"

#include <algorithm>
#include <cassert>

#include "src/version/version_set.h"

namespace pipelsm {

namespace {

int64_t TotalFileSize(const std::vector<FileMetaData*>& files) {
  int64_t sum = 0;
  for (const FileMetaData* f : files) {
    sum += f->file_size;
  }
  return sum;
}

int LargestOccupiedLevel(const Version& v) {
  for (int level = config::kNumLevels - 1; level > 0; level--) {
    if (!v.files(level).empty()) return level;
  }
  return 0;
}

}  // namespace

int CountRuns(const InternalKeyComparator& icmp,
              const std::vector<FileMetaData*>& files) {
  // Sweep files in smallest-key order (Version order) keeping the
  // multiset of largest keys still "open"; the max live set size is the
  // deepest stack of overlapping files, i.e. the number of sorted runs.
  if (files.empty()) return 0;
  // Inverted comparison: std::*_heap put the cmp-greatest element at
  // front, and the sweep must retire the SMALLEST still-open largest
  // key first (a min-heap), else closed intervals linger and the depth
  // overcounts pairwise-overlapping staircases.
  auto cmp = [&icmp](const InternalKey* a, const InternalKey* b) {
    return icmp.Compare(*a, *b) > 0;
  };
  std::vector<const InternalKey*> open;  // heap keyed on smallest largest
  int depth = 0;
  for (const FileMetaData* f : files) {
    while (!open.empty() && icmp.Compare(*open.front(), f->smallest) < 0) {
      std::pop_heap(open.begin(), open.end(), cmp);
      open.pop_back();
    }
    open.push_back(&f->largest);
    std::push_heap(open.begin(), open.end(), cmp);
    depth = std::max(depth, static_cast<int>(open.size()));
  }
  return depth;
}

CompactionPicker::CompactionPicker(const Options& options)
    : upper_runs_(options.compaction_style == CompactionStyle::kLeveled
                      ? 1
                      : options.tiered_run_count),
      last_runs_(options.compaction_style == CompactionStyle::kTiered
                     ? options.tiered_run_count
                     : 1) {}

void CompactionPicker::ComputeScore(Version* v) const {
  const InternalKeyComparator& icmp = v->vset_->icmp_;
  const int last = LargestOccupiedLevel(*v);
  int best_level = -1;
  double best_score = -1;
  for (int level = 0; level <= last; level++) {
    const std::vector<FileMetaData*>& files = v->files_[level];
    if (files.empty()) continue;
    double score;
    if (level == 0) {
      // Level-0 is bounded by file count rather than bytes: with larger
      // write buffers it is nice not to do too many level-0 compactions,
      // every read merges all of its files, and the write-stall triggers
      // count files. A sequential load flushes disjoint files that never
      // stack past one run, so under K > 1 the file count stays a floor
      // beneath the run count.
      score = files.size() / static_cast<double>(config::kL0_CompactionTrigger);
      if (upper_runs_ > 1) {
        score = std::max(score, CountRuns(icmp, files) /
                                    static_cast<double>(upper_runs_));
      }
    } else if (const int cap = level < last ? upper_runs_ : last_runs_;
               cap > 1) {
      score = CountRuns(icmp, files) / static_cast<double>(cap);
    } else if (level + 1 < config::kNumLevels) {
      // A one-run level spills when over its size budget.
      score = static_cast<double>(TotalFileSize(files)) /
              v->vset_->MaxBytesForLevel(level);
    } else {
      continue;  // a one-run last level has nowhere to spill
    }
    if (score > best_score) {
      best_level = level;
      best_score = score;
    }
  }
  v->compaction_level_ = best_level;
  v->compaction_score_ = best_score;
}

Compaction* CompactionPicker::Pick(VersionSet* vset) const {
  Version* current = vset->current_;
  if (!(current->compaction_score_ >= 1)) {
    return nullptr;
  }
  const int level = current->compaction_level_;
  assert(level >= 0);
  // The last level, with nowhere to push, collapses in place.
  const int output_level =
      (level + 1 < config::kNumLevels) ? level + 1 : level;
  Compaction* c = new Compaction(vset->options_, level, output_level);
  c->input_version_ = current;
  current->Ref();
  std::vector<FileMetaData*>& inputs = c->inputs_[0];

  if (upper_runs_ == 1) {
    // LevelDB's path: pick the first file that comes after
    // compact_pointer_[level], wrapping around the key space.
    assert(output_level > level);
    const std::string& pointer = vset->compact_pointer_[level];
    for (FileMetaData* f : current->files_[level]) {
      if (pointer.empty() ||
          vset->icmp_.Compare(f->largest.Encode(), pointer) > 0) {
        inputs.push_back(f);
        break;
      }
    }
    if (inputs.empty()) {
      inputs.push_back(current->files_[level][0]);
    }
    // Files in level 0 may overlap each other, so pick up all overlapping
    // ones (the result includes the file picked above).
    if (level == 0) {
      InternalKey smallest, largest;
      vset->GetRange(inputs, &smallest, &largest);
      current->GetOverlappingInputs(0, &smallest, &largest, &inputs);
      assert(!inputs.empty());
    }
    vset->SetupOtherInputs(c);
    return c;
  }

  // K > 1 moves the whole level: a partial pick could sink young data
  // below older resident runs and break newest-first file-number order.
  inputs = current->files_[level];
  if (last_runs_ == 1 && output_level >= LargestOccupiedLevel(*current)) {
    // Landing on (or spilling past) a one-run largest level: merge with
    // the overlapping residents so it stays one sorted run.
    assert(output_level > level);
    InternalKey smallest, largest;
    vset->GetRange(inputs, &smallest, &largest);
    current->GetOverlappingInputs(output_level, &smallest, &largest,
                                  &c->inputs_[1]);
  }
  return c;
}

}  // namespace pipelsm
