#include "src/compaction/picker.h"

#include <algorithm>
#include <cassert>


namespace pipelsm {

const char* CompactionStyleName(CompactionStyle style) {
  switch (style) {
    case CompactionStyle::kLeveled:
      return "leveled";
    case CompactionStyle::kTiered:
      return "tiered";
    case CompactionStyle::kLazyLeveling:
      return "lazy_leveling";
  }
  return "unknown";
}

CompactionPicker::~CompactionPicker() = default;

Compaction* CompactionPicker::MakeCompaction(VersionSet* vset, int level,
                                             int output_level) {
  Compaction* c = new Compaction(vset->options_, level, output_level);
  c->input_version_ = vset->current_;
  c->input_version_->Ref();
  return c;
}

namespace {

int64_t TotalFileSize(const std::vector<FileMetaData*>& files) {
  int64_t sum = 0;
  for (const FileMetaData* f : files) {
    sum += f->file_size;
  }
  return sum;
}

double PredictWriteAmp(const Compaction* c) {
  const int64_t in0 = TotalFileSize(c->inputs(0));
  if (in0 <= 0) return 1.0;
  return static_cast<double>(c->TotalInputBytes()) / static_cast<double>(in0);
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

namespace {

// ---------------------------------------------------------------------
// Leveled: the LevelDB size-ratio policy this repo seeded with, moved
// verbatim out of VersionSet::Finalize / PickCompaction. One run per
// level; a spill merges the picked file(s) with the overlapping files
// of the next level.
// ---------------------------------------------------------------------
class LeveledCompactionPicker final : public CompactionPicker {
 public:
  explicit LeveledCompactionPicker(const Options* options)
      : CompactionPicker(options) {}

  const char* Name() const override { return "LeveledCompactionPicker"; }
  CompactionStyle Style() const override {
    return CompactionStyle::kLeveled;
  }
  bool AllowsOverlappingLevels() const override { return false; }

  void ComputeScore(Version* v) const override {
    int best_level = -1;
    double best_score = -1;

    for (int level = 0; level < config::kNumLevels - 1; level++) {
      double score;
      if (level == 0) {
        // We treat level-0 specially by bounding the number of files
        // instead of number of bytes: with larger write-buffer sizes it
        // is nice not to do too many level-0 compactions, and the files
        // are merged on every read so we wish to avoid too many of them.
        score = Files(v, level).size() /
                static_cast<double>(config::kL0_CompactionTrigger);
      } else {
        // Compute the ratio of current size to size limit.
        const uint64_t level_bytes = TotalFileSize(Files(v, level));
        score = static_cast<double>(level_bytes) /
                MaxLevelBytes(VSet(v), level);
      }

      if (score > best_score) {
        best_level = level;
        best_score = score;
      }
    }

    SetScore(v, best_level, best_score);
  }

  Compaction* Pick(VersionSet* vset) override {
    Version* current = vset->current();
    if (!(Score(current) >= 1)) {
      return nullptr;
    }

    const int level = ScoreLevel(current);
    assert(level >= 0);
    assert(level + 1 < config::kNumLevels);
    Compaction* c = MakeCompaction(vset, level, level + 1);
    const InternalKeyComparator* icmp = vset->icmp();

    // Pick the first file that comes after compact_pointer_[level].
    for (FileMetaData* f : Files(current, level)) {
      if (CompactPointer(vset, level).empty() ||
          icmp->Compare(f->largest.Encode(), CompactPointer(vset, level)) >
              0) {
        MutableInputs(c, 0)->push_back(f);
        break;
      }
    }
    if (c->inputs(0).empty()) {
      // Wrap-around to the beginning of the key space.
      MutableInputs(c, 0)->push_back(Files(current, level)[0]);
    }

    // Files in level 0 may overlap each other, so pick up all overlapping
    // ones.
    if (level == 0) {
      InternalKey smallest, largest;
      GetInputRange(vset, c->inputs(0), &smallest, &largest);
      // Note that the next call will discard the file we placed in
      // inputs_[0] earlier and replace it with an overlapping set which
      // will include the picked file.
      current->GetOverlappingInputs(0, &smallest, &largest,
                                    MutableInputs(c, 0));
      assert(!c->inputs(0).empty());
    }

    SetupOtherInputs(vset, c);  // also fills predicted_write_amp_

    return c;
  }
};

// ---------------------------------------------------------------------
// Tiered: each level accumulates up to Options::tiered_run_count
// overlapping sorted runs; when a level reaches the cap its ENTIRE file
// set merges into one new run at the next level without touching
// resident data there (predicted write-amp 1.0). The last level, with
// nowhere to push, self-merges its runs back into one. Taking whole
// levels is what keeps newest-first file-number order valid: a partial
// pick could sink young data below older resident runs.
// ---------------------------------------------------------------------
class TieredCompactionPicker final : public CompactionPicker {
 public:
  explicit TieredCompactionPicker(const Options* options)
      : CompactionPicker(options) {}

  const char* Name() const override { return "TieredCompactionPicker"; }
  CompactionStyle Style() const override { return CompactionStyle::kTiered; }
  bool AllowsOverlappingLevels() const override { return true; }

  void ComputeScore(Version* v) const override {
    const double trigger = options_->tiered_run_count;
    int best_level = -1;
    double best_score = -1;
    for (int level = 0; level < config::kNumLevels; level++) {
      const std::vector<FileMetaData*>& files = Files(v, level);
      if (files.empty()) continue;
      double score =
          CountRuns(*VSet(v)->icmp(), files) / trigger;
      if (level == 0) {
        // A sequential load produces disjoint L0 flushes that never
        // stack past one run, yet the write-stall triggers count FILES;
        // keep the file-count trigger as a floor so L0 always drains
        // before the slowdown/stop thresholds.
        score = std::max(
            score, files.size() /
                       static_cast<double>(config::kL0_CompactionTrigger));
      }
      if (score > best_score) {
        best_level = level;
        best_score = score;
      }
    }
    SetScore(v, best_level, best_score);
  }

  Compaction* Pick(VersionSet* vset) override {
    Version* current = vset->current();
    if (!(Score(current) >= 1)) {
      return nullptr;
    }
    const int level = ScoreLevel(current);
    assert(level >= 0);
    // Push the whole level one down; the last level collapses in place.
    const int output_level =
        (level + 1 < config::kNumLevels) ? level + 1 : level;
    Compaction* c = MakeCompaction(vset, level, output_level);
    *MutableInputs(c, 0) = Files(current, level);
    SetPredictedWriteAmp(c, 1.0);  // no resident data is rewritten
    return c;
  }
};

// ---------------------------------------------------------------------
// Lazy leveling (Dostoevsky): tiered above, leveled at the largest
// occupied level. Upper levels push whole-level runs down at write-amp
// ~1; a push that lands ON the largest level merges with its
// overlapping residents so the biggest level — holding most of the data
// and answering most point/range reads — stays a single run.
// ---------------------------------------------------------------------
class LazyLevelingCompactionPicker final : public CompactionPicker {
 public:
  explicit LazyLevelingCompactionPicker(const Options* options)
      : CompactionPicker(options) {}

  const char* Name() const override {
    return "LazyLevelingCompactionPicker";
  }
  CompactionStyle Style() const override {
    return CompactionStyle::kLazyLeveling;
  }
  bool AllowsOverlappingLevels() const override { return true; }

  void ComputeScore(Version* v) const override {
    const double trigger = options_->tiered_run_count;
    const int last = LargestOccupiedLevel(v);
    int best_level = -1;
    double best_score = -1;
    for (int level = 0; level <= last; level++) {
      const std::vector<FileMetaData*>& files = Files(v, level);
      if (files.empty()) continue;
      double score;
      if (level == last && level > 0) {
        // The largest level is leveled: it spills (creating a new
        // largest level) only when over its size budget.
        if (level + 1 >= config::kNumLevels) continue;  // nowhere to go
        score = static_cast<double>(TotalFileSize(files)) /
                MaxLevelBytes(VSet(v), level);
      } else {
        score = CountRuns(*VSet(v)->icmp(), files) / trigger;
        if (level == 0) {
          // Same L0 file-count floor as tiered (see above).
          score = std::max(
              score, files.size() /
                         static_cast<double>(config::kL0_CompactionTrigger));
        }
      }
      if (score > best_score) {
        best_level = level;
        best_score = score;
      }
    }
    SetScore(v, best_level, best_score);
  }

  Compaction* Pick(VersionSet* vset) override {
    Version* current = vset->current();
    if (!(Score(current) >= 1)) {
      return nullptr;
    }
    const int level = ScoreLevel(current);
    assert(level >= 0);
    assert(level + 1 < config::kNumLevels);
    const int last = LargestOccupiedLevel(current);
    Compaction* c = MakeCompaction(vset, level, level + 1);
    *MutableInputs(c, 0) = Files(current, level);
    if (level + 1 >= last) {
      // Landing on (or spilling past) the largest level: merge with the
      // overlapping residents so it stays one sorted run.
      InternalKey smallest, largest;
      GetInputRange(vset, c->inputs(0), &smallest, &largest);
      current->GetOverlappingInputs(level + 1, &smallest, &largest,
                                    MutableInputs(c, 1));
    }
    SetPredictedWriteAmp(c, PredictWriteAmp(c));
    return c;
  }

 private:
  static int LargestOccupiedLevel(Version* v) {
    int last = 0;
    for (int level = config::kNumLevels - 1; level > 0; level--) {
      if (!Files(v, level).empty()) {
        last = level;
        break;
      }
    }
    return last;
  }
};

}  // namespace

std::unique_ptr<CompactionPicker> NewCompactionPicker(CompactionStyle style,
                                                      const Options* options) {
  switch (style) {
    case CompactionStyle::kTiered:
      return std::make_unique<TieredCompactionPicker>(options);
    case CompactionStyle::kLazyLeveling:
      return std::make_unique<LazyLevelingCompactionPicker>(options);
    case CompactionStyle::kLeveled:
      break;
  }
  return std::make_unique<LeveledCompactionPicker>(options);
}

}  // namespace pipelsm
