#include "src/compaction/picker.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <string>

#include "src/version/version_set.h"

namespace pipelsm {

namespace {

int LargestOccupiedLevel(const Version& v) {
  for (int level = config::kNumLevels - 1; level > 0; level--) {
    if (!v.files(level).empty()) return level;
  }
  return 0;
}

// Byte budget of a one-run level: 10 MiB for level-1 (level-0 is bounded
// by file count instead); each deeper level holds 10x the one above.
double MaxBytesForLevel(int level) {
  double result = 10. * 1048576.0;
  while (level > 1) {
    result *= 10;
    level--;
  }
  return result;
}

// Stores in *smallest, *largest the minimal range that covers every file
// in `a` and `b`. REQUIRES: `a` is not empty.
void GetRange(const InternalKeyComparator& icmp,
              const std::vector<FileMetaData*>& a,
              const std::vector<FileMetaData*>& b, InternalKey* smallest,
              InternalKey* largest) {
  assert(!a.empty());
  *smallest = a[0]->smallest;
  *largest = a[0]->largest;
  for (const std::vector<FileMetaData*>* files : {&a, &b}) {
    for (const FileMetaData* f : *files) {
      if (icmp.Compare(f->smallest, *smallest) < 0) *smallest = f->smallest;
      if (icmp.Compare(f->largest, *largest) > 0) *largest = f->largest;
    }
  }
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

CompactionPicker::CompactionPicker(const Options& options,
                                   const InternalKeyComparator* icmp)
    : icmp_(icmp),
      max_file_size_(options.max_file_size),
      upper_runs_(options.compaction_style == CompactionStyle::kLeveled
                      ? 1
                      : options.tiered_run_count),
      last_runs_(options.compaction_style == CompactionStyle::kTiered
                     ? options.tiered_run_count
                     : 1) {}

CompactionPicker::Score CompactionPicker::ComputeScore(const Version& v) const {
  const int last = LargestOccupiedLevel(v);
  Score best;
  for (int level = 0; level <= last; level++) {
    const std::vector<FileMetaData*>& files = v.files(level);
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
        score = std::max(score, CountRuns(*icmp_, files) /
                                    static_cast<double>(upper_runs_));
      }
    } else if (const int cap = level < last ? upper_runs_ : last_runs_;
               cap > 1) {
      score = CountRuns(*icmp_, files) / static_cast<double>(cap);
    } else if (level + 1 < config::kNumLevels) {
      // A one-run level spills when over its size budget.
      score = static_cast<double>(TotalFileSize(files)) /
              MaxBytesForLevel(level);
    } else {
      continue;  // a one-run last level has nowhere to spill
    }
    if (score > best.score) best = {level, score};
  }
  return best;
}

Compaction* CompactionPicker::Pick(VersionSet* vset) const {
  const Version* current = vset->current();
  if (!(current->compaction().score >= 1)) {
    return nullptr;
  }
  const int level = current->compaction().level;
  assert(level >= 0);
  // The last level, with nowhere to push, collapses in place.
  const int output_level =
      (level + 1 < config::kNumLevels) ? level + 1 : level;
  Compaction* c = new Compaction(vset, level, output_level);
  std::vector<FileMetaData*>& inputs = c->inputs_[0];

  if (upper_runs_ == 1) {
    // LevelDB's path: pick the first file that comes after the level's
    // compaction pointer, wrapping around the key space.
    assert(output_level > level);
    const std::string& pointer = vset->compact_pointer(level);
    for (FileMetaData* f : current->files(level)) {
      if (pointer.empty() || icmp_->Compare(f->largest.Encode(), pointer) > 0) {
        inputs.push_back(f);
        break;
      }
    }
    if (inputs.empty()) {
      inputs.push_back(current->files(level)[0]);
    }
    // Files in level 0 may overlap each other, so pick up all overlapping
    // ones (the result includes the file picked above).
    if (level == 0) {
      InternalKey smallest, largest;
      GetRange(*icmp_, inputs, {}, &smallest, &largest);
      current->GetOverlappingInputs(0, &smallest, &largest, &inputs);
      assert(!inputs.empty());
    }
    SetupOtherInputs(vset, c);
  } else {
    // K > 1 moves the whole level: a partial pick could sink young data
    // below older resident runs and break newest-first file-number order.
    inputs = current->files(level);
    if (last_runs_ == 1 && output_level >= LargestOccupiedLevel(*current)) {
      // Landing on (or spilling past) a one-run largest level: merge with
      // the overlapping residents so it stays one sorted run.
      assert(output_level > level);
      InternalKey smallest, largest;
      GetRange(*icmp_, inputs, {}, &smallest, &largest);
      current->GetOverlappingInputs(output_level, &smallest, &largest,
                                    &c->inputs_[1]);
    }
  }
  c->trivial_move_ = IsTrivialMove(*c);
  return c;
}

Compaction* CompactionPicker::PickRange(VersionSet* vset, int level,
                                        const InternalKey* begin,
                                        const InternalKey* end) const {
  std::vector<FileMetaData*> inputs;
  vset->current()->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }

  // Avoid compacting too much in one shot in case the range is large.
  // But we cannot do this for overlapping levels (level-0, and every
  // level under tiered/lazy styles) since we must not pick one file and
  // drop another older file if the two files overlap —
  // GetOverlappingInputs already took the transitive closure there.
  if (level > 0 && !overlapping_levels()) {
    uint64_t total = 0;
    for (size_t i = 0; i < inputs.size(); i++) {
      total += inputs[i]->file_size;
      if (total >= max_file_size_) {
        inputs.resize(i + 1);
        break;
      }
    }
  }

  Compaction* c = new Compaction(vset, level, level + 1);
  c->inputs_[0] = std::move(inputs);
  SetupOtherInputs(vset, c);
  return c;
}

void CompactionPicker::SetupOtherInputs(VersionSet* vset,
                                        Compaction* c) const {
  const Version* current = c->input_version_;
  const int level = c->level();
  InternalKey smallest, largest;
  GetRange(*icmp_, c->inputs_[0], {}, &smallest, &largest);
  current->GetOverlappingInputs(level + 1, &smallest, &largest,
                                &c->inputs_[1]);

  // See if we can grow the number of inputs in "level" without changing
  // the number of "level+1" files we pick up, as long as the whole job
  // stays under 25 x max_file_size.
  if (!c->inputs_[1].empty()) {
    InternalKey all_start, all_limit;
    GetRange(*icmp_, c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
    std::vector<FileMetaData*> expanded0;
    current->GetOverlappingInputs(level, &all_start, &all_limit, &expanded0);
    if (expanded0.size() > c->inputs_[0].size() &&
        TotalFileSize(c->inputs_[1]) + TotalFileSize(expanded0) <
            25 * static_cast<int64_t>(max_file_size_)) {
      InternalKey new_start, new_limit;
      GetRange(*icmp_, expanded0, {}, &new_start, &new_limit);
      std::vector<FileMetaData*> expanded1;
      current->GetOverlappingInputs(level + 1, &new_start, &new_limit,
                                    &expanded1);
      if (expanded1.size() == c->inputs_[1].size()) {
        largest = new_limit;
        c->inputs_[0] = std::move(expanded0);
        c->inputs_[1] = std::move(expanded1);
      }
    }
  }

  // Update the place where we will do the next compaction for this level.
  // We update this immediately instead of waiting for the VersionEdit to
  // be applied so that if the compaction fails, we will try a different
  // key range next time.
  vset->SetCompactPointer(level, largest);
  c->edit_.SetCompactPointer(level, largest);
}

bool CompactionPicker::IsTrivialMove(const Compaction& c) const {
  // A self-merge (tiered last level) always rewrites; never a move.
  if (c.num_input_files(0) != 1 || c.num_input_files(1) != 0 ||
      c.output_level() == c.level()) {
    return false;
  }
  // Avoid a move if there is lots of overlapping grandparent data (over
  // 10 x max_file_size). Otherwise, the move could create a parent file
  // that will require a very expensive merge later on.
  if (c.output_level() + 1 < config::kNumLevels) {
    const FileMetaData* f = c.input(0, 0);
    std::vector<FileMetaData*> grandparents;
    c.input_version_->GetOverlappingInputs(c.output_level() + 1, &f->smallest,
                                           &f->largest, &grandparents);
    return TotalFileSize(grandparents) <=
           10 * static_cast<int64_t>(max_file_size_);
  }
  return true;
}

bool CompactionPicker::OverlapInLevel(const Version& v, int level,
                                      const Slice* lo, const Slice* hi) const {
  return SomeFileOverlapsRange(*icmp_, level > 0 && !overlapping_levels(),
                               v.files(level), lo, hi);
}

int CompactionPicker::FlushLevel(const Version& v,
                                 const Slice& smallest_user_key,
                                 const Slice& largest_user_key) const {
  // Push the new table to a lower level if there is no overlap: avoids
  // expensive L0 merges for sequential loads. One-run levels only —
  // presets with overlapping runs count runs per level and expect
  // flushes to enter at L0 so data ages strictly downward.
  if (overlapping_levels() ||
      OverlapInLevel(v, 0, &smallest_user_key, &largest_user_key)) {
    return 0;
  }
  int level = 0;
  while (level < config::kNumLevels - 2 &&
         !OverlapInLevel(v, level + 1, &smallest_user_key, &largest_user_key)) {
    level++;
  }
  return level;
}

int CompactionPicker::ManualLevels(const Version& v, const Slice* begin,
                                   const Slice* end) const {
  int levels = 1;
  for (int level = 1; level < config::kNumLevels; level++) {
    if (OverlapInLevel(v, level, begin, end)) levels = level;
  }
  return levels;
}

Compaction::Compaction(const VersionSet* vset, int level, int output_level)
    : vset_(vset),
      level_(level),
      output_level_(output_level),
      input_version_(vset->current()) {
  input_version_->Ref();
}

Compaction::~Compaction() { ReleaseInputs(); }

uint64_t Compaction::TotalInputBytes() const {
  return TotalFileSize(inputs_[0]) + TotalFileSize(inputs_[1]);
}

double Compaction::predicted_write_amp() const {
  const int64_t in0 = TotalFileSize(inputs_[0]);
  if (in0 <= 0) return 1.0;
  return static_cast<double>(TotalInputBytes()) / static_cast<double>(in0);
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* f : inputs_[which]) {
      edit->RemoveFile(which == 0 ? level_ : output_level_, f->number);
    }
  }
}

bool Compaction::IsInputFile(const FileMetaData* f) const {
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* in : inputs_[which]) {
      if (in->number == f->number) return true;
    }
  }
  return false;
}

bool Compaction::RangeIsBaseLevel(const Slice* lo_user_key,
                                  const Slice* hi_user_key) const {
  const bool overlapping = vset_->picker().overlapping_levels();
  const int first = overlapping ? output_level_ : output_level_ + 1;
  const Comparator* ucmp = vset_->icmp()->user_comparator();
  for (int lvl = first; lvl < config::kNumLevels; lvl++) {
    for (const FileMetaData* f : input_version_->files(lvl)) {
      // This job's own inputs at the output level do not count as data
      // "below" the output — they are being rewritten right now.
      if (overlapping && IsInputFile(f)) continue;
      if ((lo_user_key != nullptr &&
           ucmp->Compare(*lo_user_key, f->largest.user_key()) > 0) ||
          (hi_user_key != nullptr &&
           ucmp->Compare(*hi_user_key, f->smallest.user_key()) < 0)) {
        continue;  // resident file entirely outside [lo,hi]
      }
      return false;
    }
  }
  return true;
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

}  // namespace pipelsm
