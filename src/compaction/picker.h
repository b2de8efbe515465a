// CompactionPicker: the policy axis of compaction (docs/COMPACTION.md).
//
// The executors (src/compaction/executor.h) decide HOW one job runs —
// sequentially, pipelined, storage- or computation-parallel. The picker
// decides WHICH files form a job and where the output lands, which
// Sarkar et al. ("Constructing and Analyzing the LSM Compaction Design
// Space", PAPERS.md) show dominates write amplification. In their terms
// one policy covers all three styles: a level above the largest occupied
// one holds up to K sorted runs, the largest occupied level up to Z, and
// Options::compaction_style only names a preset over
// T = Options::tiered_run_count:
//
//   style          K  Z
//   kLeveled       1  1  LevelDB's size-ratio policy: one sorted run per
//                        level, spills merge with the overlapping
//                        next-level files.
//   kTiered        T  T  a full level merges into ONE new run at the next
//                        level without touching resident data (write-amp
//                        ~1 per level); the last level self-merges.
//   kLazyLeveling  T  1  Dostoevsky's hybrid: tiered above, leveled at
//                        the largest occupied level.
//
// Every picked Compaction reports a predicted write amplification (total
// input bytes / bytes entering from the source level) through the
// admission request and the pipelsm.compaction property, so the
// compaction controller can reason about policy alongside executor + k.
//
// Every choice of a job's files and of where output lands is made here:
// scores, picks, trivial moves, flush levels. VersionSet keeps the
// versions and compaction pointers the picker reads. The picker runs
// under the DB mutex and keeps no per-job state.
#pragma once

#include <cstdint>
#include <vector>

#include "src/version/version_edit.h"

namespace pipelsm {

class Slice;
class Version;
class VersionSet;
struct Options;

// A Compaction encapsulates information about a picked compaction.
class Compaction {
 public:
  ~Compaction();

  // Return the level that is being compacted (the source of inputs_[0]).
  int level() const { return level_; }

  // Level the merged output files are installed at. level_ + 1 for
  // leveled and tiered pushes; level_ for a tiered last-level self-merge.
  int output_level() const { return output_level_; }

  // Predicted bytes-written amplification of this job: total input bytes
  // divided by the bytes entering from the source level (1 for tiered
  // pushes, (src+overlap)/src for leveled spills). Reported through
  // admission requests, CompactionJobInfo and the pipelsm.compaction
  // property.
  double predicted_write_amp() const;

  // Return the object that holds the edits to the descriptor done by this
  // compaction.
  VersionEdit* edit() { return &edit_; }

  // "which" must be either 0 or 1.
  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }

  // Return the ith input file ("which" 0 = source level, 1 = output
  // level residents).
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }

  const std::vector<FileMetaData*>& inputs(int which) const {
    return inputs_[which];
  }

  // True when the picker chose to move the single input file to the
  // output level as it is (no merging or splitting). Manual picks never
  // move.
  bool IsTrivialMove() const { return trivial_move_; }

  // Add all inputs to this compaction as delete operations to *edit.
  void AddInputDeletions(VersionEdit* edit);

  // Drop-deletion eligibility, asked by the sub-task planner: true iff no
  // level below the output level holds any key in
  // [*lo_user_key, *hi_user_key] (nullptr = unbounded). Conservative and
  // safe to evaluate per planned sub-range.
  bool RangeIsBaseLevel(const Slice* lo_user_key,
                        const Slice* hi_user_key) const;

  // Release the input version for the compaction, once it is done.
  void ReleaseInputs();

  // Total bytes across all inputs.
  uint64_t TotalInputBytes() const;

 private:
  friend class CompactionPicker;

  // Pins vset->current() as the input version.
  Compaction(const VersionSet* vset, int level, int output_level);

  // True iff `f` is one of this compaction's input files (by number).
  bool IsInputFile(const FileMetaData* f) const;

  const VersionSet* const vset_;
  const int level_;
  const int output_level_;
  Version* input_version_;
  bool trivial_move_ = false;
  VersionEdit edit_;

  // inputs_[0] comes from level_; inputs_[1] holds the resident files of
  // output_level_ merged in (empty for tiered pushes and self-merges).
  std::vector<FileMetaData*> inputs_[2];
};

class CompactionPicker {
 public:
  // Derives (K, Z) from options.compaction_style and tiered_run_count.
  CompactionPicker(const Options& options, const InternalKeyComparator* icmp);

  // True when levels > 0 may hold overlapping sorted runs (K > 1); the
  // version tree then treats every level like level-0 on the read and
  // overlap-query paths.
  bool overlapping_levels() const { return upper_runs_ > 1; }

  // The level to compact next and its score (>= 1: a compaction is due).
  struct Score {
    int level = -1;
    double score = -1;
  };
  // Called by VersionSet::Finalize on every version install.
  Score ComputeScore(const Version& v) const;

  // Pick the next compaction from vset->current(); nullptr = none due.
  // The caller owns the result. REQUIRES: DB mutex held (for this and
  // PickRange).
  Compaction* Pick(VersionSet* vset) const;

  // Manual compaction of the files in `level` that overlap [begin,end]
  // (nullptr = unbounded) into level + 1; nullptr when none does.
  Compaction* PickRange(VersionSet* vset, int level, const InternalKey* begin,
                        const InternalKey* end) const;

  // Level a flushed table over user keys [smallest,largest] enters at.
  int FlushLevel(const Version& v, const Slice& smallest_user_key,
                 const Slice& largest_user_key) const;

  // How many levels, from L0 down, a manual compaction of user keys
  // [begin,end] (nullptr = unbounded) compacts, each into the next.
  int ManualLevels(const Version& v, const Slice* begin,
                   const Slice* end) const;

 private:
  void SetupOtherInputs(VersionSet* vset, Compaction* c) const;
  bool IsTrivialMove(const Compaction& c) const;
  bool OverlapInLevel(const Version& v, int level, const Slice* lo,
                      const Slice* hi) const;

  const InternalKeyComparator* const icmp_;
  const uint64_t max_file_size_;
  const int upper_runs_;  // K: run cap of a level above the largest one
  const int last_runs_;   // Z: run cap of the largest occupied level
};

// Number of overlapping sorted runs in a level's file list: the maximum
// interval-stacking depth over user-key space. Disjoint files installed
// by one compaction stack to depth 1; each additional overlapping run
// adds one. Exact when runs span similar ranges, an underestimate for
// barely-overlapping partial runs — which errs toward fewer, larger
// merges. `files` must be sorted by smallest key (Version order).
int CountRuns(const InternalKeyComparator& icmp,
              const std::vector<FileMetaData*>& files);

}  // namespace pipelsm
