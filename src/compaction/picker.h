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
// The picker runs under the DB mutex (VersionSet::Finalize /
// PickCompaction) and keeps no per-job state.
#pragma once

#include <vector>

namespace pipelsm {

class Compaction;
class InternalKeyComparator;
class Version;
class VersionSet;
struct FileMetaData;
struct Options;

class CompactionPicker {
 public:
  // Derives (K, Z) from options.compaction_style and tiered_run_count.
  explicit CompactionPicker(const Options& options);

  // True when levels > 0 may hold overlapping sorted runs (K > 1); the
  // version tree then treats every level like level-0 on the read and
  // overlap-query paths.
  bool overlapping_levels() const { return upper_runs_ > 1; }

  // Score `v`, filling its compaction_level_/compaction_score_ (score
  // >= 1 means a compaction is due). Called on every version install.
  void ComputeScore(Version* v) const;

  // Pick the next compaction from vset->current(); nullptr = none due.
  // The caller owns the result. REQUIRES: DB mutex held.
  Compaction* Pick(VersionSet* vset) const;

 private:
  int upper_runs_;  // K: run cap of a level above the largest occupied one
  int last_runs_;   // Z: run cap of the largest occupied level
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
