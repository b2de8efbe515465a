// Unit tests for the compaction picker (docs/COMPACTION.md): CountRuns,
// per-preset selection + golden predicted-write-amp values on synthetic
// version states built through VersionEdit/LogAndApply, and one seeded
// multi-level pick sequence per preset pinned as a golden.
#include "src/compaction/picker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/db/filename.h"
#include "src/db/table_cache.h"
#include "src/env/sim_env.h"
#include "src/util/random.h"
#include "src/version/version_edit.h"
#include "src/version/version_set.h"
#include "src/wal/log_writer.h"

namespace pipelsm {
namespace {

// ---------------------------------------------------------------------
// CountRuns: interval-stacking depth of a file set.
// ---------------------------------------------------------------------

class CountRunsTest : public ::testing::Test {
 protected:
  CountRunsTest() : icmp_(BytewiseComparator()) {}
  ~CountRunsTest() override {
    for (FileMetaData* f : files_) delete f;
  }

  void Add(const char* smallest, const char* largest) {
    FileMetaData* f = new FileMetaData;
    f->number = files_.size() + 1;
    f->smallest = InternalKey(smallest, 100, kTypeValue);
    f->largest = InternalKey(largest, 100, kTypeValue);
    files_.push_back(f);
  }

  int Runs() {
    // Version order: sorted by smallest key, as pickers see the list.
    std::sort(files_.begin(), files_.end(),
              [this](FileMetaData* a, FileMetaData* b) {
                return icmp_.Compare(a->smallest, b->smallest) < 0;
              });
    return CountRuns(icmp_, files_);
  }

  InternalKeyComparator icmp_;
  std::vector<FileMetaData*> files_;
};

TEST_F(CountRunsTest, Empty) { EXPECT_EQ(0, Runs()); }

TEST_F(CountRunsTest, DisjointFilesAreOneRun) {
  Add("a", "b");
  Add("c", "d");
  Add("e", "f");
  EXPECT_EQ(1, Runs());
}

TEST_F(CountRunsTest, IdenticalRangesStack) {
  Add("a", "z");
  Add("a", "z");
  Add("a", "z");
  EXPECT_EQ(3, Runs());
}

TEST_F(CountRunsTest, StaircaseOverlap) {
  // Each file overlaps only its neighbor: depth 2, not 4.
  Add("a", "c");
  Add("b", "e");
  Add("d", "g");
  Add("f", "i");
  EXPECT_EQ(2, Runs());
}

TEST_F(CountRunsTest, MixedDepth) {
  Add("a", "m");  // wide file under two disjoint small ones + one overlap
  Add("b", "c");
  Add("d", "e");
  Add("b", "f");
  EXPECT_EQ(3, Runs());  // at "b": {a-m, b-c, b-f}
}

TEST_F(CountRunsTest, TouchingEndpointsOverlap) {
  // largest == next smallest (same user key) counts as overlap: both
  // files can hold versions of that key.
  Add("a", "c");
  Add("c", "e");
  EXPECT_EQ(2, Runs());
}

// ---------------------------------------------------------------------
// Picker selection on synthetic version states. The harness stands up a
// real VersionSet (null-cost device) and feeds it VersionEdits, so
// scores and picks flow through exactly the code the DB runs.
// ---------------------------------------------------------------------

constexpr uint64_t kMiB = 1 << 20;

class PickerTest : public ::testing::Test {
 protected:
  PickerTest() : env_(DeviceProfile::Null()), icmp_(BytewiseComparator()) {}

  void Open(CompactionStyle style, int tiered_run_count = 4) {
    options_.env = &env_;
    options_.compaction_style = style;
    options_.tiered_run_count = tiered_run_count;
    env_.CreateDir(dbname_);

    // Minimal NewDB: one manifest record + CURRENT.
    VersionEdit new_db;
    new_db.SetComparatorName(icmp_.user_comparator()->Name());
    new_db.SetLogNumber(0);
    new_db.SetNextFile(2);
    new_db.SetLastSequence(0);
    const std::string manifest = DescriptorFileName(dbname_, 1);
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile(manifest, &file).ok());
    {
      log::Writer log(file.get());
      std::string record;
      new_db.EncodeTo(&record);
      ASSERT_TRUE(log.AddRecord(record).ok());
      ASSERT_TRUE(file->Close().ok());
    }
    ASSERT_TRUE(SetCurrentFile(&env_, dbname_, 1).ok());

    TableOptions topt;
    topt.comparator = &icmp_;
    cache_ = std::make_unique<TableCache>(dbname_, topt, &env_, 10);
    vset_ = std::make_unique<VersionSet>(dbname_, &options_, cache_.get(),
                                         &icmp_);
    Status s = vset_->Recover();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // Installs one file; numbers ascend with insertion order, so later
  // files are "newer" in the overlapping-level sense.
  void AddFile(int level, const std::string& smallest,
               const std::string& largest, uint64_t size) {
    VersionEdit edit;
    edit.AddFile(level, next_file_number_++, size,
                 InternalKey(smallest, 100, kTypeValue),
                 InternalKey(largest, 100, kTypeValue));
    std::unique_lock<std::mutex> lock(mu_);
    Status s = vset_->LogAndApply(&edit, &mu_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  static std::string Key(int k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", k);
    return buf;
  }
  static int KeyNumber(const InternalKey& key) {
    return std::atoi(key.user_key().ToString().c_str() + 1);
  }

  // Feeds a seeded stream of flushes (one L0 table over a random key
  // range each) and drains every due compaction after each one. The test
  // stands in for the executor: a job's inputs become ~4 MiB tables
  // split evenly over their combined key range at the output level.
  // Returns one line per pick: levels, input file numbers, predicted
  // write amp.
  std::vector<std::string> PickSequence(uint32_t seed, int flushes) {
    Random rnd(seed);
    std::vector<std::string> picks;
    for (int i = 0; i < flushes; i++) {
      const int lo = static_cast<int>(rnd.Uniform(90000));
      const int hi = lo + 1000 + static_cast<int>(rnd.Uniform(10000));
      AddFile(0, Key(lo), Key(hi), (1 + rnd.Uniform(3)) * kMiB);
      while (true) {
        std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
        if (c == nullptr) break;
        picks.push_back(Describe(*c));
        ApplyMerged(c.get());
        if (picks.size() > 1000) return picks;  // runaway guard
      }
    }
    return picks;
  }

  // "L1->L2 [14,16-19] [22] wa=1.2000": input file numbers in pick
  // order, ascending runs of three or more written as a range.
  static std::string Describe(const Compaction& c) {
    std::string line = "L" + std::to_string(c.level()) + "->L" +
                       std::to_string(c.output_level());
    for (int which = 0; which < 2; which++) {
      line += which == 0 ? " [" : "] [";
      const std::vector<FileMetaData*>& files = c.inputs(which);
      for (size_t i = 0; i < files.size();) {
        size_t j = i;
        while (j + 1 < files.size() &&
               files[j + 1]->number == files[j]->number + 1) {
          j++;
        }
        if (i > 0) line += ",";
        line += std::to_string(files[i]->number);
        if (j >= i + 2) {
          line += "-" + std::to_string(files[j]->number);
        } else {
          j = i;
        }
        i = j + 1;
      }
    }
    char wa[32];
    std::snprintf(wa, sizeof(wa), "] wa=%.4f", c.predicted_write_amp());
    return line + wa;
  }

  void ApplyMerged(Compaction* c) {
    int lo = INT_MAX;
    int hi = 0;
    uint64_t bytes = 0;
    for (int which = 0; which < 2; which++) {
      for (const FileMetaData* f : c->inputs(which)) {
        lo = std::min(lo, KeyNumber(f->smallest));
        hi = std::max(hi, KeyNumber(f->largest));
        bytes += f->file_size;
      }
    }
    VersionEdit* edit = c->edit();
    c->AddInputDeletions(edit);
    const int span = hi - lo + 1;
    const int n = std::max<int>(
        1, std::min<uint64_t>(span, bytes / (4 * kMiB)));
    for (int i = 0; i < n; i++) {
      edit->AddFile(c->output_level(), next_file_number_++, bytes / n,
                    InternalKey(Key(lo + span * i / n), 100, kTypeValue),
                    InternalKey(Key(lo + span * (i + 1) / n - 1), 100,
                                kTypeValue));
    }
    std::unique_lock<std::mutex> lock(mu_);
    Status s = vset_->LogAndApply(edit, &mu_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
  Options options_;
  std::string dbname_ = "/picker_db";
  std::unique_ptr<TableCache> cache_;
  std::unique_ptr<VersionSet> vset_;
  uint64_t next_file_number_ = 10;
  std::mutex mu_;
};

TEST_F(PickerTest, PresetMatchesStyle) {
  Open(CompactionStyle::kTiered);
  EXPECT_TRUE(vset_->picker().overlapping_levels());
  vset_.reset();
  cache_.reset();
  dbname_ = "/picker_db_lazy";
  Open(CompactionStyle::kLazyLeveling);
  EXPECT_TRUE(vset_->picker().overlapping_levels());
}

TEST_F(PickerTest, LeveledPresetIsDefaultAndDisjoint) {
  EXPECT_EQ(CompactionStyle::kLeveled, Options().compaction_style);
  Open(CompactionStyle::kLeveled);
  EXPECT_FALSE(vset_->picker().overlapping_levels());
}

TEST_F(PickerTest, LeveledL0TriggerByFileCount) {
  Open(CompactionStyle::kLeveled);
  AddFile(0, "a", "c", 8 << 10);
  AddFile(0, "b", "d", 8 << 10);
  AddFile(0, "c", "e", 8 << 10);
  EXPECT_FALSE(vset_->NeedsCompaction());  // 3 < kL0_CompactionTrigger
  AddFile(0, "d", "f", 8 << 10);
  EXPECT_TRUE(vset_->NeedsCompaction());

  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(0, c->level());
  EXPECT_EQ(1, c->output_level());
  EXPECT_EQ(4, c->num_input_files(0));  // all four overlap transitively
}

TEST_F(PickerTest, LeveledSizeTriggerAndGoldenWriteAmp) {
  Open(CompactionStyle::kLeveled);
  // 12 MiB at L1 (> 10 MiB budget) in three disjoint files; L2 holds
  // 3 MiB overlapping the first L1 file.
  AddFile(1, "a", "c", 4 * kMiB);
  AddFile(1, "d", "f", 4 * kMiB);
  AddFile(1, "g", "i", 4 * kMiB);
  AddFile(2, "a", "b", 2 * kMiB);
  AddFile(2, "b1", "c1", 1 * kMiB);
  ASSERT_TRUE(vset_->NeedsCompaction());

  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(2, c->output_level());
  EXPECT_EQ(1, c->num_input_files(0));   // "a".."c"
  EXPECT_EQ(2, c->num_input_files(1));   // both L2 files overlap it
  // Golden: (4 + 2 + 1) / 4 MiB of inputs over the picked file.
  EXPECT_DOUBLE_EQ(7.0 / 4.0, c->predicted_write_amp());
}

TEST_F(PickerTest, TieredTriggersOnRunCountNotBytes) {
  Open(CompactionStyle::kTiered, /*tiered_run_count=*/4);
  // Huge but single-run level: never triggers on size.
  AddFile(1, "a", "c", 40 * kMiB);
  AddFile(1, "d", "f", 40 * kMiB);
  EXPECT_FALSE(vset_->NeedsCompaction());

  // Stack three more overlapping runs: 4 runs >= T.
  AddFile(1, "a", "f", kMiB);
  AddFile(1, "a", "f", kMiB);
  EXPECT_FALSE(vset_->NeedsCompaction());  // 3 runs
  AddFile(1, "a", "f", kMiB);
  EXPECT_TRUE(vset_->NeedsCompaction());

  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(2, c->output_level());
  EXPECT_EQ(5, c->num_input_files(0));  // the WHOLE level moves
  EXPECT_EQ(0, c->num_input_files(1));  // resident L2 data untouched
  EXPECT_DOUBLE_EQ(1.0, c->predicted_write_amp());
  EXPECT_FALSE(c->IsTrivialMove());     // multi-file merge
}

TEST_F(PickerTest, TieredL0FileCountFloor) {
  Open(CompactionStyle::kTiered, /*tiered_run_count=*/8);
  // Disjoint L0 flushes (sequential load): 1 run, but the file-count
  // floor must still drain L0 before the write-stall thresholds.
  AddFile(0, "a", "b", 8 << 10);
  AddFile(0, "c", "d", 8 << 10);
  AddFile(0, "e", "f", 8 << 10);
  AddFile(0, "g", "h", 8 << 10);
  EXPECT_TRUE(vset_->NeedsCompaction());
  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(0, c->level());
  EXPECT_EQ(4, c->num_input_files(0));
}

TEST_F(PickerTest, TieredLastLevelSelfMerges) {
  Open(CompactionStyle::kTiered, /*tiered_run_count=*/2);
  const int last = config::kNumLevels - 1;
  AddFile(last, "a", "m", 4 * kMiB);
  AddFile(last, "b", "z", 4 * kMiB);
  ASSERT_TRUE(vset_->NeedsCompaction());

  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(last, c->level());
  EXPECT_EQ(last, c->output_level());  // nowhere to push: collapse in place
  EXPECT_EQ(2, c->num_input_files(0));
  EXPECT_FALSE(c->IsTrivialMove());    // self-merge must rewrite
}

TEST_F(PickerTest, LazyLevelingUpperLevelsAreTiered) {
  Open(CompactionStyle::kLazyLeveling, /*tiered_run_count=*/3);
  // L1 stacks 3 runs; L3 is the (single-run) largest level.
  AddFile(3, "a", "z", 5 * kMiB);
  AddFile(1, "a", "f", kMiB);
  AddFile(1, "a", "f", kMiB);
  EXPECT_FALSE(vset_->NeedsCompaction());
  AddFile(1, "a", "f", kMiB);
  ASSERT_TRUE(vset_->NeedsCompaction());

  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(2, c->output_level());
  EXPECT_EQ(3, c->num_input_files(0));
  // Push lands on L2, above the largest level: no resident merge.
  EXPECT_EQ(0, c->num_input_files(1));
  EXPECT_DOUBLE_EQ(1.0, c->predicted_write_amp());
}

TEST_F(PickerTest, LazyLevelingMergesIntoLargestLevel) {
  Open(CompactionStyle::kLazyLeveling, /*tiered_run_count=*/2);
  // L2 is the largest occupied level; pushing L1 lands ON it and must
  // merge with the overlapping resident run.
  AddFile(2, "a", "m", 2 * kMiB);
  AddFile(2, "n", "z", 4 * kMiB);  // disjoint resident, not overlapping
  AddFile(1, "a", "j", kMiB);
  AddFile(1, "b", "k", kMiB);
  ASSERT_TRUE(vset_->NeedsCompaction());

  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(2, c->output_level());
  EXPECT_EQ(2, c->num_input_files(0));
  EXPECT_EQ(1, c->num_input_files(1));  // only "a".."m" overlaps
  // Golden: (1 + 1 + 2) / (1 + 1) MiB.
  EXPECT_DOUBLE_EQ(2.0, c->predicted_write_amp());
}

TEST_F(PickerTest, LazyLevelingLargestLevelSpillsOnSize) {
  Open(CompactionStyle::kLazyLeveling, /*tiered_run_count=*/8);
  // Single-run largest level over its 10 MiB (L1-equivalent) budget at
  // L1: spills into a new largest level, leveled-style.
  AddFile(1, "a", "m", 6 * kMiB);
  AddFile(1, "n", "z", 6 * kMiB);
  ASSERT_TRUE(vset_->NeedsCompaction());

  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(2, c->output_level());
  EXPECT_EQ(2, c->num_input_files(0));
  EXPECT_EQ(0, c->num_input_files(1));  // nothing resident below
  EXPECT_DOUBLE_EQ(1.0, c->predicted_write_amp());
}

TEST_F(PickerTest, QuiescentTreesPickNothing) {
  for (CompactionStyle style :
       {CompactionStyle::kLeveled, CompactionStyle::kTiered,
        CompactionStyle::kLazyLeveling}) {
    SCOPED_TRACE(CompactionStyleName(style));
    vset_.reset();
    cache_.reset();
    dbname_ = std::string("/picker_db_") + CompactionStyleName(style);
    Open(style);
    AddFile(1, "a", "c", kMiB);
    AddFile(2, "a", "z", 2 * kMiB);
    EXPECT_FALSE(vset_->NeedsCompaction());
    std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
    EXPECT_EQ(nullptr, c);
  }
}

TEST_F(PickerTest, ManualPickStopsAtMaxFileSizeOnADisjointLevel) {
  options_.max_file_size = 2 * kMiB;
  Open(CompactionStyle::kLeveled);
  AddFile(1, "a", "b", 700 << 10);  // 10
  AddFile(1, "c", "d", 700 << 10);  // 11
  AddFile(1, "e", "f", 700 << 10);  // 12: brings the total to 2100 KiB
  AddFile(1, "g", "h", 700 << 10);
  AddFile(2, "a", "b", kMiB);  // under file 10 only: no expansion
  std::unique_ptr<Compaction> c(
      vset_->picker().PickRange(vset_.get(), 1, nullptr, nullptr));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(2, c->output_level());
  ASSERT_EQ(3, c->num_input_files(0));
  EXPECT_EQ(10u, c->input(0, 0)->number);
  EXPECT_EQ(12u, c->input(0, 2)->number);
  EXPECT_EQ(1, c->num_input_files(1));
}

TEST_F(PickerTest, ManualPickOnL0TakesTheOverlapClosure) {
  options_.max_file_size = 2 * kMiB;
  Open(CompactionStyle::kLeveled);
  AddFile(0, "a", "c", 4 * kMiB);  // 10
  AddFile(0, "b", "e", 4 * kMiB);  // 11
  AddFile(0, "d", "f", 4 * kMiB);  // 12: overlaps "a" only through 11
  AddFile(0, "x", "z", 4 * kMiB);  // 13: outside the closure
  const InternalKey begin("a", kMaxSequenceNumber, kValueTypeForSeek);
  const InternalKey end("a", 0, static_cast<ValueType>(0));
  std::unique_ptr<Compaction> c(
      vset_->picker().PickRange(vset_.get(), 0, &begin, &end));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->output_level());
  std::vector<uint64_t> numbers;
  for (const FileMetaData* f : c->inputs(0)) numbers.push_back(f->number);
  std::sort(numbers.begin(), numbers.end());
  EXPECT_EQ((std::vector<uint64_t>{10, 11, 12}), numbers);
}

TEST_F(PickerTest, TrivialMoveBoundedByGrandparentOverlap) {
  options_.max_file_size = 2 * kMiB;
  Open(CompactionStyle::kLeveled);
  // One L1 file over the 10 MiB budget, nothing under it at L2, and
  // exactly 10 x max_file_size of L3 data under it: moved.
  AddFile(1, "c", "f", 11 * kMiB);
  AddFile(3, "a", "d", 10 * kMiB);
  AddFile(3, "e", "e5", 10 * kMiB);
  ASSERT_TRUE(vset_->NeedsCompaction());
  {
    std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
    ASSERT_NE(nullptr, c);
    EXPECT_EQ(1, c->level());
    EXPECT_EQ(1, c->num_input_files(0));
    EXPECT_EQ(0, c->num_input_files(1));
    EXPECT_TRUE(c->IsTrivialMove());
  }
  // One more byte under it: the move would leave an L2 file that a later
  // merge has to rewrite with over 10 tables of L3 data, so it is
  // rewritten now.
  AddFile(3, "f", "g", 1);
  std::unique_ptr<Compaction> c(vset_->picker().Pick(vset_.get()));
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(1, c->num_input_files(0));
  EXPECT_EQ(0, c->num_input_files(1));
  EXPECT_FALSE(c->IsTrivialMove());
}

// ---------------------------------------------------------------------
// Pick-sequence goldens: the same seeded flush stream under each preset,
// recorded from the three-subclass picker (one class per style) that the
// (K, Z) picker replaced. Any change to a preset's picks shows up here
// as a diff.
// ---------------------------------------------------------------------

const std::vector<std::string> kLeveledPicks = {
    "L0->L1 [11] [] wa=1.0000",
    "L0->L1 [10] [] wa=1.0000",
    "L0->L1 [13,15,12] [] wa=1.0000",
    "L1->L2 [14] [] wa=1.0000",
    "L1->L2 [16] [] wa=1.0000",
    "L0->L1 [17] [] wa=1.0000",
    "L1->L2 [18] [] wa=1.0000",
    "L0->L1 [23] [] wa=1.0000",
    "L0->L1 [27] [] wa=1.0000",
    "L1->L2 [19] [] wa=1.0000",
    "L0->L1 [32,29] [] wa=1.0000",
    "L1->L2 [25,28] [20] wa=1.2000",
    "L0->L1 [24] [] wa=1.0000",
    "L0->L1 [22] [] wa=1.0000",
    "L0->L1 [35,36] [] wa=1.0000",
    "L1->L2 [30] [21] wa=2.0000",
    "L1->L2 [33] [] wa=1.0000",
    "L0->L1 [38] [] wa=1.0000",
    "L1->L2 [37] [26] wa=5.5000",
    "L0->L1 [45] [] wa=1.0000",
    "L1->L2 [39] [47,31] wa=6.0000",
    "L0->L1 [40] [] wa=1.0000",
    "L1->L2 [41] [34] wa=2.2000",
    "L0->L1 [44,48,53] [] wa=1.0000",
    "L1->L2 [46] [] wa=1.0000",
    "L0->L1 [60] [58] wa=6.0000",
    "L1->L2 [49] [] wa=1.0000",
    "L0->L1 [65,57] [] wa=1.0000",
    "L1->L2 [54] [] wa=1.0000",
    "L0->L1 [68,61,62] [] wa=1.0000",
    "L1->L2 [70] [67] wa=2.0000",
    "L0->L1 [69] [66] wa=4.0000",
    "L1->L2 [63] [51,52] wa=2.3333",
    "L0->L1 [79] [75] wa=2.3333",
    "L0->L1 [72,81] [] wa=1.0000",
    "L1->L2 [80] [55,56] wa=2.5714",
    "L0->L1 [87] [] wa=1.0000",
    "L0->L1 [73] [] wa=1.0000",
    "L0->L1 [74] [] wa=1.0000",
    "L0->L1 [94] [93] wa=2.0000",
    "L1->L2 [82] [42,59,64] wa=2.6667",
    "L0->L1 [92] [] wa=1.0000",
    "L0->L1 [88] [] wa=1.0000",
    "L1->L2 [89] [] wa=1.0000",
    "L0->L1 [100] [] wa=1.0000",
    "L0->L1 [98] [] wa=1.0000",
    "L1->L2 [91] [71] wa=4.0000",
    "L1->L2 [95] [108,43] wa=5.5000",
    "L0->L1 [90] [] wa=1.0000",
    "L1->L2 [99] [76,77] wa=10.3333",
    "L0->L1 [103] [] wa=1.0000",
    "L1->L2 [101] [83,84] wa=5.5000",
    "L1->L2 [104] [96] wa=3.0000",
    "L0->L1 [111] [] wa=1.0000",
    "L0->L1 [120] [] wa=1.0000",
    "L1->L2 [106] [119,97] wa=4.3333",
    "L0->L1 [105] [] wa=1.0000",
    "L0->L1 [115] [] wa=1.0000",
    "L1->L2 [130] [126] wa=3.1667",
    "L0->L1 [122] [116] wa=2.0000",
    "L1->L2 [112] [102] wa=2.5000",
    "L0->L1 [127,129] [] wa=1.0000",
    "L1->L2 [133] [107] wa=1.6667",
    "L0->L1 [140] [121] wa=1.3333",
    "L1->L2 [136] [110,50,113] wa=3.4444",
    "L0->L1 [132] [] wa=1.0000",
    "L0->L1 [149] [128] wa=2.0000",
    "L0->L1 [139] [] wa=1.0000",
    "L1->L2 [141] [145,146,114] wa=4.3583",
    "L0->L1 [147,135,151] [] wa=1.0000",
    "L1->L2 [148] [156,78] wa=5.5125",
    "L1->L2 [123] [117] wa=6.5000",
    "L1->L2 [150] [85,86,124] wa=7.6667",
    "L0->L1 [166] [] wa=1.0000",
    "L1->L2 [152] [164,125] wa=5.7222",
    "L1->L2 [158] [131,134] wa=2.6190",
    "L2->L3 [161] [] wa=1.0000",
    "L0->L1 [176] [] wa=1.0000",
    "L0->L1 [157] [] wa=1.0000",
    "L0->L1 [167] [] wa=1.0000",
    "L0->L1 [178,165] [] wa=1.0000",
    "L1->L2 [168] [137] wa=2.6667",
    "L2->L3 [118] [] wa=1.0000",
    "L1->L2 [177] [155,159,160] wa=8.6917",
    "L0->L1 [182] [] wa=1.0000",
    "L1->L2 [179] [] wa=1.0000",
    "L0->L1 [180] [] wa=1.0000",
    "L1->L2 [181] [162,163] wa=11.2222",
    "L1->L2 [183] [198,169,170] wa=4.4111",
    "L2->L3 [197] [] wa=1.0000",
    "L0->L1 [191] [] wa=1.0000",
    "L0->L1 [205] [] wa=1.0000",
    "L1->L2 [193] [174,184,185] wa=5.1944",
    "L2->L3 [199] [] wa=1.0000",
    "L0->L1 [192] [] wa=1.0000",
    "L0->L1 [207] [] wa=1.0000",
    "L0->L1 [213] [] wa=1.0000",
    "L1->L2 [196] [138,109,142] wa=5.8778",
    "L2->L3 [200] [] wa=1.0000",
    "L0->L1 [195] [] wa=1.0000",
    "L0->L1 [217] [] wa=1.0000",
    "L1->L2 [206] [222,143,144] wa=7.3375",
    "L0->L1 [224] [] wa=1.0000",
    "L1->L2 [208] [153,154,187] wa=7.5312",
    "L2->L3 [201] [] wa=1.0000",
    "L0->L1 [215] [] wa=1.0000",
    "L1->L2 [214] [235,188,189] wa=14.7125",
    "L1->L2 [216] [194] wa=3.0000",
    "L1->L2 [218] [] wa=1.0000",
    "L0->L1 [226,231] [] wa=1.0000",
    "L1->L2 [245] [202,203,171] wa=5.4685",
    "L2->L3 [246] [] wa=1.0000",
    "L0->L1 [252] [] wa=1.0000",
    "L1->L2 [253] [247-249] wa=5.1014",
    "L2->L3 [254] [] wa=1.0000",
    "L0->L1 [258,244,251] [225] wa=1.2222",
    "L1->L2 [259] [256,172,173] wa=3.5942",
    "L1->L2 [260] [263,264,209] wa=3.7415",
    "L2->L3 [255] [] wa=1.0000",
    "L2->L3 [261] [] wa=1.0000",
};

const std::vector<std::string> kTieredPicks = {
    "L0->L1 [11,10,13,12] [] wa=1.0000",
    "L0->L1 [17,19,16,18] [] wa=1.0000",
    "L0->L1 [23,25,24,22] [] wa=1.0000",
    "L1->L2 [20,14,26,21,15] [] wa=1.0000",
    "L0->L1 [33-36] [] wa=1.0000",
    "L0->L1 [40,39,41,42] [] wa=1.0000",
    "L0->L1 [44,46,47,45] [] wa=1.0000",
    "L1->L2 [37,48,38,43] [] wa=1.0000",
    "L0->L1 [56,54,57,55] [] wa=1.0000",
    "L0->L1 [61,62,59,60] [] wa=1.0000",
    "L0->L1 [65,64,66,67] [] wa=1.0000",
    "L1->L2 [68,58,63,69] [] wa=1.0000",
    "L2->L3 [70,49,27,71,28,50,29,72,51,30,73,52,31,74,53,32] [] wa=1.0000",
    "L0->L1 [93,92,94,91] [] wa=1.0000",
    "L0->L1 [100,97,99,98] [] wa=1.0000",
    "L0->L1 [102-105] [] wa=1.0000",
    "L1->L2 [101,95,96,106,107] [] wa=1.0000",
    "L0->L1 [115,117,114,116] [] wa=1.0000",
    "L0->L1 [122,120,123,121] [] wa=1.0000",
    "L0->L1 [126,128,125,127] [] wa=1.0000",
    "L1->L2 [124,129,118,130,119] [] wa=1.0000",
    "L0->L1 [138,137,139,140] [] wa=1.0000",
    "L0->L1 [145,146,143,144] [] wa=1.0000",
    "L0->L1 [151,149,150,148] [] wa=1.0000",
    "L1->L2 [147,152,141,153,142] [] wa=1.0000",
    "L2->L3 [131,108,154,132,109,155,133,110,156,134,111,157,158,135,112,"
    "159,136,113] [] wa=1.0000",
    "L0->L1 [178,180,181,179] [] wa=1.0000",
    "L0->L1 [187,184-186] [] wa=1.0000",
};

const std::vector<std::string> kLazyLevelingPicks = {
    "L0->L1 [11,10,13,12] [] wa=1.0000",
    "L0->L1 [17,19,16,18] [14,15] wa=1.8000",
    "L1->L2 [20-23] [] wa=1.0000",
    "L0->L1 [29,31,30,28] [] wa=1.0000",
    "L0->L1 [33-36] [] wa=1.0000",
    "L0->L1 [40,39,41,42] [] wa=1.0000",
    "L1->L2 [37,32,38,43] [24-27] wa=1.7826",
    "L0->L1 [54,56,57,55] [] wa=1.0000",
    "L0->L1 [61,59,62,60] [] wa=1.0000",
    "L0->L1 [66,67,64,65] [] wa=1.0000",
    "L1->L2 [63,58,68] [44-53] wa=3.4118",
    "L0->L1 [84,83,85,86] [] wa=1.0000",
    "L0->L1 [91,90,92,89] [] wa=1.0000",
    "L0->L1 [98,95,97,96] [] wa=1.0000",
    "L1->L2 [87,99,93,88,94] [69-81] wa=3.4481",
    "L0->L1 [118-121] [] wa=1.0000",
    "L0->L1 [125,127,124,126] [] wa=1.0000",
    "L0->L1 [132,130,133,131] [] wa=1.0000",
    "L0->L1 [136,138,135,137] [] wa=1.0000",
    "L1->L2 [134,139,128,122,140,129,123] [100-117,82] wa=3.1622",
    "L2->L3 [141-169] [] wa=1.0000",
    "L0->L1 [200,199,201,202] [] wa=1.0000",
    "L0->L1 [207,208,205,206] [] wa=1.0000",
    "L0->L1 [213,211,212,210] [] wa=1.0000",
    "L1->L2 [209,214,203,215,204] [] wa=1.0000",
    "L0->L1 [222,224,225,223] [] wa=1.0000",
    "L0->L1 [231,228-230] [] wa=1.0000",
};

void ExpectSequence(const std::vector<std::string>& got,
                    const std::vector<std::string>& golden) {
  EXPECT_EQ(golden.size(), got.size());
  for (size_t i = 0; i < std::min(golden.size(), got.size()); i++) {
    EXPECT_EQ(golden[i], got[i]) << "pick " << i;
  }
}

TEST_F(PickerTest, LeveledPickSequenceGolden) {
  Open(CompactionStyle::kLeveled);
  ExpectSequence(PickSequence(301, 80), kLeveledPicks);
}

TEST_F(PickerTest, TieredPickSequenceGolden) {
  Open(CompactionStyle::kTiered, /*tiered_run_count=*/3);
  ExpectSequence(PickSequence(301, 80), kTieredPicks);
}

TEST_F(PickerTest, LazyLevelingPickSequenceGolden) {
  Open(CompactionStyle::kLazyLeveling, /*tiered_run_count=*/3);
  ExpectSequence(PickSequence(301, 80), kLazyLevelingPicks);
}

}  // namespace
}  // namespace pipelsm
