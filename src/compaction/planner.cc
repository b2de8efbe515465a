#include "src/compaction/planner.h"

#include <algorithm>

#include "src/table/iterator.h"
#include "src/table/table.h"

namespace pipelsm {

namespace {

struct IndexEntry {
  int table_index;
  int block_index;
  std::string separator;  // internal key >= every key in the block
  BlockHandle handle;
};

}  // namespace

Status PlanSubTasks(const CompactionJobOptions& options,
                    const std::vector<std::shared_ptr<Table>>& inputs,
                    CompactionPlan* plan) {
  std::vector<SubTaskPlan>* const plans = &plan->subtasks;
  plans->clear();
  plan->input_bytes = 0;
  if (options.icmp == nullptr) {
    return Status::InvalidArgument("planner: icmp is required");
  }
  const Comparator* ucmp = options.icmp->user_comparator();

  // Collect every table's data-block extents from its index block.
  std::vector<std::vector<IndexEntry>> per_table(inputs.size());
  std::vector<IndexEntry> all;
  for (size_t t = 0; t < inputs.size(); t++) {
    std::unique_ptr<Iterator> it(inputs[t]->NewIndexIterator());
    int block_index = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      IndexEntry e;
      e.table_index = static_cast<int>(t);
      e.block_index = block_index++;
      e.separator = it->key().ToString();
      Slice v = it->value();
      Status s = e.handle.DecodeFrom(&v);
      if (!s.ok()) return s;
      per_table[t].push_back(e);
      all.push_back(per_table[t].back());
    }
    if (!it->status().ok()) return it->status();
  }
  if (all.empty()) return Status::OK();

  // Walk block extents in merged key order; cut a boundary whenever the
  // accumulated input reaches subtask_bytes. Boundaries are user keys and
  // must strictly increase.
  std::sort(all.begin(), all.end(),
            [&](const IndexEntry& a, const IndexEntry& b) {
              int c = options.icmp->Compare(a.separator, b.separator);
              if (c != 0) return c < 0;
              if (a.table_index != b.table_index)
                return a.table_index < b.table_index;
              return a.block_index < b.block_index;
            });

  std::vector<std::string> boundaries;
  uint64_t acc = 0;
  for (size_t i = 0; i + 1 < all.size(); i++) {  // never cut after the last
    acc += all[i].handle.size();
    if (acc >= options.subtask_bytes) {
      Slice user = ExtractUserKey(all[i].separator);
      if (boundaries.empty() ||
          ucmp->Compare(user, boundaries.back()) > 0) {
        boundaries.push_back(user.ToString());
        acc = 0;
      }
    }
  }

  // A sub-compaction restricts the whole job to (range_lo, range_hi]:
  // keep only boundaries strictly inside the window, then pin the first
  // plan's lo and the last plan's hi to the window edges so block
  // assignment and the merge's range filter clamp to it automatically.
  if (!options.range_unbounded_lo || !options.range_unbounded_hi) {
    boundaries.erase(
        std::remove_if(
            boundaries.begin(), boundaries.end(),
            [&](const std::string& b) {
              if (!options.range_unbounded_lo &&
                  ucmp->Compare(b, options.range_lo_user_key) <= 0)
                return true;
              if (!options.range_unbounded_hi &&
                  ucmp->Compare(b, options.range_hi_user_key) >= 0)
                return true;
              return false;
            }),
        boundaries.end());
  }

  // Build the sub-task ranges: (lo, b0], (b0, b1], ..., (b_last, hi]
  // where lo/hi are the job range edges (unbounded by default).
  const size_t num_tasks = boundaries.size() + 1;
  plans->resize(num_tasks);
  for (size_t i = 0; i < num_tasks; i++) {
    SubTaskPlan& p = (*plans)[i];
    p.seq = i;
    if (i > 0) {
      p.unbounded_lo = false;
      p.lo_user_key = boundaries[i - 1];
    } else if (!options.range_unbounded_lo) {
      p.unbounded_lo = false;
      p.lo_user_key = options.range_lo_user_key;
    }
    if (i < boundaries.size()) {
      p.unbounded_hi = false;
      p.hi_user_key = boundaries[i];
    } else if (!options.range_unbounded_hi) {
      p.unbounded_hi = false;
      p.hi_user_key = options.range_hi_user_key;
    }
  }

  // Assign blocks. A block whose keys lie in (sep[k-1], sep[k]] (internal)
  // overlaps sub-range (lo, hi] iff user(sep[k]) > lo and
  // user(sep[k-1]) <= hi; the first block's lower bound is the table's
  // smallest user key, when given. Boundary blocks land in two adjacent
  // sub-tasks; the merge filters by range so nothing duplicates, and the
  // job's input_bytes counts them once.
  const std::vector<std::string>& smallest = options.input_smallest_user_keys;
  for (size_t t = 0; t < per_table.size(); t++) {
    const auto& entries = per_table[t];
    for (size_t k = 0; k < entries.size(); k++) {
      const Slice upper_user = ExtractUserKey(entries[k].separator);
      const bool has_lower = k != 0 || t < smallest.size();
      const Slice lower_user =
          k != 0 ? ExtractUserKey(entries[k - 1].separator)
                 : (has_lower ? Slice(smallest[t]) : Slice());
      bool planned = false;

      for (SubTaskPlan& p : *plans) {
        // Plans ascend, so above_lo holds for a prefix of plans and
        // below_hi for a suffix; the matching plans form an interval.
        const bool above_lo =
            p.unbounded_lo || ucmp->Compare(upper_user, p.lo_user_key) > 0;
        if (!above_lo) break;  // lo only grows from here on
        const bool below_hi =
            p.unbounded_hi || !has_lower ||
            ucmp->Compare(lower_user, p.hi_user_key) <= 0;
        if (!below_hi) continue;  // block starts past this plan's hi
        BlockRead br;
        br.table_index = entries[k].table_index;
        br.handle = entries[k].handle;
        p.blocks.push_back(br);
        planned = true;
      }
      if (planned) {
        plan->input_bytes += entries[k].handle.size() + kBlockTrailerSize;
      }
    }
  }

  // Drop empty sub-tasks (possible when boundaries crowd together) and
  // resequence.
  plans->erase(std::remove_if(plans->begin(), plans->end(),
                              [](const SubTaskPlan& p) {
                                return p.blocks.empty();
                              }),
               plans->end());
  for (size_t i = 0; i < plans->size(); i++) {
    (*plans)[i].seq = i;
    (*plans)[i].drop_deletions = options.range_is_base_level
                                     ? options.range_is_base_level((*plans)[i])
                                     : true;
  }
  return Status::OK();
}

}  // namespace pipelsm
