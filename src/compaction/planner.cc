#include "src/compaction/planner.h"

#include <algorithm>
#include <set>
#include <utility>

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

// The stored bytes S1 reads for one sub-task.
uint64_t PlannedBytes(const SubTaskPlan& p) {
  uint64_t bytes = 0;
  for (const BlockRead& br : p.blocks) {
    bytes += br.handle.size() + kBlockTrailerSize;
  }
  return bytes;
}

}  // namespace

Status PlanSubTasks(const CompactionJobOptions& options,
                    const std::vector<std::shared_ptr<Table>>& inputs,
                    CompactionPlan* plan) {
  Stopwatch timer;
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

  // Build the sub-task ranges: (-inf, b0], (b0, b1], ..., (b_last, +inf).
  const size_t num_tasks = boundaries.size() + 1;
  plans->resize(num_tasks);
  for (size_t i = 0; i < num_tasks; i++) {
    SubTaskPlan& p = (*plans)[i];
    p.seq = i;
    if (i > 0) {
      p.unbounded_lo = false;
      p.lo_user_key = boundaries[i - 1];
    }
    if (i < boundaries.size()) {
      p.unbounded_hi = false;
      p.hi_user_key = boundaries[i];
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
  plan->plan_nanos = timer.ElapsedNanos();
  return Status::OK();
}

std::vector<CompactionPlan> SplitPlan(CompactionPlan plan, int want) {
  std::vector<SubTaskPlan>& tasks = plan.subtasks;
  const size_t m = tasks.size();
  const size_t n = std::min<size_t>(std::max(want, 1), m / 2);
  if (n < 2) {
    std::vector<CompactionPlan> whole(1);
    whole[0] = std::move(plan);
    return whole;
  }
  std::vector<uint64_t> prefix(m + 1, 0);  // planned bytes of tasks [0, i)
  for (size_t i = 0; i < m; i++) {
    prefix[i + 1] = prefix[i] + PlannedBytes(tasks[i]);
  }
  // Each group ends at the sub-task boundary closest to an even share of
  // the bytes not yet dealt out, leaving two sub-tasks for every group.
  std::vector<size_t> cuts = {0};
  for (size_t j = 1; j < n; j++) {
    const size_t from = cuts.back();
    const uint64_t target =
        prefix[from] + (prefix[m] - prefix[from]) / (n - j + 1);
    const size_t last = m - 2 * (n - j);
    size_t c = from + 2;
    while (c < last && prefix[c] + prefix[c + 1] < 2 * target) c++;
    cuts.push_back(c);
  }
  cuts.push_back(m);

  // A block listed by two groups counts in the first one's input_bytes.
  std::vector<CompactionPlan> groups(cuts.size() - 1);
  std::set<std::pair<int, uint64_t>> counted;
  for (size_t j = 0; j < groups.size(); j++) {
    for (size_t i = cuts[j]; i < cuts[j + 1]; i++) {
      for (const BlockRead& br : tasks[i].blocks) {
        if (counted.insert({br.table_index, br.handle.offset()}).second) {
          groups[j].input_bytes += br.handle.size() + kBlockTrailerSize;
        }
      }
      tasks[i].seq = i - cuts[j];
      groups[j].subtasks.push_back(std::move(tasks[i]));
    }
  }
  groups[0].plan_nanos = plan.plan_nanos;
  return groups;
}

}  // namespace pipelsm
