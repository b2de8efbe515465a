#include "src/workload/driver.h"

#include "src/db/write_batch.h"
#include "src/util/stopwatch.h"

namespace pipelsm {

Status RunFill(DB* db, const FillOptions& options, FillResult* result) {
  WorkloadGenerator gen(options.num_entries, options.key_size,
                        options.value_size, options.order, options.seed,
                        options.value_compressibility);
  WriteOptions write_options;
  write_options.sync = options.sync;

  Stopwatch total;
  WriteBatch batch;
  uint64_t in_batch = 0;
  for (uint64_t i = 0; i < options.num_entries; i++) {
    Stopwatch op;
    batch.Put(gen.Key(i), gen.Value(i));
    in_batch++;
    if (in_batch >= options.batch_size || i + 1 == options.num_entries) {
      Status s = db->Write(write_options, &batch);
      if (!s.ok()) return s;
      batch.Clear();
      in_batch = 0;
    }
    result->latency_micros.Add(op.ElapsedNanos() / 1000.0);
  }

  if (options.wait_for_compactions) {
    Status s = db->WaitForCompactions();
    if (!s.ok()) return s;
  }

  result->entries = options.num_entries;
  result->seconds = total.ElapsedSeconds();
  result->ops_per_sec =
      result->seconds > 0 ? options.num_entries / result->seconds : 0;
  result->compaction = db->GetCompactionMetrics();
  const StepProfile& p = result->compaction.profile;
  result->compaction_bandwidth = p.WallBandwidth();
  return Status::OK();
}

}  // namespace pipelsm
