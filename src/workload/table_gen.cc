#include "src/workload/table_gen.h"

#include <algorithm>

#include "src/table/table_builder.h"

namespace pipelsm {

namespace {

Status OpenTable(Env* env, const TableOptions& topt, const std::string& fname,
                 std::shared_ptr<Table>* out, uint64_t* size_out) {
  uint64_t size = 0;
  Status s = env->GetFileSize(fname, &size);
  if (!s.ok()) return s;
  std::unique_ptr<RandomAccessFile> file;
  s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  std::unique_ptr<Table> table;
  s = Table::Open(topt, std::move(file), size, &table);
  if (!s.ok()) return s;
  out->reset(table.release());
  *size_out = size;
  return Status::OK();
}

}  // namespace

Status GenerateCompactionInputs(const TableGenOptions& options,
                                CompactionInputs* out) {
  out->tables.clear();
  out->total_bytes = 0;
  out->total_entries = 0;
  if (options.env == nullptr || options.icmp == nullptr) {
    return Status::InvalidArgument("table_gen: env and icmp are required");
  }
  Env* env = options.env;
  env->CreateDir(options.dir);

  TableOptions topt;
  topt.comparator = options.icmp;
  topt.block_size = options.block_size;
  topt.compression = options.compression;

  const uint64_t entry_bytes = options.key_size + options.value_size;
  const uint64_t lower_count =
      std::max<uint64_t>(1, options.lower_bytes / entry_bytes);
  const uint64_t upper_count =
      std::max<uint64_t>(1, options.upper_bytes / entry_bytes);

  WorkloadGenerator gen(lower_count, options.key_size, options.value_size,
                        KeyOrder::kSequential, options.seed);

  int file_id = 0;
  auto build = [&](uint64_t first, uint64_t last_exclusive,
                   SequenceNumber base_seq, uint64_t stride) -> Status {
    const std::string fname =
        options.dir + "/gen-" + std::to_string(file_id++) + ".pst";
    std::unique_ptr<WritableFile> file;
    Status s = env->NewWritableFile(fname, &file);
    if (!s.ok()) return s;
    TableBuilder builder(topt, file.get());
    for (uint64_t i = first; i < last_exclusive; i += stride) {
      std::string ikey;
      AppendInternalKey(
          &ikey, ParsedInternalKey(gen.Key(i), base_seq + i, kTypeValue));
      builder.Add(ikey, gen.Value(i));
      out->total_entries++;
    }
    s = builder.Finish();
    if (!s.ok()) return s;
    s = file->Close();
    if (!s.ok()) return s;

    std::shared_ptr<Table> table;
    uint64_t size = 0;
    s = OpenTable(env, topt, fname, &table, &size);
    if (!s.ok()) return s;
    out->tables.push_back(std::move(table));
    out->total_bytes += size;
    return Status::OK();
  };

  // Upper component: every other key of the shared space, newer sequence
  // numbers (they shadow the lower versions on merge), dealt round-robin
  // across its tables.
  const uint64_t stride = std::max<uint64_t>(1, lower_count / upper_count);
  const int upper_tables = std::max(1, options.upper_tables);
  Status s;
  for (int u = 0; u < upper_tables; u++) {
    s = build(u * stride, lower_count, /*base_seq=*/lower_count + 1,
              stride * upper_tables);
    if (!s.ok()) return s;
  }

  // Lower component: the full key space, split into contiguous files.
  const int lower_tables = std::max(1, options.lower_tables);
  const uint64_t per_table =
      (lower_count + lower_tables - 1) / lower_tables;
  for (int t = 0; t < lower_tables; t++) {
    const uint64_t first = t * per_table;
    const uint64_t last = std::min<uint64_t>(lower_count, first + per_table);
    if (first >= last) break;
    s = build(first, last, /*base_seq=*/1, /*stride=*/1);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status CountingSink::NewOutputFile(uint64_t* file_number,
                                   std::unique_ptr<WritableFile>* file) {
  env_->CreateDir(dir_);
  *file_number = next_number_++;
  const std::string fname =
      dir_ + "/out-" + std::to_string(*file_number) + ".pst";
  return env_->NewWritableFile(fname, file);
}

Status CountingSink::OutputFinished(const OutputMeta& meta) {
  outputs_.push_back(meta);
  total_bytes_ += meta.file_size;
  return Status::OK();
}

}  // namespace pipelsm
