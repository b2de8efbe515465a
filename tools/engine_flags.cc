#include "tools/engine_flags.h"

#include <algorithm>
#include <cstdlib>

namespace pipelsm {

void EngineFlags::Register(flags::FlagSet* set,
                           const std::vector<std::string>& only) {
  size_t taken = 0;
  auto add = [&](const char* name, auto* target, const char* help) {
    if (only.empty() ||
        std::find(only.begin(), only.end(), name) != only.end()) {
      set->Add(name, target, help);
      taken++;
    }
  };
  add("compaction", &compaction, "compaction executor: scp, pcp or cppcp");
  add("compaction_style", &compaction_style,
      "which-to-compact policy: leveled, tiered or lazy; keep it across "
      "reopens of one DB (docs/COMPACTION.md)");
  add("tiered_run_count", &tiered_run_count,
      "sorted runs a tiered/lazy level holds before it merges");
  add("max_subcompactions", &max_subcompactions,
      "key-range fan-out ceiling for one compaction job (1 = off)");
  add("write_buffer_kb", &write_buffer_kb, "memtable size, KiB");
  add("file_kb", &file_kb, "SSTable size, KiB");
  add("subtask_kb", &subtask_kb, "compaction sub-task size, KiB");
  add("compute_parallelism", &compute_parallelism,
      "C-PPCP compute workers per job");
  add("value_threshold", &value_threshold,
      "key-value separation: values >= N bytes go to the value log (0 = off)");
  add("cache_size", &cache_size,
      "block cache capacity, bytes (a sharded fleet shares one)");
  add("cache_shards", &cache_shards,
      "block cache lock shards (0 = auto, 1 = single-mutex baseline)");
  add("bloom_bits_per_key", &bloom_bits_per_key,
      "bloom filter bits per key (0 = no filters)");
  add("filter_partition_bytes", &filter_partition_bytes,
      "partitioned-filter partition size, bytes");
  if (!only.empty() && taken != only.size()) std::abort();  // a misspelt name
}

Status EngineFlags::ApplyTo(Options* options) const {
  Status s = ParseCompactionMode(compaction, &options->compaction_mode);
  if (s.ok()) {
    s = ParseCompactionStyle(compaction_style, &options->compaction_style);
  }
  if (!s.ok()) return s;
  options->tiered_run_count = tiered_run_count;
  options->max_subcompactions = max_subcompactions;
  options->write_buffer_size = write_buffer_kb << 10;
  options->max_file_size = file_kb << 10;
  options->subtask_bytes = subtask_kb << 10;
  options->compute_parallelism = compute_parallelism;
  options->value_separation_threshold = value_threshold;
  options->block_cache_size = cache_size;
  options->block_cache_shards = cache_shards;
  options->bloom_bits_per_key = bloom_bits_per_key;
  options->filter_partition_bytes = filter_partition_bytes;
  return Status::OK();
}

Status OpenDevice(const std::string& spelling, Device* device) {
  if (spelling == "posix") {
    device->sim.reset();
    device->env = Env::Posix();
    return Status::OK();
  }
  DeviceProfile profile;
  int stripes = 1;
  const std::string kind = spelling.substr(0, 3);
  const bool disks_ok =
      spelling.size() == 3 ||
      (spelling.size() > 4 && spelling[3] == 'x' &&
       flags::ParseValue(spelling.substr(4), &stripes) && stripes >= 1);
  if ((kind == "hdd" || kind == "ssd") && disks_ok) {
    profile = kind == "hdd" ? DeviceProfile::Hdd(stripes)
                            : DeviceProfile::Ssd(stripes);
  } else if (spelling == "null") {
    profile = DeviceProfile::Null();
  } else {
    return Status::InvalidArgument("--device=" + spelling, kDeviceHelp);
  }
  device->sim = std::make_unique<SimEnv>(profile);
  device->env = device->sim.get();
  return Status::OK();
}

}  // namespace pipelsm
