// The engine settings the tools share: the 13 flags db_bench and
// pipelsm_server both take (bench_server and crash_test pick a few), and
// the one spelling of --device.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/db/options.h"
#include "src/env/sim_env.h"
#include "tools/flags.h"

namespace pipelsm {

// Defaults are Options' own, so a flag left unset changes nothing.
struct EngineFlags {
  std::string compaction = "pcp";
  std::string compaction_style = "leveled";
  int tiered_run_count = 4;
  int max_subcompactions = 1;
  size_t write_buffer_kb = 4096;
  size_t file_kb = 2048;
  size_t subtask_kb = 512;
  int compute_parallelism = 1;
  size_t value_threshold = 0;
  size_t cache_size = 8 << 20;
  size_t cache_shards = 0;
  int bloom_bits_per_key = 0;
  size_t filter_partition_bytes = 4096;

  // Adds every engine flag to `set`, or only the ones named in `only`.
  void Register(flags::FlagSet* set, const std::vector<std::string>& only = {});

  // Copies the flags into their Options fields. InvalidArgument, with
  // ParseCompactionMode's or ParseCompactionStyle's message, for a bad
  // --compaction (sppcp included) or --compaction_style.
  Status ApplyTo(Options* options) const;
};

inline constexpr char kDeviceHelp[] =
    "storage: posix (the host file system), or a simulated null, hdd, ssd, "
    "hddx<k> or ssdx<k> (a k-disk RAID0)";

// The Env a --device value names: Env::Posix() for posix, else a fresh
// SimEnv over the device model, owned by `sim`.
struct Device {
  std::unique_ptr<SimEnv> sim;
  Env* env = nullptr;
};

// InvalidArgument for anything but the spellings in kDeviceHelp; k >= 1.
Status OpenDevice(const std::string& spelling, Device* device);

}  // namespace pipelsm
