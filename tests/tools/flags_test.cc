// The tools' command-line layer: strict values in tools/flags.h, the
// shared engine flags and the --device spelling in tools/engine_flags.h.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/engine_flags.h"
#include "tools/flags.h"

namespace pipelsm {
namespace {

// Parses `args` against `set`; returns the error ("" on success).
std::string ParseError(flags::FlagSet* set, std::vector<std::string> args,
                       std::vector<std::string>* positionals = nullptr) {
  std::vector<std::string> rest;
  std::string error;
  if (!set->Parse(args, positionals != nullptr ? positionals : &rest,
                  &error)) {
    return error.empty() ? "?" : error;
  }
  return "";
}

TEST(FlagSetTest, UnsignedTakesOnlyWholeDecimalValues) {
  uint64_t num = 7;
  flags::FlagSet set("t");
  set.Add("num", &num, "entries");
  for (const char* bad : {"--num=1e5", "--num=2k", "--num=-1", "--num=",
                          "--num=0x10", "--num= 5",
                          "--num=18446744073709551616"}) {
    EXPECT_NE(ParseError(&set, {bad}), "") << bad;
    EXPECT_EQ(num, 7u) << bad;
  }
  EXPECT_NE(ParseError(&set, {"--num=1e5"}).find("--num=1e5"),
            std::string::npos);
  EXPECT_EQ(ParseError(&set, {"--num=100000"}), "");
  EXPECT_EQ(num, 100000u);
}

TEST(FlagSetTest, SignedRangeAndNegatives) {
  int admin_port = 0;
  int workers = 4;
  uint32_t seed = 1;
  double theta = 0;
  flags::FlagSet set("t");
  set.Add("admin_port", &admin_port, "port");
  set.Add("workers", &workers, "threads");
  set.Add("seed", &seed, "seed");
  set.Add("zipf_theta", &theta, "skew");
  EXPECT_EQ(ParseError(&set, {"--admin_port=-1"}), "");
  EXPECT_EQ(admin_port, -1);
  EXPECT_NE(ParseError(&set, {"--workers=99999999999"}), "");
  EXPECT_EQ(workers, 4);
  EXPECT_NE(ParseError(&set, {"--seed=4294967296"}), "");
  EXPECT_EQ(ParseError(&set, {"--seed=4294967295"}), "");
  EXPECT_EQ(seed, 4294967295u);
  EXPECT_EQ(ParseError(&set, {"--zipf_theta=0.8"}), "");
  EXPECT_DOUBLE_EQ(theta, 0.8);
  EXPECT_NE(ParseError(&set, {"--zipf_theta=0.8x"}), "");
}

TEST(FlagSetTest, SwitchesUnknownFlagsAndMissingValues) {
  bool adaptive = false;
  std::string db = "d";
  flags::FlagSet set("t");
  set.Switch("adaptive", &adaptive, "adapt");
  set.Add("db", &db, "path");
  EXPECT_NE(ParseError(&set, {"--adaptive=1"}), "");
  EXPECT_FALSE(adaptive);
  EXPECT_NE(ParseError(&set, {"--adaptiv"}), "");
  EXPECT_NE(ParseError(&set, {"--smok"}), "");
  EXPECT_NE(ParseError(&set, {"--db"}), "");
  EXPECT_EQ(ParseError(&set, {"--adaptive", "--db="}), "");
  EXPECT_TRUE(adaptive);
  EXPECT_EQ(db, "");
}

TEST(FlagSetTest, PositionalsComeBackVerbatim) {
  int port = 0;
  flags::FlagSet set("t");
  set.Add("port", &port, "port");
  std::vector<std::string> rest;
  EXPECT_EQ(ParseError(&set, {"--port=17380", "put", "--key", "--port=1"},
                       &rest),
            "");
  EXPECT_EQ(port, 17380);
  EXPECT_EQ(rest, (std::vector<std::string>{"put", "--key", "--port=1"}));
  EXPECT_EQ(ParseError(&set, {}, &rest), "");
  EXPECT_TRUE(rest.empty());
}

TEST(FlagSetTest, PositionalNumbersUseTheSameCheck) {
  uint32_t limit = 0;
  EXPECT_TRUE(flags::ParseValue("10", &limit));
  EXPECT_EQ(limit, 10u);
  EXPECT_FALSE(flags::ParseValue("10x", &limit));
  EXPECT_FALSE(flags::ParseValue("-3", &limit));
  EXPECT_EQ(limit, 10u);
}

int Stripes(const std::string& spelling) {
  Device device;
  EXPECT_TRUE(OpenDevice(spelling, &device).ok()) << spelling;
  return device.sim != nullptr ? device.sim->device()->profile().stripe_count
                               : 0;
}

TEST(DeviceTest, Spellings) {
  Device posix;
  ASSERT_TRUE(OpenDevice("posix", &posix).ok());
  EXPECT_EQ(posix.env, Env::Posix());
  EXPECT_EQ(posix.sim, nullptr);

  EXPECT_EQ(Stripes("hdd"), 1);
  EXPECT_EQ(Stripes("ssd"), 1);
  EXPECT_EQ(Stripes("hddx4"), 4);
  EXPECT_EQ(Stripes("ssdx3"), 3);
  Device hdd;
  ASSERT_TRUE(OpenDevice("hddx4", &hdd).ok());
  EXPECT_EQ(hdd.env, hdd.sim.get());
  EXPECT_EQ(hdd.sim->device()->profile().name,
            DeviceProfile::Hdd(4).name);
  Device null;
  ASSERT_TRUE(OpenDevice("null", &null).ok());
  EXPECT_EQ(null.sim->device()->profile().name, DeviceProfile::Null().name);

  for (const char* bad : {"hddx", "hddx0", "ssdxZ", "hddx-1", "hddx2k",
                          "hddy2", "hd", "", "nullx2", "sppcp"}) {
    Device device;
    EXPECT_TRUE(OpenDevice(bad, &device).IsInvalidArgument()) << bad;
  }
}

TEST(EngineFlagsTest, ApplyToSetsEveryOptionsField) {
  EngineFlags engine;
  flags::FlagSet set("t");
  engine.Register(&set);
  ASSERT_EQ(ParseError(&set, {"--compaction=cppcp", "--compaction_style=lazy",
                              "--tiered_run_count=6",
                              "--max_subcompactions=3",
                              "--write_buffer_kb=256", "--file_kb=128",
                              "--subtask_kb=64", "--compute_parallelism=2",
                              "--value_threshold=1024", "--cache_size=4096",
                              "--cache_shards=5", "--bloom_bits_per_key=10",
                              "--filter_partition_bytes=2048"}),
            "");
  Options options;
  ASSERT_TRUE(engine.ApplyTo(&options).ok());
  EXPECT_EQ(options.compaction_mode, CompactionMode::kCPPCP);
  EXPECT_EQ(options.compaction_style, CompactionStyle::kLazyLeveling);
  EXPECT_EQ(options.tiered_run_count, 6);
  EXPECT_EQ(options.max_subcompactions, 3);
  EXPECT_EQ(options.write_buffer_size, 256u << 10);
  EXPECT_EQ(options.max_file_size, 128u << 10);
  EXPECT_EQ(options.subtask_bytes, 64u << 10);
  EXPECT_EQ(options.compute_parallelism, 2);
  EXPECT_EQ(options.value_separation_threshold, 1024u);
  EXPECT_EQ(options.block_cache_size, 4096u);
  EXPECT_EQ(options.block_cache_shards, 5u);
  EXPECT_EQ(options.bloom_bits_per_key, 10);
  EXPECT_EQ(options.filter_partition_bytes, 2048u);
}

TEST(EngineFlagsTest, DefaultsAreOptionsDefaults) {
  Options applied;
  ASSERT_TRUE(EngineFlags().ApplyTo(&applied).ok());
  const Options defaults;
  EXPECT_EQ(applied.compaction_mode, defaults.compaction_mode);
  EXPECT_EQ(applied.compaction_style, defaults.compaction_style);
  EXPECT_EQ(applied.tiered_run_count, defaults.tiered_run_count);
  EXPECT_EQ(applied.max_subcompactions, defaults.max_subcompactions);
  EXPECT_EQ(applied.write_buffer_size, defaults.write_buffer_size);
  EXPECT_EQ(applied.max_file_size, defaults.max_file_size);
  EXPECT_EQ(applied.subtask_bytes, defaults.subtask_bytes);
  EXPECT_EQ(applied.compute_parallelism, defaults.compute_parallelism);
  EXPECT_EQ(applied.value_separation_threshold,
            defaults.value_separation_threshold);
  EXPECT_EQ(applied.block_cache_size, defaults.block_cache_size);
  EXPECT_EQ(applied.block_cache_shards, defaults.block_cache_shards);
  EXPECT_EQ(applied.bloom_bits_per_key, defaults.bloom_bits_per_key);
  EXPECT_EQ(applied.filter_partition_bytes, defaults.filter_partition_bytes);
}

TEST(EngineFlagsTest, RefusesBadModesAndStyles) {
  Options options;
  EngineFlags engine;
  engine.compaction = "sppcp";
  Status s = engine.ApplyTo(&options);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("sppcp"), std::string::npos);
  engine.compaction = "pcp";
  engine.compaction_style = "tierd";
  EXPECT_TRUE(engine.ApplyTo(&options).IsInvalidArgument());
}

TEST(EngineFlagsTest, RegistersOnlyTheNamedSubset) {
  EngineFlags engine;
  flags::FlagSet set("t");
  engine.Register(&set, {"cache_size", "bloom_bits_per_key"});
  EXPECT_EQ(ParseError(&set, {"--cache_size=1024", "--bloom_bits_per_key=8"}),
            "");
  EXPECT_EQ(engine.cache_size, 1024u);
  EXPECT_EQ(engine.bloom_bits_per_key, 8);
  EXPECT_NE(ParseError(&set, {"--compaction=scp"}), "");
}

}  // namespace
}  // namespace pipelsm
