#include "src/env/sim_device.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/util/stopwatch.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace pipelsm {
namespace {

// A fast test profile: 1 ms positioning, 100 MB/s both ways.
DeviceProfile TestProfile(int stripes = 1) {
  DeviceProfile p;
  p.name = "test";
  p.read_position_us = 1000;
  p.write_position_us = 1000;
  p.charge_position_always = false;
  p.read_bw_bps = 100.0 * 1024 * 1024;
  p.write_bw_bps = 100.0 * 1024 * 1024;
  p.stripe_count = stripes;
  return p;
}

TEST(SimDevice, TransferTimeMatchesModel) {
  SimDevice dev(TestProfile());
  // 1 MB at 100 MB/s = 10 ms, plus 1 ms positioning ≈ 11 ms.
  Stopwatch sw;
  dev.ChargeRead(0, 1 << 20);
  const double ms = sw.ElapsedNanos() * 1e-6;
  EXPECT_GE(ms, 10.0);
  EXPECT_LE(ms, 40.0);  // generous ceiling for scheduler noise
}

TEST(SimDevice, SequentialReadsSkipPositioning) {
  SimDevice dev(TestProfile());
  dev.ChargeRead(0, 4096);  // pays the seek
  Stopwatch sw;
  // 64 sequential 4K reads: no positioning charge, ~1 MB/s transfer time.
  uint64_t off = 4096;
  for (int i = 0; i < 63; i++) {
    dev.ChargeRead(off, 4096);
    off += 4096;
  }
  const double ms = sw.ElapsedNanos() * 1e-6;
  // 63 * 4K at 100 MB/s ≈ 2.4 ms. With per-op seeks it would be >63 ms.
  EXPECT_LT(ms, 30.0);
}

TEST(SimDevice, RandomReadsPaySeeks) {
  SimDevice dev(TestProfile());
  Stopwatch sw;
  uint64_t off = 0;
  for (int i = 0; i < 10; i++) {
    dev.ChargeRead(off, 4096);
    off += 100 << 20;  // far jumps: always a seek
  }
  const double ms = sw.ElapsedNanos() * 1e-6;
  EXPECT_GE(ms, 10.0);  // 10 seeks x 1 ms
}

TEST(SimDevice, SsdChargesLatencyAlways) {
  DeviceProfile p = TestProfile();
  p.charge_position_always = true;
  p.read_position_us = 100;
  SimDevice dev(p);
  Stopwatch sw;
  uint64_t off = 0;
  for (int i = 0; i < 20; i++) {
    dev.ChargeRead(off, 512);
    off += 512;  // sequential, but SSDs charge per command anyway
  }
  EXPECT_GE(sw.ElapsedNanos() * 1e-6, 2.0);  // 20 x 0.1 ms
}

TEST(SimDevice, Raid0StripingSpeedsUpLargeTransfers) {
  SimDevice one(TestProfile(1));
  SimDevice four(TestProfile(4));

  Stopwatch sw1;
  one.ChargeRead(0, 8 << 20);  // 8 MB: ~80 ms on one disk
  const double single_ms = sw1.ElapsedNanos() * 1e-6;

  Stopwatch sw4;
  four.ChargeRead(0, 8 << 20);  // ~20 ms across four members
  const double striped_ms = sw4.ElapsedNanos() * 1e-6;

  EXPECT_LT(striped_ms, single_ms * 0.5);
}

TEST(SimDevice, ConcurrentRequestsQueuePerChannel) {
  SimDevice dev(TestProfile(1));
  // Two threads each transfer 2 MB (≈20 ms each) on one channel: total
  // wall time must be ~serialized (≥ 40 ms), not overlapped.
  Stopwatch sw;
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; i++) {
    threads.emplace_back([&dev, i] {
      dev.ChargeRead(static_cast<uint64_t>(i) * (100 << 20), 2 << 20);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(sw.ElapsedNanos() * 1e-6, 38.0);
}

TEST(SimDevice, ConcurrentRequestsParallelizeAcrossStripes) {
  SimDevice dev(TestProfile(4));
  // Four 1 MB transfers layered across four channels should overlap and
  // finish well before 4x a single-disk serial pass.
  Stopwatch sw;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; i++) {
    threads.emplace_back([&dev, i] {
      // Force all channels per transfer via a 1 MB striped read.
      dev.ChargeRead(static_cast<uint64_t>(i) * (100 << 20), 1 << 20);
    });
  }
  for (auto& t : threads) t.join();
  const double ms = sw.ElapsedNanos() * 1e-6;
  // Serial single-disk: 4 x (10 + 1) = 44 ms. Striped + overlapped should
  // be far below.
  EXPECT_LT(ms, 35.0);
}

TEST(SimDevice, StatsAccumulate) {
  SimDevice dev(TestProfile());
  dev.ChargeRead(0, 1000);
  dev.ChargeWrite(0, 2000);
  dev.ChargeWrite(2000, 3000);
  EXPECT_EQ(1u, dev.stats().read_ops.load());
  EXPECT_EQ(1000u, dev.stats().read_bytes.load());
  EXPECT_EQ(2u, dev.stats().write_ops.load());
  EXPECT_EQ(5000u, dev.stats().write_bytes.load());
  dev.ResetStats();
  EXPECT_EQ(0u, dev.stats().read_ops.load());
}

TEST(SimDevice, ResetStatsClearsLateNanos) {
  SimDevice dev(DeviceProfile::Ssd());
  for (int i = 0; i < 4; i++) dev.ChargeRead(0, 4096);
  dev.ResetStats();
  EXPECT_EQ(0u, dev.stats().late_nanos.load());
  EXPECT_EQ(0u, dev.stats().busy_nanos.load());
}

TEST(SimDevice, NullDeviceIsNeverLate) {
  SimDevice dev(DeviceProfile::Null());
  for (int i = 0; i < 100; i++) {
    dev.ChargeRead(static_cast<uint64_t>(i) << 20, 4096);
    dev.ChargeWrite(static_cast<uint64_t>(i) << 20, 4096);
  }
  EXPECT_EQ(0u, dev.stats().late_nanos.load());
}

TEST(SleepUntil, NeverWakesBeforeItsDeadline) {
  for (int64_t micros : {0, 1, 50, 200}) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
    const uint64_t late = SleepUntil(deadline);
    const auto woke = std::chrono::steady_clock::now();
    EXPECT_GE(woke, deadline) << micros << " us";
    EXPECT_LE(std::chrono::nanoseconds(late), woke - deadline) << micros;
  }
  // A deadline already passed returns at once, counted as late.
  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
  EXPECT_GE(SleepUntil(past), 1000000u);
}

#ifdef __linux__
// Threads inherit their creator's slack, so each case's thread first
// restores the kernel default: an earlier charge on the test's main
// thread would otherwise leave 1 ns behind and make the check vacuous.
constexpr unsigned long kDefaultSlackNanos = 50000;

unsigned long SlackAfterCharges(const DeviceProfile& profile) {
  unsigned long slack = 0;
  std::thread t([&] {
    prctl(PR_SET_TIMERSLACK, kDefaultSlackNanos, 0UL, 0UL, 0UL);
    SimDevice dev(profile);
    dev.ChargeRead(0, 4096);
    dev.ChargeWrite(0, 4096);
    slack = static_cast<unsigned long>(
        prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL));
  });
  t.join();
  return slack;
}

TEST(SimDevice, ChargingThreadWakesWithoutTimerSlack) {
  EXPECT_EQ(1u, SlackAfterCharges(DeviceProfile::Ssd()));
}

TEST(SimDevice, NullDeviceLeavesTimerSlackAlone) {
  EXPECT_EQ(kDefaultSlackNanos, SlackAfterCharges(DeviceProfile::Null()));
}
#endif  // __linux__

TEST(SimDevice, ProfilesMatchPaperRegimes) {
  // The paper's premise: HDD seeks dominate (I/O-bound), SSD positioning
  // is orders of magnitude cheaper (compute becomes the bottleneck).
  DeviceProfile hdd = DeviceProfile::Hdd();
  DeviceProfile ssd = DeviceProfile::Ssd();
  EXPECT_GT(hdd.read_position_us, 50 * ssd.read_position_us);
  EXPECT_GT(ssd.read_bw_bps, hdd.read_bw_bps);
  // SSD write-after-erase: writes slower than reads.
  EXPECT_LT(ssd.write_bw_bps, ssd.read_bw_bps);
  // HDD write buffer: writes position faster than reads seek.
  EXPECT_LT(hdd.write_position_us, hdd.read_position_us);
}

}  // namespace
}  // namespace pipelsm
