// SimDevice: a timed block-device model.
//
// Why this exists. The paper's evaluation ran on ten 7200 RPM HDDs (built
// into RAID0 arrays with md) and an Intel X25-M SSD. This repo reproduces
// those experiments on a single machine by charging each transfer the wall
// time the modeled device would need, computed with a discrete-event
// treatment per channel:
//
//   * a device has `stripe_count` independent channels (RAID0 members);
//   * a transfer of n bytes is striped over all channels, each chunk costs
//     positioning time (seek + rotational latency for HDDs, fixed command
//     latency for SSDs — charged only when the access is not sequential
//     with the channel's previous one for HDDs; always for SSDs) plus
//     chunk_size / bandwidth;
//   * each channel keeps a busy-until timestamp: a chunk starts at
//     max(now, busy_until) and pushes busy_until forward, so concurrent
//     requests genuinely queue per channel;
//   * the caller sleeps until the max completion time over its chunks.
//
// The sleep wakes on time. It goes through SleepUntil
// (src/util/stopwatch.h), which sets the calling thread's timer slack to
// 1 ns before its first wait; the kernel default of 50 µs would otherwise
// let every request complete up to 50 µs late, about half a 4 KiB SSD
// read. Slack is per thread and new threads inherit it, so once a thread
// has charged the device its other timed waits, and those of threads it
// starts later, wake tighter too. Whatever lateness remains (wake-up and
// scheduling delay) is summed in DeviceStats::late_nanos and never
// credited to the next request: a real device completes on time, so
// crediting it would let a channel idle less than the model says.
//
// Because the time is spent in a real sleep while the CPU steps (checksum,
// compress, merge) burn real cycles, the I/O-vs-CPU overlap the paper
// exploits is a genuine wall-clock effect even on a 1-core host.
//
// The HDD model reflects the paper's observation that writes look faster
// than reads (the on-disk write buffer absorbs them): writes charge the
// buffered positioning cost, reads the full seek.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pipelsm {

struct DeviceProfile {
  std::string name = "null";

  // Positioning cost charged when an access is not sequential with the
  // channel's last access (HDD head movement + rotational latency), and for
  // every access on SSDs (command/translation latency).
  double read_position_us = 0;
  double write_position_us = 0;
  bool charge_position_always = false;  // SSD: latency on every command

  // Two-tier seek model: jumps shorter than near_seek_distance_bytes pay
  // near_position_us (track-to-track + rotation) instead of the full
  // positioning cost. Negative near_position_us disables the tier.
  double near_position_us = -1;
  uint64_t near_seek_distance_bytes = 64ull * 1024 * 1024;

  // Sustained transfer bandwidth, bytes per second.
  double read_bw_bps = 0;
  double write_bw_bps = 0;

  // RAID0 member count (1 = single device).
  int stripe_count = 1;
  // Stripe chunk size; transfers smaller than this stay on one channel.
  uint64_t stripe_unit_bytes = 64 * 1024;

  // Offsets within this distance of the previous access count as
  // sequential (no positioning charge on HDDs).
  uint64_t sequential_window_bytes = 512 * 1024;

  // A 7200 RPM SATA disk, per the paper's testbed: ~8.5 ms average seek +
  // rotational latency on reads; writes land in the on-disk buffer so their
  // effective positioning cost is far lower (paper §IV-B: "the write
  // request is considered completed after the data has been written into
  // the disk write buffer").
  static DeviceProfile Hdd(int stripe_count = 1);

  // An Intel X25-M-class SATA SSD: no mechanical positioning, modest
  // command latency, high read bandwidth, lower write bandwidth
  // (write-after-erase; paper §IV-B: "the step write takes more time than
  // step read ... due to the write-after-erase feature").
  static DeviceProfile Ssd(int stripe_count = 1);

  // Zero-cost device (timing disabled) for correctness-only tests.
  static DeviceProfile Null();

  bool is_null() const { return read_bw_bps <= 0 && write_bw_bps <= 0; }
};

// Cumulative transfer statistics (lock-free counters).
struct DeviceStats {
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_ops{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> busy_nanos{0};  // modeled device-busy time
  std::atomic<uint64_t> late_nanos{0};  // woken past the modeled completion
};

class SimDevice {
 public:
  explicit SimDevice(DeviceProfile profile);

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  // Charge a read/write of n bytes at the given device offset. Blocks the
  // calling thread for the modeled duration. Offsets let the model detect
  // sequential access; callers that do not track offsets may pass
  // kUnknownOffset to force the positioning charge.
  void ChargeRead(uint64_t offset, uint64_t n);
  void ChargeWrite(uint64_t offset, uint64_t n);

  static constexpr uint64_t kUnknownOffset = ~0ull;

  const DeviceProfile& profile() const { return profile_; }
  const DeviceStats& stats() const { return stats_; }
  void ResetStats();

 private:
  using Clock = std::chrono::steady_clock;

  // Real disk stacks keep several sequential streams cheap at once (OS
  // readahead contexts, NCQ reordering, the drive's track buffer), which
  // is what lets a pipelined compaction read and write the same disk
  // concurrently without paying a full seek per switch. Model: up to
  // kStreamsPerChannel expected-next offsets per channel; an access that
  // continues any of them is sequential.
  static constexpr int kStreamsPerChannel = 4;

  struct Channel {
    Clock::time_point busy_until;
    uint64_t streams[kStreamsPerChannel] = {kUnknownOffset, kUnknownOffset,
                                            kUnknownOffset, kUnknownOffset};
    int next_victim = 0;
  };

  void Charge(uint64_t offset, uint64_t n, bool is_write);

  const DeviceProfile profile_;
  std::mutex mu_;  // protects channels_
  std::vector<Channel> channels_;
  DeviceStats stats_;
};

}  // namespace pipelsm
