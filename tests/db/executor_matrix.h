// The DB-level executor matrix: SCP, PCP, S-PPCP and C-PPCP.
//
// DB::Open refuses CompactionMode::kSPPCP, because the paper's S-PPCP is
// PCP on a k-disk striped device (Eq. 4; DESIGN.md decision 14). The
// matrix's S-PPCP row therefore opens kPCP on a SimEnv striped over three
// zero-cost channels. That Env reports a 3 x 64 KiB full-stripe read
// size, so S1 reads windows wider than the tests' sub-tasks.
#pragma once

#include "src/db/options.h"
#include "src/env/sim_device.h"

namespace pipelsm::test {

// The executor a DB runs for the matrix row `row`.
inline CompactionMode DbExecutor(CompactionMode row) {
  return row == CompactionMode::kSPPCP ? CompactionMode::kPCP : row;
}

// The device under the DB for the matrix row `row`.
inline DeviceProfile DbDevice(CompactionMode row) {
  if (row != CompactionMode::kSPPCP) return DeviceProfile::Null();
  DeviceProfile p;
  p.name = "free-raid0x3";
  // Timed (so the Env reports its stripe), but no transfer takes time.
  p.read_bw_bps = 1e15;
  p.write_bw_bps = 1e15;
  p.stripe_count = 3;
  return p;
}

}  // namespace pipelsm::test
