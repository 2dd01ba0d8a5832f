//===- examples/streamcluster_study.cpp - Paper case study 4.2.2 -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second case study: streamcluster's work_mem object is padded
/// by its authors — but to an *assumed* 32-byte cache line. On a 64-byte-
/// line machine adjacent threads still share lines. This example profiles
/// the program under both geometries, showing the instance appear exactly
/// when the hardware line outgrows the assumption, and quantifies the mild
/// (~1.02x) improvement the paper reports in Table 1.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace cheetah;

namespace {

void profileWithLineSize(const workloads::Workload &Workload,
                         uint64_t LineSize) {
  driver::SessionConfig Config;
  Config.Workload.Threads = 16;
  Config.Workload.Scale = 4.0;
  Config.Profiler.Geometry = CacheGeometry(LineSize);
  Config.Profiler.Pmu.SamplingPeriod = 128;

  driver::SessionResult Result = driver::runWorkload(Workload, Config);
  std::printf("--- %llu-byte cache lines ---\n",
              static_cast<unsigned long long>(LineSize));
  const core::FalseSharingReport *Report =
      Result.Profile.findReport("streamcluster.cpp:985");
  if (!Report) {
    std::printf("no false sharing reported: the 32-byte padding in "
                "work_mem is sufficient on this geometry\n\n");
    return;
  }
  std::printf("work_mem (streamcluster.cpp:985) falsely shared: %s sampled "
              "accesses, %s invalidations, predicted improvement %.3fx\n\n",
              formatWithCommas(Report->SampledAccesses).c_str(),
              formatWithCommas(Report->Invalidations).c_str(),
              Report->Impact.ImprovementFactor);
}

} // namespace

int main() {
  auto Workload = workloads::createWorkload("streamcluster");

  std::printf("streamcluster pads work_mem with CACHE_LINE = 32 bytes "
              "(the PARSEC authors' assumption).\n\n");
  profileWithLineSize(*Workload, 32);
  profileWithLineSize(*Workload, 64);
  profileWithLineSize(*Workload, 128);

  // Verify the paper's Table 1 magnitude on the 64-byte geometry.
  driver::SessionConfig Config;
  Config.Workload.Threads = 16;
  Config.Workload.Scale = 4.0;
  Config.Profiler.Pmu.SamplingPeriod = 128;
  driver::SessionResult Unfixed = driver::runWorkload(*Workload, Config);
  driver::SessionConfig Fixed = Config;
  Fixed.Workload.FixFalseSharing = true; // pad to the real line size
  Fixed.EnableProfiler = false;
  driver::SessionResult FixedRun = driver::runWorkload(*Workload, Fixed);
  std::printf("padding to the actual 64-byte line: %.3fx realized "
              "improvement (paper Table 1: ~1.02x)\n",
              static_cast<double>(Unfixed.Run.TotalCycles) /
                  static_cast<double>(FixedRun.Run.TotalCycles));
  std::printf("\nlesson: padding against an assumed line size silently "
              "breaks when hardware changes — measure, don't assume\n");
  return 0;
}
