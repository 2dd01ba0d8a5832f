//===- baseline/FullTracker.cpp - Predator-style full tracking ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baseline/FullTracker.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::baseline;

FullTracker::FullTracker(const CacheGeometry &Geometry,
                         std::vector<core::ShadowRegion> Regions)
    : Geometry(Geometry), Shadow(Geometry, std::move(Regions)),
      // Cheetah's own susceptibility threshold, for a fair comparison.
      Detect(Geometry, Shadow, core::DetectorConfig()) {}

uint64_t FullTracker::onMemoryAccess(ThreadId Tid, const MemoryAccess &Access,
                                     const sim::CoherenceResult &Result,
                                     uint64_t Now) {
  ++Accesses;
  pmu::Sample Sample;
  Sample.Address = Access.Address;
  Sample.Tid = Tid;
  Sample.IsWrite = Access.isWrite();
  Sample.LatencyCycles = static_cast<uint32_t>(Result.LatencyCycles);
  Sample.Timestamp = Now;
  // Predator-like tools analyze every access with no phase awareness, so
  // every access counts as parallel. The access width changes from one
  // access to the next, so each is its own batch.
  Detect.handleBatch(&Sample, 1, /*InParallelPhase=*/true, Access.Size);
  return PerAccessCycles;
}

std::vector<FullTrackerFinding>
FullTracker::findings() {
  std::vector<FullTrackerFinding> Findings;
  Shadow.forEachDetail(
      [&](uint64_t LineBase, const core::CacheLineInfo &Info) {
        if (Info.invalidations() == 0)
          return;
        core::LineClassification Verdict = core::classifySharing(Info);
        FullTrackerFinding Finding;
        Finding.LineBase = LineBase;
        Finding.Kind = Verdict.Kind;
        Finding.Invalidations = Info.invalidations();
        Finding.Accesses = Info.accesses();
        Finding.Threads = Verdict.Threads;
        Findings.push_back(Finding);
      });
  std::sort(Findings.begin(), Findings.end(),
            [](const FullTrackerFinding &A, const FullTrackerFinding &B) {
              return A.Invalidations > B.Invalidations;
            });
  return Findings;
}
