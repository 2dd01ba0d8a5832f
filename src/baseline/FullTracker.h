//===- baseline/FullTracker.h - Predator-style full tracking ---*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Predator-style instrumentation baseline (paper Section 6.1): instead of
/// sampling, *every* memory access is analyzed. It reuses Cheetah's
/// detection machinery with two deliberate differences that mirror the
/// real Predator:
///   - no sampling: each access pays an instrumentation cost, which is why
///     such tools run ~5-6x slower (the fig4/ablation contrast);
///   - no parallel-phase gating: objects initialized by the main thread and
///     then read by children are (wrongly) seen as shared, the false
///     positive mode Cheetah's phase gating removes (Section 2.4).
///
/// It finds strictly more instances (it never misses for lack of samples),
/// which the sampling-recall ablation quantifies.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_BASELINE_FULLTRACKER_H
#define CHEETAH_BASELINE_FULLTRACKER_H

#include "core/detect/Detector.h"
#include "core/detect/SharingClassifier.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cheetah {
namespace baseline {

/// Cycles charged per instrumented access (shadow lookup + metadata update
/// on every load/store).
inline constexpr uint64_t PerAccessCycles = 60;

/// One detected shared line from the full tracker.
struct FullTrackerFinding {
  uint64_t LineBase = 0;
  core::SharingKind Kind = core::SharingKind::NotShared;
  uint64_t Invalidations = 0;
  uint64_t Accesses = 0;
  uint32_t Threads = 0;
};

/// Every-access detection observer.
class FullTracker : public sim::SimObserver {
public:
  FullTracker(const CacheGeometry &Geometry,
              std::vector<core::ShadowRegion> Regions);

  /// Per-line findings with at least one invalidation, sorted by
  /// invalidation count (highest first).
  std::vector<FullTrackerFinding> findings();

  /// Total accesses instrumented.
  uint64_t accessesInstrumented() const { return Accesses; }

  /// Total invalidations counted.
  uint64_t invalidations() const { return Detect.stats().Invalidations; }

  const core::ShadowMemory &shadow() const { return Shadow; }

  // SimObserver implementation.
  uint64_t onMemoryAccess(ThreadId Tid, const MemoryAccess &Access,
                          const sim::CoherenceResult &Result,
                          uint64_t Now) override;

private:
  CacheGeometry Geometry;
  core::ShadowMemory Shadow;
  core::Detector Detect;
  uint64_t Accesses = 0;
};

} // namespace baseline
} // namespace cheetah

#endif // CHEETAH_BASELINE_FULLTRACKER_H
