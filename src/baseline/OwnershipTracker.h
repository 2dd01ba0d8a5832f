//===- baseline/OwnershipTracker.h - Zhao-style ownership bits -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ownership-based invalidation tracker of Zhao et al. (VEE'11) that
/// motivates Cheetah's two-entry table (paper Section 2.3): each cache line
/// keeps one ownership bit per thread; a write by a thread while any other
/// thread's bit is set counts as an invalidation and resets ownership to the
/// writer. Functionally it counts the same invalidations; its problem is
/// memory — one bit per thread per line — which "cannot easily scale to more
/// than 32 threads". The ablation benchmark quantifies exactly that.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_BASELINE_OWNERSHIPTRACKER_H
#define CHEETAH_BASELINE_OWNERSHIPTRACKER_H

#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cheetah {
namespace baseline {

/// Per-line thread-ownership bitmaps with Zhao's invalidation rule.
class OwnershipTracker {
public:
  /// \param Geometry cache geometry for line indexing.
  /// \param MaxThreads capacity of each per-line bitmap.
  OwnershipTracker(const CacheGeometry &Geometry, uint32_t MaxThreads)
      : Geometry(Geometry), MaxThreads(MaxThreads),
        WordsPerLine((MaxThreads + 63) / 64) {}

  /// Records one access.
  /// \returns true if it incurred a cache invalidation.
  bool recordAccess(uint64_t Address, ThreadId Tid, AccessKind Kind);

  /// Total invalidations counted.
  uint64_t invalidations() const { return Invalidations; }

  /// Bytes of ownership metadata per tracked line (the scalability metric
  /// of the ablation; compare with the two-entry table's constant size).
  size_t bytesPerLine() const { return WordsPerLine * sizeof(uint64_t); }

private:
  /// The ownership bitmap of the line containing \p Address.
  std::vector<uint64_t> &bitsFor(uint64_t Address);

  CacheGeometry Geometry;
  uint32_t MaxThreads;
  size_t WordsPerLine;
  /// Line index -> one ownership bit per thread.
  std::unordered_map<uint64_t, std::vector<uint64_t>> Lines;
  uint64_t Invalidations = 0;
};

} // namespace baseline
} // namespace cheetah

#endif // CHEETAH_BASELINE_OWNERSHIPTRACKER_H
