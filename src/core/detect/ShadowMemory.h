//===- core/detect/ShadowMemory.h - Address-to-line metadata ----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shadow memory (paper Section 2.2): constant-time mapping from an address
/// to its cache line's metadata via bit shifting, possible because the heap
/// arena and global segment ranges are known up front. A thin line-grain
/// instantiation of the generic GrainTable — see GrainTable.h for the slab
/// layout, the lock-free publication discipline, and the byte budget.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_SHADOWMEMORY_H
#define CHEETAH_CORE_DETECT_SHADOWMEMORY_H

#include "core/detect/CacheLineInfo.h"
#include "core/detect/GrainTable.h"
#include "mem/CacheGeometry.h"

namespace cheetah {
namespace core {

/// Flat-array shadow metadata over a set of monitored regions.
class ShadowMemory : public GrainTable<CacheLineInfo, /*TrackHomes=*/false> {
public:
  ShadowMemory(const CacheGeometry &Geometry, std::vector<ShadowRegion> Regions)
      : GrainTable(Geometry.lineShift(), Geometry.wordsPerLine(),
                   std::move(Regions), "empty shadow region",
                   "shadow region must be line-aligned"),
        Geometry(Geometry) {}

  /// Invokes \p Fn(lineBaseAddress, info) for every materialized line.
  template <typename Function> void forEachDetail(Function Fn) const {
    forEachGrain([&Fn](uint64_t Base, NodeId, const CacheLineInfo &Info) {
      Fn(Base, Info);
    });
  }

  /// Number of lines with materialized detail (the live bitmap's
  /// population count).
  size_t materializedLines() const { return materializedGrains(); }

  /// Bytes of shadow metadata currently allocated: the flat per-line slab
  /// arrays plus the exact footprint of every materialized CacheLineInfo
  /// (word slots and per-thread stats chunks included), so the memory
  /// ablation reports honest numbers.
  size_t shadowBytes() const { return metadataBytes(); }

  const CacheGeometry &geometry() const { return Geometry; }

private:
  CacheGeometry Geometry;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_SHADOWMEMORY_H
