//===- core/detect/PageTable.h - Address-to-page metadata -------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The page-granularity sibling of ShadowMemory: the same generic
/// GrainTable instantiated one level up the hierarchy, with first-touch
/// home tracking enabled — homes are CAS-published once by whichever
/// access touches the page first, serial or parallel, mirroring the OS
/// first-touch placement policy the remote-DRAM story depends on. The
/// homes sit in zero-filled slab mappings like the counters, stored as
/// node + 1, so a page no sample touched reads as NoNode. See
/// GrainTable.h for the shared machinery.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_PAGETABLE_H
#define CHEETAH_CORE_DETECT_PAGETABLE_H

#include "core/detect/GrainTable.h"
#include "core/detect/PageInfo.h"
#include "core/detect/ShadowMemory.h"
#include "mem/CacheGeometry.h"
#include "mem/NumaTopology.h"

namespace cheetah {
namespace core {

/// Flat-array page metadata over a set of monitored regions.
class PageTable : public GrainTable<PageInfo, /*TrackHomes=*/true> {
public:
  /// \p Topology provides the page geometry; \p Geometry the line size used
  /// to index the per-line histogram within each page.
  PageTable(const NumaTopology &Topology, const CacheGeometry &Geometry,
            std::vector<ShadowRegion> Regions)
      : GrainTable(Topology.pageShift(),
                   Topology.pageSize() >> Geometry.lineShift(),
                   std::move(Regions), "empty page-table region",
                   "page-table region must be page-aligned"),
        Topology(Topology), Geometry(Geometry) {
    CHEETAH_ASSERT(Geometry.lineSize() <= Topology.pageSize(),
                   "cache lines must fit inside pages");
  }

  /// First byte address of the page containing \p Address.
  uint64_t pageBase(uint64_t Address) const {
    return Topology.pageBase(Address);
  }

  /// Index of the cache line within \p Address's page.
  uint64_t lineIndexInPage(uint64_t Address) const {
    return Topology.offsetInPage(Address) >> Geometry.lineShift();
  }

  /// Cache lines per page.
  uint64_t linesPerPage() const {
    return Topology.pageSize() >> Geometry.lineShift();
  }

  /// Invokes \p Fn(pageBaseAddress, homeNode, info) for every materialized
  /// page.
  template <typename Function> void forEachPage(Function Fn) const {
    forEachGrain([&Fn](uint64_t Base, NodeId Home, const PageInfo &Info) {
      Fn(Base, Home, Info);
    });
  }

  /// Number of pages with materialized detail (the live bitmap's
  /// population count).
  size_t materializedPages() const { return materializedGrains(); }

  /// Bytes of page-table metadata currently allocated: the flat per-page
  /// arrays plus every materialized PageInfo's exact footprint.
  size_t pageBytes() const { return metadataBytes(); }

private:
  NumaTopology Topology;
  CacheGeometry Geometry;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_PAGETABLE_H
