//===- core/report/PageReportBuilder.h - Page finding builder ---*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds per-page NUMA sharing findings from the detection core's common
/// finding source (GrainSnapshot + PageNumaEvidence), the page-granularity
/// mirror of ReportBuilder. Pages stream in one at a time as they quiesce
/// (addPage): each is classified with the unchanged classifySharing
/// (nodes over lines instead of threads over words), attributed to the
/// overlapping heap/global objects, and put through the page gate, which
/// needs no assessment, so only a significant page builds its line table.
/// finalize() assesses every page with the EQ.1–EQ.4 page machinery
/// (no-remote-access AverCycles baseline) and returns the findings,
/// highest predicted improvement first.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_PAGEREPORTBUILDER_H
#define CHEETAH_CORE_REPORT_PAGEREPORTBUILDER_H

#include "core/assess/Assessor.h"
#include "core/detect/PageInfo.h"
#include "core/detect/SharingClassifier.h"
#include "core/report/Report.h"
#include "mem/NumaTopology.h"
#include "runtime/Callsite.h"
#include "runtime/GlobalRegistry.h"
#include "runtime/HeapAllocator.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace core {

/// The significance gate for page findings. A page matters when nodes
/// actually contend on it (cross-node invalidations) or when its placement
/// forces steady remote-DRAM traffic even without sharing. Multi-node pages
/// need at least PageMinInvalidations cross-node invalidations.
constexpr uint64_t PageMinInvalidations = 8;
/// Single-node pages homed elsewhere need at least this many remote sampled
/// accesses to surface as a placement finding.
constexpr uint64_t PageMinRemoteAccesses = 32;

/// Streams materialized pages in, page findings out.
class PageReportBuilder {
public:
  PageReportBuilder(const runtime::HeapAllocator &Heap,
                    const runtime::GlobalRegistry &Globals,
                    const runtime::CallsiteTable &Callsites,
                    const NumaTopology &Topology,
                    const CacheGeometry &Geometry);

  /// Folds one quiesced page in — the granularity-neutral GrainSnapshot
  /// the detection core emits (per-line buckets, per-thread stats) plus
  /// the page-grain NUMA evidence alongside it. Pages with zero recorded
  /// accesses are skipped.
  void addPage(const GrainSnapshot &Page, NodeId Home,
               const PageNumaEvidence &Numa);

  /// Run-wide local (home-node) sample totals over every added page: the
  /// fallback EQ.1 baseline for pages with no local population of their
  /// own. Feed these to Assessor::setLocalLatencyTotals before finalize().
  uint64_t localAccesses() const { return LocalAccesses; }
  uint64_t localCycles() const { return LocalCycles; }

  /// Assesses every page (EQ.1–EQ.4 with the no-remote baseline).
  /// \returns one finding per tracked page, insignificant ones included
  /// (their line tables are empty), highest predicted improvement first.
  std::vector<PageSharingReport> finalize(const Assessor &Assess,
                                          uint64_t AppRuntime);

private:
  /// A report waiting for finalize(), with the per-thread evidence its
  /// assessment needs.
  struct PendingPage {
    PageSharingReport Report;
    ObjectAccessProfile Profile;
  };

  PendingPage buildReport(const GrainSnapshot &Page, NodeId Home,
                          const PageNumaEvidence &Numa) const;

  const runtime::HeapAllocator &Heap;
  const runtime::GlobalRegistry &Globals;
  const runtime::CallsiteTable &Callsites;
  NumaTopology Topology;
  CacheGeometry Geometry;
  std::vector<PendingPage> Pending;
  uint64_t LocalAccesses = 0;
  uint64_t LocalCycles = 0;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_PAGEREPORTBUILDER_H
