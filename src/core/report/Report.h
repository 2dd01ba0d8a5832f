//===- core/report/Report.h - False sharing reports -------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "FS report" module of Figure 2: structured per-object findings and a
/// text formatter that mirrors the paper's Figure 5 output, including the
/// heap-callsite / global-symbol identification and the word-level access
/// breakdown programmers use to decide how to pad.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_REPORT_H
#define CHEETAH_CORE_REPORT_REPORT_H

#include "core/assess/Assessor.h"
#include "core/detect/SharingClassifier.h"
#include "mem/NumaTopology.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cheetah {
namespace core {

/// Rows kept in each significant finding's word or line table. The
/// hottest words are what a programmer pads around (the paper's Figure 5
/// lists a handful), so the builders cut every table to this many and the
/// text formatter lists this many by default.
constexpr size_t ReportTableRows = 16;

/// The order of word and line tables: access count descending, then
/// offset ascending, so the rows a cut keeps never depend on how a sort
/// breaks ties.
template <typename Entry> bool hotterFirst(const Entry &A, const Entry &B) {
  uint64_t CountA = A.Reads + A.Writes, CountB = B.Reads + B.Writes;
  return CountA != CountB ? CountA > CountB : A.Offset < B.Offset;
}

/// Identity of a reported object.
struct ReportedObject {
  /// Heap object (reported by callsite) or global (reported by name).
  bool IsHeap = true;
  /// Global symbol name; empty for heap objects.
  std::string GlobalName;
  /// Allocation call stack, innermost first ("file.c:139").
  std::vector<std::string> CallsiteFrames;
  uint64_t Start = 0;
  uint64_t Size = 0;
  /// Size the program requested (heap objects; 0 when unknown).
  uint64_t RequestedSize = 0;
  /// Thread that allocated the object.
  ThreadId AllocatedBy = 0;

  uint64_t end() const { return Start + Size; }
};

/// One word of the per-word breakdown.
struct WordReportEntry {
  /// Byte offset of the word from the object start.
  uint64_t Offset = 0;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  ThreadId FirstThread = 0;
  bool MultiThread = false;
};

/// A full per-object finding.
struct FalseSharingReport {
  ReportedObject Object;
  SharingKind Kind = SharingKind::FalseSharing;
  /// Number of this object's cache lines with detailed tracking.
  uint32_t LinesTracked = 0;
  uint64_t SampledAccesses = 0;
  uint64_t SampledWrites = 0;
  uint64_t Invalidations = 0;
  uint64_t LatencyCycles = 0;
  uint32_t ThreadsObserved = 0;
  /// Fraction of accesses on words shared by multiple threads.
  double SharedWordFraction = 0.0;
  Assessment Impact;
  /// The ReportTableRows hottest words, in hotterFirst order, for padding
  /// guidance; empty when the finding failed the report gate.
  std::vector<WordReportEntry> Words;
  /// Touched words before the cut, so at least Words.size().
  uint64_t WordsTotal = 0;
};

/// One cache line of a page's per-line breakdown (the page-granularity
/// analogue of WordReportEntry, with NUMA nodes as the actors).
struct PageLineEntry {
  /// Byte offset of the line from the page start.
  uint64_t Offset = 0;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  NodeId FirstNode = 0;
  bool MultiNode = false;
};

/// A full per-page NUMA sharing finding. Kind reuses the line vocabulary at
/// page granularity: FalseSharing = nodes touch disjoint lines of the page
/// (fixable by page-aligned / node-local placement), TrueSharing = nodes
/// touch the same lines, NotShared = one node — which still surfaces as a
/// finding when the accesses are remote (a first-touch placement problem).
struct PageSharingReport {
  uint64_t PageBase = 0;
  uint64_t PageSize = 0;
  /// First-touch home node of the page (NoNode if somehow untouched).
  NodeId HomeNode = 0;
  uint32_t NodesObserved = 0;
  SharingKind Kind = SharingKind::NotShared;
  uint64_t SampledAccesses = 0;
  uint64_t SampledWrites = 0;
  /// Accesses issued from a node other than the home (remote-DRAM traffic).
  uint64_t RemoteAccesses = 0;
  uint64_t Invalidations = 0; // cross-node invalidations
  uint64_t LatencyCycles = 0;
  uint64_t RemoteLatencyCycles = 0;
  /// Remote traffic bucketed by the node-pair distance it crossed, sorted
  /// by distance (the v4 schema's remoteByDistance breakdown). Bucket
  /// accesses sum to RemoteAccesses, cycles to RemoteLatencyCycles.
  std::vector<RemoteDistanceStats> RemoteByDistance;
  /// Fraction of accesses on lines shared by multiple nodes.
  double SharedLineFraction = 0.0;
  /// EQ.1–EQ.4 at page granularity: the predicted whole-program speedup
  /// from fixing the placement/sharing of this page's *site* — every page
  /// overlapping the same objects, since a placement fix moves them all
  /// (ImprovementFactor >= 1 by the page-assessment contract; == 1 when
  /// nothing is removable).
  Assessment Impact;
  /// Names of the objects overlapping the page (heap callsites / globals).
  std::vector<std::string> Objects;
  /// The ReportTableRows hottest lines, in hotterFirst order, for placement
  /// guidance; empty when the finding failed the page gate.
  std::vector<PageLineEntry> Lines;
  /// Touched lines before the cut, so at least Lines.size().
  uint64_t LinesTotal = 0;

  double remoteFraction() const {
    return SampledAccesses ? static_cast<double>(RemoteAccesses) /
                                 static_cast<double>(SampledAccesses)
                           : 0.0;
  }
};

/// Formatting options for the text report.
struct ReportFormatOptions {
  /// Maximum words (or lines) listed, hottest first; 0 = every kept row.
  size_t MaxWords = ReportTableRows;
  /// Mirror the paper's hexadecimal counters (Figure 5 prints
  /// "invalidations 27f ... totalThreadsAccesses 12e1").
  bool HexCounters = false;
};

/// Renders one report in the paper's Figure 5 style.
std::string formatReport(const FalseSharingReport &Report,
                         const ReportFormatOptions &Options = {});

/// Renders a one-line-per-object summary table for a set of reports.
std::string formatSummaryTable(const std::vector<FalseSharingReport> &Reports);

/// Renders one page-granularity finding in the same style.
std::string formatPageReport(const PageSharingReport &Report,
                             const ReportFormatOptions &Options = {});

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_REPORT_H
