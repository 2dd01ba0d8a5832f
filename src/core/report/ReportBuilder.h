//===- core/report/ReportBuilder.h - Incremental report builder -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental object-level report construction. The PR-1 design aggregated
/// every materialized cache line inside Profiler::finish in one monolithic
/// pass; this builder accepts lines one at a time as they quiesce
/// (addLine), folds each into its owning object's aggregate, and at
/// finalize() assesses every object and streams the findings — highest
/// predicted improvement first — through an optional ReportSink while also
/// returning them as vectors for programmatic consumers.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_REPORTBUILDER_H
#define CHEETAH_CORE_REPORT_REPORTBUILDER_H

#include "core/assess/Assessor.h"
#include "core/detect/GrainInfo.h"
#include "core/detect/SharingClassifier.h"
#include "core/report/Report.h"
#include "core/report/ReportSink.h"
#include "mem/CacheGeometry.h"
#include "runtime/Callsite.h"
#include "runtime/GlobalRegistry.h"
#include "runtime/HeapAllocator.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cheetah {
namespace core {

/// The profiler's significance gate ("Cheetah only reports false sharing
/// instances with a significant performance impact"). False- and
/// mixed-sharing objects are reportable; true sharing never is.
struct ReportGate {
  uint64_t MinInvalidations = 16;
  double MinImprovementFactor = 1.005;
};

/// Streams materialized lines in, findings out.
class ReportBuilder {
public:
  ReportBuilder(const runtime::HeapAllocator &Heap,
                const runtime::GlobalRegistry &Globals,
                const runtime::CallsiteTable &Callsites,
                const CacheGeometry &Geometry, const ReportGate &Gate);
  ~ReportBuilder();

  /// Folds one quiesced line — as the granularity-neutral GrainSnapshot
  /// the detection core emits — into its owning object's aggregate. Lines
  /// may arrive in any order; a line with zero recorded accesses is
  /// skipped.
  void addLine(const GrainSnapshot &Line);

  /// Everything finalize() produces.
  struct Output {
    /// Significant instances, highest predicted improvement first. This is
    /// what Cheetah prints.
    std::vector<FalseSharingReport> Reports;
    /// Every tracked object (including true sharing and insignificant
    /// instances, whose word tables are empty) for tests and ablations,
    /// same order.
    std::vector<FalseSharingReport> AllInstances;
  };

  /// Assesses every aggregated object, applies the gate, sorts by
  /// predicted improvement, and — when \p Sink is non-null — streams each
  /// finding through it (sink order matches AllInstances). beginRun/endRun
  /// remain the caller's responsibility: the caller owns run-level
  /// metadata the builder never sees.
  Output finalize(const Assessor &Assess, uint64_t AppRuntime,
                  ReportSink *Sink = nullptr);

private:
  struct ObjectAggregate;

  ObjectAggregate &aggregateFor(uint64_t LineBase);
  /// The object's finding and whether it passes the gate; only a
  /// significant finding gets a word table.
  std::pair<FalseSharingReport, bool>
  buildReport(const ObjectAggregate &Aggregate, const Assessor &Assess,
              uint64_t AppRuntime) const;

  const runtime::HeapAllocator &Heap;
  const runtime::GlobalRegistry &Globals;
  const runtime::CallsiteTable &Callsites;
  CacheGeometry Geometry;
  ReportGate Gate;
  std::unordered_map<uint64_t, ObjectAggregate> Aggregates;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_REPORTBUILDER_H
