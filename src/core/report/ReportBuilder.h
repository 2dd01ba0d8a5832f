//===- core/report/ReportBuilder.h - Incremental report builder -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental object-level report construction. The builder accepts lines
/// one at a time as they quiesce (addLine), folds each into its owning
/// object's aggregate, and at finalize() assesses and gates every object
/// and returns the findings, highest predicted improvement first, each
/// carrying its own significance.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_REPORTBUILDER_H
#define CHEETAH_CORE_REPORT_REPORTBUILDER_H

#include "core/assess/Assessor.h"
#include "core/detect/GrainInfo.h"
#include "core/detect/SharingClassifier.h"
#include "core/report/Report.h"
#include "mem/CacheGeometry.h"
#include "runtime/Callsite.h"
#include "runtime/GlobalRegistry.h"
#include "runtime/HeapAllocator.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cheetah {
namespace core {

/// The line gate ("Cheetah only reports false sharing instances with a
/// significant performance impact"): a false- or mixed-sharing object is
/// significant when its lines count at least LineMinInvalidations
/// invalidations and its predicted improvement (EQ.4) reaches
/// LineMinImprovementFactor. True sharing never is.
constexpr uint64_t LineMinInvalidations = 16;
constexpr double LineMinImprovementFactor = 1.005;

/// Streams materialized lines in, findings out.
class ReportBuilder {
public:
  ReportBuilder(const runtime::HeapAllocator &Heap,
                const runtime::GlobalRegistry &Globals,
                const runtime::CallsiteTable &Callsites,
                const CacheGeometry &Geometry);
  ~ReportBuilder();

  /// Folds one quiesced line — as the granularity-neutral GrainSnapshot
  /// the detection core emits — into its owning object's aggregate. Lines
  /// may arrive in any order; a line with zero recorded accesses is
  /// skipped.
  void addLine(const GrainSnapshot &Line);

  /// Assesses and gates every aggregated object. \returns one finding per
  /// object, true sharing and insignificant ones included (their word
  /// tables are empty), highest predicted improvement first.
  std::vector<FalseSharingReport> finalize(const Assessor &Assess,
                                           uint64_t AppRuntime);

private:
  struct ObjectAggregate;

  ObjectAggregate &aggregateFor(uint64_t LineBase);
  /// The object's finding; only a significant one gets a word table.
  FalseSharingReport buildReport(const ObjectAggregate &Aggregate,
                                 const Assessor &Assess,
                                 uint64_t AppRuntime) const;

  const runtime::HeapAllocator &Heap;
  const runtime::GlobalRegistry &Globals;
  const runtime::CallsiteTable &Callsites;
  CacheGeometry Geometry;
  std::unordered_map<uint64_t, ObjectAggregate> Aggregates;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_REPORTBUILDER_H
