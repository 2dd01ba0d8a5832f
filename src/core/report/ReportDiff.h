//===- core/report/ReportDiff.h - Multi-run report comparison --*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Comparison tooling over serialized `cheetah-report-v2` to `v5` JSON
/// documents, the library behind the `cheetah-diff` CLI: parse two runs'
/// reports back (failing loudly on v1 or unknown schemas — never
/// crashing on hostile input), match findings across the runs by
/// site/page identity, classify them as added/removed/matched, and apply
/// a regression gate over predicted-improvement factors for CI
/// ("fail the build when a fixable finding at or above this factor
/// appeared or got worse").
///
/// The identity scheme (site keys, "#N" ordinals, matching) lives in
/// FindingMatch.h — it is shared with the N-run history layer behind
/// `cheetah-trend` (ReportHistory.h).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_REPORTDIFF_H
#define CHEETAH_CORE_REPORT_REPORTDIFF_H

#include "core/report/FindingMatch.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheetah {
namespace core {

/// A parsed report document, reduced to run identity plus findings.
struct ParsedReport {
  std::string Schema;
  std::string Workload;
  uint64_t Threads = 0;
  bool FixApplied = false;
  std::string Granularity;
  uint64_t AppRuntimeCycles = 0;
  std::vector<DiffFinding> Findings;
  std::vector<DiffFinding> PageFindings;
};

/// Parses a serialized cheetah report into \p Out. Accepts schemas
/// `cheetah-report-v2`, `cheetah-report-v3`, `cheetah-report-v4`, and
/// `cheetah-report-v5` only; anything else — including v1, whose
/// consumers this version-gating contract exists for — fails with a
/// descriptive \p Error. Malformed JSON, wrong value kinds, and missing
/// required fields also fail loudly, leaving \p Out empty; this function
/// never crashes on hostile input (the fuzz suite pins that). The document
/// is read in one pass, with no tree (ReportDecode.cpp).
bool parseReport(const std::string &Text, ParsedReport &Out,
                 std::string &Error);

/// Outcome of comparing two runs.
struct ReportDiffResult {
  ParsedReport Old;
  ParsedReport New;
  /// Line-granularity findings only in the new / only in the old run /
  /// in both.
  std::vector<DiffFinding> Added;
  std::vector<DiffFinding> Removed;
  std::vector<MatchedFinding> Matched;
  /// Page-granularity findings, same classification.
  std::vector<DiffFinding> PageAdded;
  std::vector<DiffFinding> PageRemoved;
  std::vector<MatchedFinding> PageMatched;
};

/// Matches the two runs' findings by key at both granularities.
ReportDiffResult diffReports(const ParsedReport &Old,
                             const ParsedReport &New);

/// One finding that trips the regression gate.
struct GateViolation {
  DiffFinding Finding;
  /// The old run's improvement for the same key; 0 when the site is new.
  double OldImprovement = 0.0;
  bool NewSite = false;
};

/// The CI regression gate: a violation is a *significant* finding in the
/// NEW run whose predicted improvement is at or above \p Factor and that
/// (a) has no counterpart in the old run, (b) was below the factor in the
/// old run, or (c) grew beyond \p Tolerance. Pre-existing findings at a
/// stable factor do not trip the gate — it guards against regressions,
/// not against profiling a known-broken workload. Findings without an
/// improvement factor (v2 page findings) are skipped.
std::vector<GateViolation> gateRegressions(const ReportDiffResult &Diff,
                                           double Factor,
                                           double Tolerance = 1e-9);

/// Renders the diff (and, when \p GateFactor > 0, the gate verdict) as a
/// deterministic human-readable text block. Byte-stable for identical
/// inputs — the golden tests pin it.
std::string formatDiffText(const ReportDiffResult &Diff,
                           double GateFactor = 0.0);

/// Renders the diff as a stable machine-readable `cheetah-diff-v1` JSON
/// document (same determinism contract as the report schema itself).
std::string formatDiffJson(const ReportDiffResult &Diff,
                           double GateFactor = 0.0);

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_REPORTDIFF_H
