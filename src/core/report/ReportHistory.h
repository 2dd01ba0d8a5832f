//===- core/report/ReportHistory.h - N-run trend history -------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-scale aggregation layer behind `cheetah-trend`: an ordered
/// sequence of profiler runs folded into one versioned
/// `cheetah-history-v1` store with a per-finding trend series. Where
/// `cheetah-diff` answers "what changed between these two reports?",
/// this layer answers the continuous-profiling questions: which finding
/// is currently worst fleet-wide, which one regressed relative to the
/// best state it ever reached, and exactly which run introduced that
/// regression (binary-searched, git-bisect style).
///
/// Findings are correlated across runs with the same site-identity keys
/// `cheetah-diff` uses (FindingMatch.h): keys survive relayouts, so a
/// series follows "the hot page of `numa_slots`" across weeks of runs,
/// not an address. Runs enter in append order and are immutable once
/// stored; serialization is deterministic (appending the same run
/// sequence twice yields byte-identical stores) and the parser applies
/// the same loud-error contract as the report/diff parsers — version
/// gate, kind-checked fields, duplicate run ids rejected, never a crash
/// on hostile input.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_REPORTHISTORY_H
#define CHEETAH_CORE_REPORT_REPORTHISTORY_H

#include "core/report/ReportDiff.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheetah {
namespace core {

/// Identity and summary of one stored run.
struct HistoryRunInfo {
  /// Caller-chosen unique id ("nightly-2026-08-08", CI build number...).
  std::string Id;
  std::string Workload;
  uint64_t Threads = 0;
  bool FixApplied = false;
  std::string Granularity;
  /// Schema of the ingested document ("cheetah-report-v5",
  /// "cheetah-diff-v1", ...), kept for provenance.
  std::string SourceSchema;
  uint64_t AppRuntimeCycles = 0;
  /// Findings that appeared / disappeared / persisted relative to the
  /// previous stored run (all zero for the first run except NewFindings).
  uint64_t NewFindings = 0;
  uint64_t ResolvedFindings = 0;
  uint64_t MatchedFindings = 0;
};

/// One run's observation of one finding.
struct TrendPoint {
  /// Index into ReportHistory::runs(). Strictly increasing within a
  /// series; runs without a point simply have none (the finding was
  /// absent — i.e. resolved or not yet introduced — in that run).
  uint32_t RunIndex = 0;
  bool Significant = false;
  bool HasImprovement = false;
  double Improvement = 1.0;
  uint64_t Accesses = 0;
  uint64_t Invalidations = 0;
  /// Page findings only.
  uint64_t RemoteAccesses = 0;
  /// Page findings of v4 and later documents only.
  std::vector<RemoteDistanceStats> RemoteByDistance;
};

/// The full observed trajectory of one finding key across the store.
struct TrendSeries {
  std::string Key;
  bool IsPage = false;
  /// Sharing kind from the most recent observation.
  std::string Sharing;
  std::vector<TrendPoint> Points;

  /// \returns the point recorded at \p RunIndex, or nullptr.
  const TrendPoint *pointAt(uint32_t RunIndex) const;

  /// Best (lowest) improvement over runs strictly before \p RunIndex.
  /// A run where the finding was absent counts as 1.0 — being resolved
  /// is the best state a finding can reach — so \p HasBest is false only
  /// when \p RunIndex is 0 (no history at all). Points without an
  /// improvement factor (v2 page findings) are skipped.
  double bestBefore(uint32_t RunIndex, bool &HasBest) const;
};

/// One finding tripping the N-run regression gate.
struct HistoryGateViolation {
  enum class Kind { NewSite, Crossed, Grew };
  std::string Key;
  bool IsPage = false;
  Kind Why = Kind::NewSite;
  double Improvement = 0.0;
  /// Best historical value (see TrendSeries::bestBefore); 1.0 for
  /// new-in-first-run sites (no history).
  double Best = 1.0;
};

/// Outcome of a regression bisection over the stored runs.
struct BisectResult {
  bool Valid = false;
  std::string Error;
  /// Index/id of the run that introduced the regression.
  uint32_t IntroducedIndex = 0;
  std::string IntroducedRunId;
  /// True when even the first stored run was already regressing — the
  /// culprit predates the store and IntroducedIndex is 0 by convention.
  bool BadFromStart = false;
  /// Predicate evaluations the binary search spent (what a real CI
  /// bisection would pay in re-runs).
  uint32_t Probes = 0;
};

/// The history store: runs plus per-finding trend series.
class ReportHistory {
public:
  /// Appends \p Report as the next run under \p RunId. Fails (leaving the
  /// store untouched) on an empty or duplicate run id. Finding keys are
  /// taken as parseReport/parseRunDocument produced them — already
  /// ordinal-disambiguated within the run.
  bool appendRun(const ParsedReport &Report, const std::string &RunId,
                 std::string &Error);

  const std::vector<HistoryRunInfo> &runs() const { return Runs; }
  /// Series in order of first appearance (deterministic).
  const std::vector<TrendSeries> &series() const { return Series; }
  /// \returns the series for \p Key, or nullptr.
  const TrendSeries *seriesFor(const std::string &Key) const;

  /// The N-run generalization of cheetah-diff's --gate: a violation is a
  /// *significant* finding in the LAST stored run whose improvement is at
  /// or above \p Factor and that (a) has no earlier history (new site),
  /// (b) was below the factor at its best historical value (crossed), or
  /// (c) grew beyond that best by more than \p Tolerance. A finding that
  /// has been at a stable factor since the first run never trips — the
  /// gate guards regressions, not known-broken fleets. Ordered
  /// worst-first (by improvement, then key).
  std::vector<HistoryGateViolation> gate(double Factor,
                                         double Tolerance = 1e-9) const;

  /// Binary-searches the stored runs for the one that introduced the
  /// regression of \p Key at \p Factor (the finding present, significant,
  /// and at or above the factor). Requires the last run to be regressing;
  /// mirrors git bisect: with a flapping history it still returns *a*
  /// good-to-bad transition. Invalid keys or a clean last run produce
  /// Valid=false with a descriptive Error.
  BisectResult bisect(const std::string &Key, double Factor) const;

  /// Serializes the store as canonical `cheetah-history-v1` JSON.
  /// Deterministic: equal stores produce identical bytes, and
  /// parse(serialize()) re-serializes byte-identically.
  std::string serialize() const;

  /// Parses a serialized store. Loud-error contract: version gate on
  /// `cheetah-history-v1`, kind-checked fields, duplicate run ids and
  /// out-of-range / non-increasing point indices rejected, leaving \p Out
  /// empty; never crashes on hostile input (the fuzz suite pins that).
  static bool parse(const std::string &Text, ReportHistory &Out,
                    std::string &Error);

private:
  TrendSeries &seriesForAppend(const DiffFinding &Finding);

  std::vector<HistoryRunInfo> Runs;
  std::vector<TrendSeries> Series;
};

/// Parses one ingestible document: a `cheetah-report-v2..v5` report, or a
/// `cheetah-diff-v1` document, whose NEW side is extracted as the run
/// (added findings carry full counters; matched ones only their
/// improvement, the diff schema stores no more). Same loud-error
/// contract as parseReport, and the same single pass: the schema picks
/// the reading after the document has been read once.
bool parseRunDocument(const std::string &Text, ParsedReport &Out,
                      std::string &Error);

/// Renders the fleet-wide trend view `cheetah-trend show` prints: run
/// ledger, the worst current findings ranked by improvement (at most
/// \p Limit, 0 = all), and the biggest current-vs-best deltas.
/// Deterministic and byte-stable for equal stores.
std::string formatHistoryText(const ReportHistory &History,
                              size_t Limit = 0);

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_REPORTHISTORY_H
