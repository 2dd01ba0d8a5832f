//===- tests/HistoryReference.h - Whole-store history oracle ----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cheetah-history-v1 store restated the slow way, written only
/// against ReportHistory's public runs() and series(): an encoder that
/// re-encodes every point of every series, and a ledger that classifies a
/// run against the series present in the previous run through
/// matchFindings, as cheetah-diff does for a pair. ReportHistory keeps
/// each series' point text and finds series through a key index instead;
/// its serialize() and appendRun() must agree with these byte for byte
/// and count for count.
///
/// ReportHistoryTest and PropertyTest's HistoryStoreFuzzTest compare the
/// store against it.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_TESTS_HISTORYREFERENCE_H
#define CHEETAH_TESTS_HISTORYREFERENCE_H

#include "core/report/FindingMatch.h"
#include "core/report/ReportHistory.h"
#include "support/Json.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cheetah {
namespace test {

/// \p History as canonical cheetah-history-v1 JSON, every point encoded
/// from its TrendPoint.
inline std::string referenceSerialize(const core::ReportHistory &History) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("schema", "cheetah-history-v1");
  Writer.key("runs");
  Writer.beginArray();
  for (const core::HistoryRunInfo &Run : History.runs()) {
    Writer.beginObject();
    Writer.member("id", Run.Id);
    Writer.member("workload", Run.Workload);
    Writer.member("threads", Run.Threads);
    Writer.member("fix_applied", Run.FixApplied);
    Writer.member("granularity", Run.Granularity);
    Writer.member("source_schema", Run.SourceSchema);
    Writer.member("app_runtime_cycles", Run.AppRuntimeCycles);
    Writer.member("new_findings", Run.NewFindings);
    Writer.member("resolved_findings", Run.ResolvedFindings);
    Writer.member("matched_findings", Run.MatchedFindings);
    Writer.endObject();
  }
  Writer.endArray();
  Writer.key("series");
  Writer.beginArray();
  for (const core::TrendSeries &S : History.series()) {
    Writer.beginObject();
    Writer.member("key", S.Key);
    Writer.member("page", S.IsPage);
    Writer.member("sharing", S.Sharing);
    Writer.key("points");
    Writer.beginArray();
    for (const core::TrendPoint &Point : S.Points) {
      Writer.beginObject();
      Writer.member("run", static_cast<uint64_t>(Point.RunIndex));
      Writer.member("significant", Point.Significant);
      if (Point.HasImprovement)
        Writer.member("predictedImprovement", Point.Improvement);
      Writer.member("accesses", Point.Accesses);
      Writer.member("invalidations", Point.Invalidations);
      if (S.IsPage)
        Writer.member("remote_accesses", Point.RemoteAccesses);
      if (!Point.RemoteByDistance.empty()) {
        Writer.key("remote_by_distance");
        Writer.beginArray();
        for (const RemoteDistanceStats &Bucket : Point.RemoteByDistance) {
          Writer.beginObject();
          Writer.member("distance", Bucket.Distance);
          Writer.member("accesses", Bucket.Accesses);
          Writer.member("cycles", Bucket.Cycles);
          Writer.endObject();
        }
        Writer.endArray();
      }
      Writer.endObject();
    }
    Writer.endArray();
    Writer.endObject();
  }
  Writer.endArray();
  Writer.endObject();
  Out += "\n";
  return Out;
}

/// A run's new, resolved and matched finding counts, in that order.
using LedgerCounts = std::array<uint64_t, 3>;

/// The counts appending \p Run to \p Store should record: the run's
/// findings matched against the series that carry a point at the store's
/// last run.
inline LedgerCounts referenceLedger(const core::ReportHistory &Store,
                                    const core::ParsedReport &Run) {
  std::vector<core::DiffFinding> Previous, New;
  if (!Store.runs().empty()) {
    uint32_t Last = static_cast<uint32_t>(Store.runs().size()) - 1;
    for (const core::TrendSeries &S : Store.series())
      if (S.pointAt(Last)) {
        core::DiffFinding Finding;
        Finding.Key = S.Key;
        Finding.IsPage = S.IsPage;
        Previous.push_back(Finding);
      }
  }
  New.insert(New.end(), Run.Findings.begin(), Run.Findings.end());
  New.insert(New.end(), Run.PageFindings.begin(), Run.PageFindings.end());
  std::vector<core::DiffFinding> Added, Removed;
  std::vector<core::MatchedFinding> Matched;
  core::matchFindings(Previous, New, Added, Removed, Matched);
  return {Added.size(), Removed.size(), Matched.size()};
}

/// \returns the counts \p Info records.
inline LedgerCounts ledgerOf(const core::HistoryRunInfo &Info) {
  return {Info.NewFindings, Info.ResolvedFindings, Info.MatchedFindings};
}

} // namespace test
} // namespace cheetah

#endif // CHEETAH_TESTS_HISTORYREFERENCE_H
