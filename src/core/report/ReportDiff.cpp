//===- core/report/ReportDiff.cpp - Multi-run report comparison -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/report/ReportDiff.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::core;

namespace {

// The identity/matching layer (disambiguateKeys, matchFindings,
// improvementString) lives in FindingMatch.h, shared with ReportHistory;
// parseReport's single-pass decoder in ReportDecode.cpp.

void writeDiffFinding(JsonWriter &Writer, const DiffFinding &Finding) {
  Writer.beginObject();
  Writer.member("key", Finding.Key);
  Writer.member("page", Finding.IsPage);
  Writer.member("sharing", Finding.Sharing);
  Writer.member("significant", Finding.Significant);
  if (Finding.HasImprovement)
    Writer.member("predictedImprovement", Finding.Improvement);
  Writer.member("accesses", Finding.Accesses);
  Writer.member("invalidations", Finding.Invalidations);
  if (Finding.IsPage)
    Writer.member("remote_accesses", Finding.RemoteAccesses);
  if (!Finding.RemoteByDistance.empty()) {
    Writer.key("remote_by_distance");
    Writer.beginArray();
    for (const RemoteDistanceStats &Bucket : Finding.RemoteByDistance) {
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

void writeDiffSection(JsonWriter &Writer,
                      const std::vector<DiffFinding> &Added,
                      const std::vector<DiffFinding> &Removed,
                      const std::vector<MatchedFinding> &Matched) {
  Writer.beginObject();
  Writer.key("added");
  Writer.beginArray();
  for (const DiffFinding &Finding : Added)
    writeDiffFinding(Writer, Finding);
  Writer.endArray();
  Writer.key("removed");
  Writer.beginArray();
  for (const DiffFinding &Finding : Removed)
    writeDiffFinding(Writer, Finding);
  Writer.endArray();
  Writer.key("matched");
  Writer.beginArray();
  for (const MatchedFinding &Pair : Matched) {
    Writer.beginObject();
    Writer.member("key", Pair.New.Key);
    Writer.member("old_significant", Pair.Old.Significant);
    Writer.member("new_significant", Pair.New.Significant);
    if (Pair.Old.HasImprovement)
      Writer.member("old_improvement", Pair.Old.Improvement);
    if (Pair.New.HasImprovement)
      Writer.member("new_improvement", Pair.New.Improvement);
    if (Pair.Old.HasImprovement && Pair.New.HasImprovement)
      Writer.member("delta", Pair.improvementDelta());
    Writer.endObject();
  }
  Writer.endArray();
  Writer.endObject();
}

void appendTextSection(std::string &Out, const char *Title,
                       const std::vector<DiffFinding> &Added,
                       const std::vector<DiffFinding> &Removed,
                       const std::vector<MatchedFinding> &Matched) {
  Out += formatString("== %s: %zu added, %zu removed, %zu matched ==\n",
                      Title, Added.size(), Removed.size(), Matched.size());
  for (const DiffFinding &Finding : Added)
    Out += formatString("  added    %s  %s  improvement %s\n",
                        Finding.Key.c_str(), Finding.Sharing.c_str(),
                        improvementString(Finding).c_str());
  for (const DiffFinding &Finding : Removed)
    Out += formatString("  removed  %s  %s  improvement %s\n",
                        Finding.Key.c_str(), Finding.Sharing.c_str(),
                        improvementString(Finding).c_str());
  for (const MatchedFinding &Pair : Matched) {
    std::string Delta =
        Pair.Old.HasImprovement && Pair.New.HasImprovement
            ? formatString(" (%+.4f)", Pair.improvementDelta())
            : std::string();
    Out += formatString("  matched  %s  improvement %s -> %s%s\n",
                        Pair.New.Key.c_str(),
                        improvementString(Pair.Old).c_str(),
                        improvementString(Pair.New).c_str(), Delta.c_str());
  }
}

} // namespace

ReportDiffResult cheetah::core::diffReports(const ParsedReport &Old,
                                            const ParsedReport &New) {
  ReportDiffResult Result;
  Result.Old = Old;
  Result.New = New;
  matchFindings(Old.Findings, New.Findings, Result.Added, Result.Removed,
                Result.Matched);
  matchFindings(Old.PageFindings, New.PageFindings, Result.PageAdded,
                Result.PageRemoved, Result.PageMatched);
  return Result;
}

std::vector<GateViolation>
cheetah::core::gateRegressions(const ReportDiffResult &Diff, double Factor,
                               double Tolerance) {
  std::vector<GateViolation> Violations;
  auto Check = [&](const std::vector<DiffFinding> &Added,
                   const std::vector<MatchedFinding> &Matched) {
    for (const DiffFinding &Finding : Added) {
      if (!Finding.Significant || !Finding.HasImprovement ||
          Finding.Improvement < Factor)
        continue;
      Violations.push_back({Finding, 0.0, /*NewSite=*/true});
    }
    for (const MatchedFinding &Pair : Matched) {
      const DiffFinding &New = Pair.New;
      if (!New.Significant || !New.HasImprovement ||
          New.Improvement < Factor)
        continue;
      // An old finding without an improvement factor (a v2 page finding)
      // is skipped entirely: a v2-baseline vs v3 comparison must not
      // flag pre-existing findings as having "crossed" the gate.
      if (!Pair.Old.HasImprovement)
        continue;
      bool CrossedGate = Pair.Old.Improvement < Factor;
      bool Grew = New.Improvement > Pair.Old.Improvement + Tolerance;
      if (CrossedGate || Grew)
        Violations.push_back({New, Pair.Old.Improvement,
                              /*NewSite=*/false});
    }
  };
  Check(Diff.Added, Diff.Matched);
  Check(Diff.PageAdded, Diff.PageMatched);
  return Violations;
}

std::string cheetah::core::formatDiffText(const ReportDiffResult &Diff,
                                          double GateFactor) {
  std::string Out;
  Out += formatString(
      "cheetah-diff: %s (%llu threads, fix %s) -> %s (%llu threads, "
      "fix %s)\n",
      Diff.Old.Workload.c_str(),
      static_cast<unsigned long long>(Diff.Old.Threads),
      Diff.Old.FixApplied ? "on" : "off", Diff.New.Workload.c_str(),
      static_cast<unsigned long long>(Diff.New.Threads),
      Diff.New.FixApplied ? "on" : "off");
  Out += formatString("schema %s -> %s, runtime %llu -> %llu cycles\n",
                      Diff.Old.Schema.c_str(), Diff.New.Schema.c_str(),
                      static_cast<unsigned long long>(
                          Diff.Old.AppRuntimeCycles),
                      static_cast<unsigned long long>(
                          Diff.New.AppRuntimeCycles));
  appendTextSection(Out, "line findings", Diff.Added, Diff.Removed,
                    Diff.Matched);
  appendTextSection(Out, "page findings", Diff.PageAdded, Diff.PageRemoved,
                    Diff.PageMatched);

  if (GateFactor > 0.0) {
    std::vector<GateViolation> Violations =
        gateRegressions(Diff, GateFactor);
    Out += formatString("== gate: factor %.4f ==\n", GateFactor);
    for (const GateViolation &Violation : Violations)
      Out += formatString(
          "  REGRESSION %s  %s  improvement %s (was %s)\n",
          Violation.NewSite ? "new-site" : "regressed",
          Violation.Finding.Key.c_str(),
          improvementString(Violation.Finding).c_str(),
          Violation.NewSite
              ? "absent"
              : formatString("%.4fx", Violation.OldImprovement).c_str());
    Out += formatString("gate verdict: %zu regression(s)\n",
                        Violations.size());
  }
  return Out;
}

std::string cheetah::core::formatDiffJson(const ReportDiffResult &Diff,
                                          double GateFactor) {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("schema", "cheetah-diff-v1");
  auto WriteRun = [&](const char *Name, const ParsedReport &Run) {
    Writer.key(Name);
    Writer.beginObject();
    Writer.member("schema", Run.Schema);
    Writer.member("workload", Run.Workload);
    Writer.member("threads", Run.Threads);
    Writer.member("fix_applied", Run.FixApplied);
    Writer.member("granularity", Run.Granularity);
    Writer.member("app_runtime_cycles", Run.AppRuntimeCycles);
    Writer.member("findings", static_cast<uint64_t>(Run.Findings.size()));
    Writer.member("page_findings",
                  static_cast<uint64_t>(Run.PageFindings.size()));
    Writer.endObject();
  };
  WriteRun("old", Diff.Old);
  WriteRun("new", Diff.New);

  Writer.key("findings");
  writeDiffSection(Writer, Diff.Added, Diff.Removed, Diff.Matched);
  Writer.key("pageFindings");
  writeDiffSection(Writer, Diff.PageAdded, Diff.PageRemoved,
                   Diff.PageMatched);

  if (GateFactor > 0.0) {
    std::vector<GateViolation> Violations =
        gateRegressions(Diff, GateFactor);
    Writer.key("gate");
    Writer.beginObject();
    Writer.member("factor", GateFactor);
    Writer.key("violations");
    Writer.beginArray();
    for (const GateViolation &Violation : Violations) {
      Writer.beginObject();
      Writer.member("key", Violation.Finding.Key);
      Writer.member("kind", Violation.NewSite ? "new-site" : "regressed");
      Writer.member("new_improvement", Violation.Finding.Improvement);
      if (!Violation.NewSite)
        Writer.member("old_improvement", Violation.OldImprovement);
      Writer.endObject();
    }
    Writer.endArray();
    Writer.member("regressions",
                  static_cast<uint64_t>(Violations.size()));
    Writer.endObject();
  }
  Writer.endObject();
  Out += "\n";
  return Out;
}
