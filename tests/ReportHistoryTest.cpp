//===- tests/ReportHistoryTest.cpp - trend history / bisect tests ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The N-run aggregation layer behind `cheetah-trend`: run-ledger
/// bookkeeping through the shared finding matcher, deterministic
/// byte-stable serialization of the cheetah-history-v1 store (the
/// goldens CI anchors on), the N-run generalization of the regression
/// gate, git-bisect-style regression bisection, cheetah-diff-v1
/// ingestion, and the parser's loud-error contract.
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportHistory.h"
#include "core/report/ReportSink.h"
#include "driver/ProfileSession.h"
#include "mem/NumaTopology.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::core;

namespace {

//===----------------------------------------------------------------------===//
// Synthetic runs through the production sink
//===----------------------------------------------------------------------===//

FalseSharingReport syntheticLineFinding(const std::string &Name,
                                        double Improvement) {
  FalseSharingReport Report;
  Report.Object.IsHeap = false;
  Report.Object.GlobalName = Name;
  Report.Object.Start = 0x10000000;
  Report.Object.Size = 256;
  Report.Kind = SharingKind::FalseSharing;
  Report.SampledAccesses = 1000;
  Report.SampledWrites = 400;
  Report.Invalidations = 123;
  Report.LatencyCycles = 50000;
  Report.ThreadsObserved = 4;
  Report.Impact.ImprovementFactor = Improvement;
  return Report;
}

PageSharingReport syntheticPageFinding(const std::string &Object,
                                       uint64_t PageBase,
                                       double Improvement) {
  PageSharingReport Report;
  Report.PageBase = PageBase;
  Report.PageSize = 4096;
  Report.HomeNode = 0;
  Report.NodesObserved = 2;
  Report.Kind = SharingKind::FalseSharing;
  Report.SampledAccesses = 2000;
  Report.SampledWrites = 900;
  Report.RemoteAccesses = 800;
  Report.Invalidations = 77;
  Report.LatencyCycles = 60000;
  Report.RemoteLatencyCycles = 30000;
  Report.Impact.ImprovementFactor = Improvement;
  Report.Objects.push_back(Object);
  return Report;
}

std::string renderDocument(
    const std::vector<std::pair<FalseSharingReport, bool>> &Findings,
    const std::vector<std::pair<PageSharingReport, bool>> &Pages,
    bool FixApplied = false) {
  std::string Out;
  JsonReportSink Sink(Out);
  ReportRunInfo Info;
  Info.Tool = "cheetah";
  Info.Workload = "synthetic";
  Info.Threads = 4;
  Info.FixApplied = FixApplied;
  Info.Granularity = "both";
  Sink.beginRun(Info);
  for (const auto &[Report, Significant] : Findings)
    Sink.finding(Report, Significant);
  for (const auto &[Report, Significant] : Pages)
    Sink.pageFinding(Report, Significant);
  ReportRunStats Stats;
  Stats.AppRuntime = 1000000;
  Stats.Findings = Findings.size();
  Stats.PageFindings = Pages.size();
  Sink.endRun(Stats);
  return Out;
}

ParsedReport mustParse(const std::string &Text) {
  ParsedReport Report;
  std::string Error;
  EXPECT_TRUE(parseRunDocument(Text, Report, Error)) << Error;
  return Report;
}

/// A page-granularity run with one "blocks" finding at \p Improvement,
/// or a clean (fixed) run when \p Improvement is 0.
std::string pageRun(double Improvement) {
  if (Improvement == 0.0)
    return renderDocument({}, {}, /*FixApplied=*/true);
  return renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, Improvement), true}});
}

void mustAppend(ReportHistory &History, const std::string &Document,
                const std::string &RunId) {
  std::string Error;
  ASSERT_TRUE(History.appendRun(mustParse(Document), RunId, Error)) << Error;
}

/// The CI shape: improvements per run, "run-<I>" ids.
ReportHistory storeOf(const std::vector<double> &Improvements) {
  ReportHistory History;
  for (size_t I = 0; I < Improvements.size(); ++I)
    mustAppend(History, pageRun(Improvements[I]), "run-" + std::to_string(I));
  return History;
}

//===----------------------------------------------------------------------===//
// Append: ledger counts, identity, atomic failure
//===----------------------------------------------------------------------===//

TEST(ReportHistoryAppendTest, LedgerCountsNewResolvedMatched) {
  ReportHistory History;
  mustAppend(History,
             renderDocument(
                 {{syntheticLineFinding("hot_global", 1.7), true}},
                 {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}),
             "broken");
  mustAppend(History, renderDocument({}, {}, true), "fixed");
  mustAppend(History,
             renderDocument(
                 {{syntheticLineFinding("hot_global", 1.6), true}},
                 {{syntheticPageFinding("blocks", 0x2000, 1.8), true}}),
             "regressed");

  ASSERT_EQ(History.runs().size(), 3u);
  EXPECT_EQ(History.runs()[0].NewFindings, 2u);
  EXPECT_EQ(History.runs()[0].ResolvedFindings, 0u);
  EXPECT_EQ(History.runs()[1].NewFindings, 0u);
  EXPECT_EQ(History.runs()[1].ResolvedFindings, 2u);
  EXPECT_EQ(History.runs()[2].NewFindings, 2u);
  EXPECT_EQ(History.runs()[2].MatchedFindings, 0u);

  // One series per site; the fixed run leaves a gap, not a point.
  ASSERT_EQ(History.series().size(), 2u);
  const TrendSeries *Blocks = History.seriesFor("page:blocks#0");
  ASSERT_NE(Blocks, nullptr);
  EXPECT_TRUE(Blocks->IsPage);
  ASSERT_EQ(Blocks->Points.size(), 2u);
  EXPECT_EQ(Blocks->Points[0].RunIndex, 0u);
  EXPECT_EQ(Blocks->Points[1].RunIndex, 2u);
  EXPECT_EQ(Blocks->pointAt(1), nullptr);
  EXPECT_NEAR(Blocks->Points[1].Improvement, 1.8, 1e-12);
}

TEST(ReportHistoryAppendTest, MatchesAcrossRelocatedObjects) {
  // Same site, different addresses: matched, and the series follows it.
  ReportHistory History = storeOf({1.9, 1.5});
  EXPECT_EQ(History.runs()[1].MatchedFindings, 1u);
  EXPECT_EQ(History.runs()[1].NewFindings, 0u);
  const TrendSeries *S = History.seriesFor("page:blocks#0");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Points.size(), 2u);
}

TEST(ReportHistoryAppendTest, RepeatedSiteKeysStayDisambiguated) {
  ReportHistory History;
  mustAppend(History,
             renderDocument(
                 {}, {{syntheticPageFinding("blocks", 0x1000, 3.0), true},
                      {syntheticPageFinding("blocks", 0x2000, 2.0), true}}),
             "run-0");
  ASSERT_EQ(History.series().size(), 2u);
  EXPECT_NE(History.seriesFor("page:blocks#0"), nullptr);
  EXPECT_NE(History.seriesFor("page:blocks#1"), nullptr);
}

TEST(ReportHistoryAppendTest, EmptyAndDuplicateRunIdsRejectedAtomically) {
  ReportHistory History;
  ParsedReport Report = mustParse(pageRun(1.9));
  std::string Error;
  EXPECT_FALSE(History.appendRun(Report, "", Error));
  EXPECT_NE(Error.find("empty"), std::string::npos);
  ASSERT_TRUE(History.appendRun(Report, "nightly-1", Error)) << Error;
  EXPECT_FALSE(History.appendRun(Report, "nightly-1", Error));
  EXPECT_NE(Error.find("duplicate run id"), std::string::npos);
  // The failed appends left no trace.
  EXPECT_EQ(History.runs().size(), 1u);
  EXPECT_EQ(History.seriesFor("page:blocks#0")->Points.size(), 1u);
}

TEST(ReportHistoryAppendTest, V4ThenV5OfOneRunMatchesEveryFinding) {
  // A store begun under v4 keeps its series across the upgrade: one
  // profile appended as the v4 document it would have been (no table
  // totals), then as the v5 document it is, matches every finding of both
  // granularities, and each run records the schema it came from.
  auto Workload = workloads::createWorkload("numa_interleaved");
  ASSERT_NE(Workload, nullptr);
  driver::SessionConfig Config;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(256);
  Config.Profiler.Topology = NumaTopology(2, 4096);
  Config.Profiler.Detect.TrackPages = true;
  Config.Workload.Threads = 8;
  Config.Workload.Scale = 0.5;
  Config.Workload.NumaNodes = 2;
  std::string Text;
  JsonReportSink Sink(Text);
  driver::runWorkload(*Workload, Config, &Sink);
  std::string V4 = Text;
  for (const char *Member : {"\"words_total\":", "\"lines_total\":"})
    for (size_t At = V4.find(Member); At != std::string::npos;
         At = V4.find(Member))
      V4.erase(At, V4.find(',', At) - At + 1);
  size_t Pos = V4.find("cheetah-report-v5");
  ASSERT_NE(Pos, std::string::npos);
  V4.replace(Pos, 17, "cheetah-report-v4");

  ReportHistory History;
  mustAppend(History, V4, "v4");
  mustAppend(History, Text, "v5");
  ASSERT_EQ(History.runs().size(), 2u);
  const HistoryRunInfo &First = History.runs()[0];
  const HistoryRunInfo &Second = History.runs()[1];
  EXPECT_EQ(First.SourceSchema, "cheetah-report-v4");
  EXPECT_EQ(Second.SourceSchema, "cheetah-report-v5");
  ParsedReport Run = mustParse(Text);
  ASSERT_FALSE(Run.PageFindings.empty());
  EXPECT_EQ(First.NewFindings,
            Run.Findings.size() + Run.PageFindings.size());
  EXPECT_EQ(Second.MatchedFindings, First.NewFindings);
  EXPECT_EQ(Second.NewFindings, 0u);
  EXPECT_EQ(Second.ResolvedFindings, 0u);
  for (const TrendSeries &Series : History.series()) {
    ASSERT_EQ(Series.Points.size(), 2u) << Series.Key;
    EXPECT_EQ(Series.Points[0].Improvement, Series.Points[1].Improvement);
    EXPECT_EQ(Series.Points[0].Accesses, Series.Points[1].Accesses);
  }
  // The serialized store keeps each run's provenance.
  std::string Stored = History.serialize();
  EXPECT_NE(Stored.find(R"("source_schema":"cheetah-report-v4")"),
            std::string::npos);
  EXPECT_NE(Stored.find(R"("source_schema":"cheetah-report-v5")"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Trend series: pointAt / bestBefore
//===----------------------------------------------------------------------===//

TEST(ReportHistoryTrendTest, BestBeforeTreatsAbsentRunsAsResolved) {
  // Present at 1.9 in run 0, absent in run 1 (fixed), back at 1.5 in
  // run 2: the best history before run 2 is the resolved run's 1.0.
  ReportHistory History = storeOf({1.9, 0.0, 1.5});
  const TrendSeries *S = History.seriesFor("page:blocks#0");
  ASSERT_NE(S, nullptr);
  bool HasBest = false;
  EXPECT_DOUBLE_EQ(S->bestBefore(2, HasBest), 1.0);
  EXPECT_TRUE(HasBest);
  EXPECT_DOUBLE_EQ(S->bestBefore(1, HasBest), 1.9);
  EXPECT_TRUE(HasBest);
  // Run 0 has no history at all.
  S->bestBefore(0, HasBest);
  EXPECT_FALSE(HasBest);
}

TEST(ReportHistoryTrendTest, ImprovementLessPointsAreSkipped) {
  // A v2-era observation carries no factor: it must not count as 1.0 (or
  // anything) when computing the historical best.
  TrendSeries S;
  TrendPoint V2Point;
  V2Point.RunIndex = 0;
  V2Point.Significant = true;
  V2Point.HasImprovement = false;
  S.Points.push_back(V2Point);
  TrendPoint V4Point;
  V4Point.RunIndex = 1;
  V4Point.Significant = true;
  V4Point.HasImprovement = true;
  V4Point.Improvement = 1.6;
  S.Points.push_back(V4Point);
  bool HasBest = false;
  // Only the improvement-less run 0 precedes run 1: no usable history.
  S.bestBefore(1, HasBest);
  EXPECT_FALSE(HasBest);
  EXPECT_DOUBLE_EQ(S.bestBefore(2, HasBest), 1.6);
  EXPECT_TRUE(HasBest);
}

//===----------------------------------------------------------------------===//
// Gate: the N-run regression contract
//===----------------------------------------------------------------------===//

TEST(ReportHistoryGateTest, ForwardFixPassesReversedOrderTrips) {
  // broken -> broken -> fixed: the last run is clean.
  EXPECT_TRUE(storeOf({1.9, 1.9, 0.0}).gate(1.1).empty());

  // fixed -> broken -> broken: the finding crossed the factor relative
  // to its best (the resolved run's implicit 1.0).
  std::vector<HistoryGateViolation> Violations =
      storeOf({0.0, 1.9, 1.9}).gate(1.1);
  ASSERT_EQ(Violations.size(), 1u);
  EXPECT_EQ(Violations[0].Key, "page:blocks#0");
  EXPECT_EQ(Violations[0].Why, HistoryGateViolation::Kind::Crossed);
  EXPECT_NEAR(Violations[0].Improvement, 1.9, 1e-12);
  EXPECT_DOUBLE_EQ(Violations[0].Best, 1.0);
}

TEST(ReportHistoryGateTest, FirstRunFindingIsANewSite) {
  std::vector<HistoryGateViolation> Violations = storeOf({1.9}).gate(1.1);
  ASSERT_EQ(Violations.size(), 1u);
  EXPECT_EQ(Violations[0].Why, HistoryGateViolation::Kind::NewSite);
}

TEST(ReportHistoryGateTest, StableKnownBadFleetDoesNotTrip) {
  // At 1.9 since run 0 and never better: known-broken, not a regression.
  EXPECT_TRUE(storeOf({1.9, 1.9, 1.9}).gate(1.1).empty());
}

TEST(ReportHistoryGateTest, GrowthBeyondBestTrips) {
  std::vector<HistoryGateViolation> Violations =
      storeOf({1.3, 1.3, 1.6}).gate(1.1);
  ASSERT_EQ(Violations.size(), 1u);
  EXPECT_EQ(Violations[0].Why, HistoryGateViolation::Kind::Grew);
  EXPECT_NEAR(Violations[0].Best, 1.3, 1e-12);
}

TEST(ReportHistoryGateTest, BelowFactorAndInsignificantAreClean) {
  EXPECT_TRUE(storeOf({0.0, 1.05}).gate(1.1).empty());
  ReportHistory History;
  mustAppend(History, pageRun(0.0), "fixed");
  mustAppend(History,
             renderDocument({}, {{syntheticPageFinding("blocks", 0x1000,
                                                       5.0),
                                  false}}),
             "noisy");
  EXPECT_TRUE(History.gate(1.1).empty());
}

//===----------------------------------------------------------------------===//
// Bisect: finding the introducing run
//===----------------------------------------------------------------------===//

TEST(ReportHistoryBisectTest, NamesTheIntroducingRunOnAFourRunStore) {
  ReportHistory History = storeOf({0.0, 0.0, 1.9, 1.9});
  BisectResult Result = History.bisect("page:blocks#0", 1.1);
  ASSERT_TRUE(Result.Valid) << Result.Error;
  EXPECT_FALSE(Result.BadFromStart);
  EXPECT_EQ(Result.IntroducedIndex, 2u);
  EXPECT_EQ(Result.IntroducedRunId, "run-2");
  EXPECT_GT(Result.Probes, 0u);
}

TEST(ReportHistoryBisectTest, BadFromStartIsReportedAsSuch) {
  BisectResult Result = storeOf({1.9, 1.9}).bisect("page:blocks#0", 1.1);
  ASSERT_TRUE(Result.Valid) << Result.Error;
  EXPECT_TRUE(Result.BadFromStart);
  EXPECT_EQ(Result.IntroducedIndex, 0u);
  EXPECT_EQ(Result.IntroducedRunId, "run-0");
}

TEST(ReportHistoryBisectTest, FlappingHistoryReturnsAGoodToBadTransition) {
  // fixed, broken, fixed, broken: git-bisect contract — *a* transition.
  ReportHistory History = storeOf({0.0, 1.9, 0.0, 1.9});
  BisectResult Result = History.bisect("page:blocks#0", 1.1);
  ASSERT_TRUE(Result.Valid) << Result.Error;
  EXPECT_TRUE(Result.IntroducedIndex == 1u || Result.IntroducedIndex == 3u)
      << Result.IntroducedIndex;
  const TrendSeries *S = History.seriesFor("page:blocks#0");
  EXPECT_NE(S->pointAt(Result.IntroducedIndex), nullptr);
  EXPECT_EQ(S->pointAt(Result.IntroducedIndex - 1), nullptr);
}

TEST(ReportHistoryBisectTest, InvalidRequestsFailWithDescriptiveErrors) {
  ReportHistory Empty;
  EXPECT_FALSE(Empty.bisect("page:blocks#0", 1.1).Valid);

  ReportHistory History = storeOf({1.9, 0.0});
  BisectResult Unknown = History.bisect("page:nonesuch#0", 1.1);
  EXPECT_FALSE(Unknown.Valid);
  EXPECT_NE(Unknown.Error.find("unknown finding key"), std::string::npos);

  // Clean last run: nothing to bisect.
  BisectResult Clean = History.bisect("page:blocks#0", 1.1);
  EXPECT_FALSE(Clean.Valid);
  EXPECT_NE(Clean.Error.find("not regressing"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Serialization: determinism, round-trip, text golden
//===----------------------------------------------------------------------===//

TEST(ReportHistoryGoldenTest, SameRunSequenceTwiceIsByteIdentical) {
  ReportHistory First = storeOf({1.9, 1.9, 0.0});
  ReportHistory Second = storeOf({1.9, 1.9, 0.0});
  EXPECT_EQ(First.serialize(), Second.serialize());
  EXPECT_EQ(formatHistoryText(First), formatHistoryText(Second));
  EXPECT_FALSE(First.serialize().empty());
}

TEST(ReportHistoryGoldenTest, ParseReserializesByteStable) {
  ReportHistory History;
  mustAppend(History,
             renderDocument(
                 {{syntheticLineFinding("hot_global", 1.7), true}},
                 {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}),
             "run-0");
  mustAppend(History, pageRun(0.0), "run-1");
  std::string Stored = History.serialize();

  ReportHistory Reloaded;
  std::string Error;
  ASSERT_TRUE(ReportHistory::parse(Stored, Reloaded, Error)) << Error;
  EXPECT_EQ(Reloaded.serialize(), Stored);
  ASSERT_EQ(Reloaded.runs().size(), 2u);
  EXPECT_EQ(Reloaded.runs()[0].Id, "run-0");
  EXPECT_EQ(Reloaded.series().size(), History.series().size());

  // Appending to the reloaded store behaves like appending to the
  // original: the store is a faithful resume point.
  mustAppend(Reloaded, pageRun(1.5), "run-2");
  mustAppend(History, pageRun(1.5), "run-2");
  EXPECT_EQ(Reloaded.serialize(), History.serialize());
}

TEST(ReportHistoryGoldenTest, TextGoldenForSmallStore) {
  ReportHistory History;
  mustAppend(History, pageRun(1.9), "base");
  mustAppend(History, pageRun(1.5), "next");
  std::string Expected =
      "cheetah-trend: 2 run(s), 1 tracked finding(s)\n"
      "  [0] base  synthetic  4 threads  fix off  runtime 1000000 cycles  "
      "(1 new, 0 resolved, 0 matched)\n"
      "  [1] next  synthetic  4 threads  fix off  runtime 1000000 cycles  "
      "(0 new, 0 resolved, 1 matched)\n"
      "== current findings (run 1, worst first) ==\n"
      "  1.5000x  page:blocks#0  false-sharing  best 1.9000x, delta "
      "-0.4000\n"
      "== biggest regressions vs best ==\n"
      "  none\n";
  EXPECT_EQ(formatHistoryText(History), Expected);
}

TEST(ReportHistoryGoldenTest, RegressionSectionRanksByDelta) {
  ReportHistory History;
  mustAppend(History,
             renderDocument(
                 {}, {{syntheticPageFinding("blocks", 0x1000, 1.2), true},
                      {syntheticPageFinding("other", 0x2000, 1.3), true}}),
             "base");
  mustAppend(History,
             renderDocument(
                 {}, {{syntheticPageFinding("blocks", 0x1000, 2.0), true},
                      {syntheticPageFinding("other", 0x2000, 1.5), true}}),
             "worse");
  std::string Text = formatHistoryText(History);
  // blocks moved +0.8, other +0.2: blocks leads the regression section.
  size_t Blocks = Text.find("+0.8000  page:blocks#0");
  size_t Other = Text.find("+0.2000  page:other#0");
  ASSERT_NE(Blocks, std::string::npos) << Text;
  ASSERT_NE(Other, std::string::npos) << Text;
  EXPECT_LT(Blocks, Other);
}

//===----------------------------------------------------------------------===//
// Parser: loud-error contract
//===----------------------------------------------------------------------===//

TEST(ReportHistoryParseTest, VersionGateRejectsByName) {
  std::string Stored = storeOf({1.9}).serialize();
  size_t Pos = Stored.find("cheetah-history-v1");
  ASSERT_NE(Pos, std::string::npos);
  Stored.replace(Pos, std::string("cheetah-history-v1").size(),
                 "cheetah-history-v9");
  ReportHistory Out;
  std::string Error;
  EXPECT_FALSE(ReportHistory::parse(Stored, Out, Error));
  EXPECT_NE(Error.find("unsupported schema"), std::string::npos);
  EXPECT_NE(Error.find("cheetah-history-v9"), std::string::npos);
}

TEST(ReportHistoryParseTest, DuplicateRunIdsInDocumentRejected) {
  std::string Stored = storeOf({1.9, 1.9}).serialize();
  size_t Pos = Stored.find("\"id\":\"run-1\"");
  ASSERT_NE(Pos, std::string::npos);
  Stored.replace(Pos, std::string("\"id\":\"run-1\"").size(),
                 "\"id\":\"run-0\"");
  ReportHistory Out;
  std::string Error;
  EXPECT_FALSE(ReportHistory::parse(Stored, Out, Error));
  EXPECT_NE(Error.find("duplicate run id"), std::string::npos);
}

TEST(ReportHistoryParseTest, PointIndexInvariantsEnforced) {
  const char *RunPrefix =
      "{\"schema\":\"cheetah-history-v1\",\"runs\":[{\"id\":\"r0\","
      "\"workload\":\"w\",\"threads\":1,\"fix_applied\":false,"
      "\"granularity\":\"line\",\"source_schema\":\"cheetah-report-v4\","
      "\"app_runtime_cycles\":1,\"new_findings\":1,\"resolved_findings\":0,"
      "\"matched_findings\":0}],\"series\":[";
  ReportHistory Out;
  std::string Error;

  // A point referencing a run the store never recorded.
  std::string OutOfRange =
      std::string(RunPrefix) +
      "{\"key\":\"line:global:g#0\",\"page\":false,\"sharing\":\"fs\","
      "\"points\":[{\"run\":7,\"significant\":true,\"accesses\":1,"
      "\"invalidations\":0}]}]}";
  EXPECT_FALSE(ReportHistory::parse(OutOfRange, Out, Error));
  EXPECT_NE(Error.find("references no stored run"), std::string::npos);

  // Non-increasing point indices within a series.
  std::string NonIncreasing =
      std::string(RunPrefix) +
      "{\"key\":\"line:global:g#0\",\"page\":false,\"sharing\":\"fs\","
      "\"points\":[{\"run\":0,\"significant\":true,\"accesses\":1,"
      "\"invalidations\":0},{\"run\":0,\"significant\":true,\"accesses\":1,"
      "\"invalidations\":0}]}]}";
  EXPECT_FALSE(ReportHistory::parse(NonIncreasing, Out, Error));
  EXPECT_NE(Error.find("strictly increasing"), std::string::npos);

  // A line point smuggling page-only members.
  std::string PageMembers =
      std::string(RunPrefix) +
      "{\"key\":\"line:global:g#0\",\"page\":false,\"sharing\":\"fs\","
      "\"points\":[{\"run\":0,\"significant\":true,\"accesses\":1,"
      "\"invalidations\":0,\"remote_accesses\":5}]}]}";
  EXPECT_FALSE(ReportHistory::parse(PageMembers, Out, Error));
  EXPECT_NE(Error.find("page-only"), std::string::npos);

  // Duplicate series keys.
  std::string DuplicateKeys =
      std::string(RunPrefix) +
      "{\"key\":\"line:global:g#0\",\"page\":false,\"sharing\":\"fs\","
      "\"points\":[]},{\"key\":\"line:global:g#0\",\"page\":false,"
      "\"sharing\":\"fs\",\"points\":[]}]}";
  EXPECT_FALSE(ReportHistory::parse(DuplicateKeys, Out, Error));
  EXPECT_NE(Error.find("duplicate key"), std::string::npos);
}

TEST(ReportHistoryParseTest, StructuralGarbageFailsLoudly) {
  ReportHistory Out;
  std::string Error;
  EXPECT_FALSE(ReportHistory::parse("", Out, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(ReportHistory::parse("[]", Out, Error));
  EXPECT_NE(Error.find("not a JSON object"), std::string::npos);
  EXPECT_FALSE(ReportHistory::parse("{\"schema\":\"cheetah-history-v1\"}",
                                    Out, Error));
  EXPECT_NE(Error.find("runs"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// cheetah-diff-v1 ingestion
//===----------------------------------------------------------------------===//

TEST(ReportHistoryDiffIngestTest, DiffNewSideBecomesTheRun) {
  ParsedReport Old = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}));
  ParsedReport New = mustParse(renderDocument(
      {{syntheticLineFinding("hot_global", 1.7), true}},
      {{syntheticPageFinding("blocks", 0x2000, 1.5), true}}, true));
  std::string DiffJson = formatDiffJson(diffReports(Old, New), 1.1);

  ParsedReport Run;
  std::string Error;
  ASSERT_TRUE(parseRunDocument(DiffJson, Run, Error)) << Error;
  EXPECT_EQ(Run.Schema, "cheetah-diff-v1");
  EXPECT_EQ(Run.Workload, "synthetic");
  EXPECT_TRUE(Run.FixApplied);
  // The added line finding carries full counters; the matched page
  // finding carries only identity and the new improvement.
  ASSERT_EQ(Run.Findings.size(), 1u);
  EXPECT_EQ(Run.Findings[0].Key, "line:global:hot_global#0");
  EXPECT_EQ(Run.Findings[0].Accesses, 1000u);
  ASSERT_EQ(Run.PageFindings.size(), 1u);
  EXPECT_EQ(Run.PageFindings[0].Key, "page:blocks#0");
  EXPECT_TRUE(Run.PageFindings[0].HasImprovement);
  EXPECT_NEAR(Run.PageFindings[0].Improvement, 1.5, 1e-12);
  EXPECT_EQ(Run.PageFindings[0].Accesses, 0u);
}

TEST(ReportHistoryDiffIngestTest, DiffRunExtendsSeriesAndKeepsSharing) {
  ReportHistory History;
  mustAppend(History, pageRun(1.9), "report-run");

  ParsedReport Old = mustParse(pageRun(1.9));
  ParsedReport New = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x2000, 1.5), true}}));
  mustAppend(History, formatDiffJson(diffReports(Old, New), 1.1),
             "diff-run");

  const TrendSeries *S = History.seriesFor("page:blocks#0");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Points.size(), 2u);
  EXPECT_NEAR(S->Points[1].Improvement, 1.5, 1e-12);
  // Matched diff entries carry no sharing string; the series keeps the
  // last real observation.
  EXPECT_EQ(S->Sharing, "false-sharing");
  EXPECT_EQ(History.runs()[1].SourceSchema, "cheetah-diff-v1");
  EXPECT_EQ(History.runs()[1].MatchedFindings, 1u);
}

} // namespace
