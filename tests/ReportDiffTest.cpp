//===- tests/ReportDiffTest.cpp - report diff / gate tests -----------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-run comparison layer behind `cheetah-diff`: parseReport's
/// schema version gate (v2 to v6 in, v1 and garbage out — loudly),
/// site-identity matching across runs with relocated objects, the
/// regression-gate semantics CI anchors on, and byte-stability goldens
/// for both output formats (two independently produced profiler runs of
/// the same seed must diff to identical bytes).
///
//===----------------------------------------------------------------------===//

#include "ReportVersions.h"

#include "core/report/ReportDiff.h"
#include "core/report/ReportSink.h"
#include "driver/ProfileSession.h"
#include "mem/NumaTopology.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::core;

namespace {

//===----------------------------------------------------------------------===//
// Synthetic documents through the production sink
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

/// Serializes a small report with the given findings through the real
/// JSON sink.
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
  EXPECT_TRUE(parseReport(Text, Report, Error)) << Error;
  return Report;
}

//===----------------------------------------------------------------------===//
// parseReport: schema gate and field extraction
//===----------------------------------------------------------------------===//

TEST(ReportDiffParseTest, ReadsV6DocumentsEndToEnd) {
  std::string Text = renderDocument(
      {{syntheticLineFinding("hot_global", 1.7), true}},
      {{syntheticPageFinding("numa_slots", 0x40000000, 2.5), true}});
  ParsedReport Report = mustParse(Text);
  EXPECT_EQ(Report.Schema, "cheetah-report-v6");
  EXPECT_EQ(Report.Workload, "synthetic");
  EXPECT_EQ(Report.AppRuntimeCycles, 1000000u);
  ASSERT_EQ(Report.Findings.size(), 1u);
  EXPECT_EQ(Report.Findings[0].Key, "line:global:hot_global#0");
  EXPECT_TRUE(Report.Findings[0].HasImprovement);
  EXPECT_NEAR(Report.Findings[0].Improvement, 1.7, 1e-12);
  ASSERT_EQ(Report.PageFindings.size(), 1u);
  EXPECT_EQ(Report.PageFindings[0].Key, "page:numa_slots#0");
  EXPECT_TRUE(Report.PageFindings[0].HasImprovement);
  EXPECT_EQ(Report.PageFindings[0].RemoteAccesses, 800u);
}

TEST(ReportDiffParseTest, RejectsV1AndUnknownSchemas) {
  std::string Text = renderDocument({}, {});
  for (const char *Schema : {"cheetah-report-v1", "cheetah-report-v7",
                             "cheetah-report-v99", "not-a-cheetah-report"}) {
    std::string Mutated =
        test::relabelSchema(Text, "cheetah-report-v6", Schema);
    ParsedReport Report;
    std::string Error;
    EXPECT_FALSE(parseReport(Mutated, Report, Error)) << Schema;
    EXPECT_NE(Error.find("unsupported schema"), std::string::npos);
    EXPECT_NE(Error.find(Schema), std::string::npos);
    // The message names every version the readers accept.
    EXPECT_NE(Error.find("reads cheetah-report-v2, cheetah-report-v3, "
                         "cheetah-report-v4, cheetah-report-v5, and "
                         "cheetah-report-v6)"),
              std::string::npos)
        << Error;
  }
}

TEST(ReportDiffParseTest, AcceptsV2WithoutPageImprovement) {
  // A v2 document is a v3 document minus page assessment; simulate one by
  // relabeling the schema — parseReport must accept it, and a page
  // finding stripped of its improvement fields must read back as
  // HasImprovement=false.
  std::string Text = renderDocument(
      {}, {{syntheticPageFinding("numa_slots", 0x40000000, 2.5), true}});
  Text = test::relabelSchema(Text, "cheetah-report-v6", "cheetah-report-v2");
  ParsedReport Report = mustParse(Text);
  EXPECT_EQ(Report.Schema, "cheetah-report-v2");

  std::string Stripped = Text;
  size_t Improvement = Stripped.find("\"predictedImprovement\":2.5,");
  ASSERT_NE(Improvement, std::string::npos);
  Stripped.erase(Improvement,
                 std::string("\"predictedImprovement\":2.5,").size());
  size_t Assessment = Stripped.find(",\"assessment\":{");
  ASSERT_NE(Assessment, std::string::npos);
  size_t End = Stripped.find('}', Assessment);
  ASSERT_NE(End, std::string::npos);
  Stripped.erase(Assessment, End - Assessment + 1);
  ParsedReport Old = mustParse(Stripped);
  ASSERT_EQ(Old.PageFindings.size(), 1u);
  EXPECT_FALSE(Old.PageFindings[0].HasImprovement);
}

TEST(ReportDiffParseTest, NegativeCountersFailLoudlyNotAbort) {
  // asUint() asserts on negative numbers; a hostile document must come
  // back as an error string, never a SIGABRT.
  std::string Text = renderDocument({}, {});
  size_t Pos = Text.find("\"threads\":4");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, std::string("\"threads\":4").size(), "\"threads\":-4");
  ParsedReport Report;
  std::string Error;
  EXPECT_FALSE(parseReport(Text, Report, Error));
  EXPECT_NE(Error.find("negative"), std::string::npos);
}

TEST(ReportDiffParseTest, MissingSectionsFailLoudly) {
  ParsedReport Report;
  std::string Error;
  EXPECT_FALSE(parseReport("", Report, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseReport("[]", Report, Error));
  EXPECT_NE(Error.find("not a JSON object"), std::string::npos);
  EXPECT_FALSE(parseReport("{}", Report, Error));
  EXPECT_NE(Error.find("schema"), std::string::npos);
  EXPECT_FALSE(parseReport(
      "{\"schema\":\"cheetah-report-v3\",\"findings\":[]}", Report, Error));
  EXPECT_NE(Error.find("run"), std::string::npos);
}

TEST(ReportDiffParseTest, MissingSummaryErrorCarriesNoStaleText) {
  // The caller's error string may hold an earlier failure; a missing
  // summary must not append it to its own message.
  std::string Text = renderDocument({}, {});
  size_t Pos = Text.find("\"summary\"");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, std::string("\"summary\"").size(), "\"summery\"");
  ParsedReport Report;
  std::string Error = "earlier failure";
  EXPECT_FALSE(parseReport(Text, Report, Error));
  EXPECT_EQ(Error, "report without a usable 'summary' object");

  Text = renderDocument({}, {});
  Pos = Text.find("\"app_runtime_cycles\":1000000");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, std::string("\"app_runtime_cycles\":1000000").size(),
               "\"app_runtime_cycles\":-1");
  EXPECT_FALSE(parseReport(Text, Report, Error));
  EXPECT_EQ(Error, "report without a usable 'summary' object: field "
                   "'app_runtime_cycles' is negative");
}

TEST(ReportDiffParseTest, FailedParseLeavesNoPartialReport) {
  std::string Text = renderDocument(
      {{syntheticLineFinding("hot_global", 1.7), true}},
      {{syntheticPageFinding("numa_slots", 0x40000000, 2.5), true}});
  ParsedReport Report = mustParse(Text);
  ASSERT_EQ(Report.Findings.size(), 1u);
  size_t Pos = Text.find("\"remote_accesses\":800");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, std::string("\"remote_accesses\":800").size(),
               "\"remote_accesses\":true");
  std::string Error;
  EXPECT_FALSE(parseReport(Text, Report, Error));
  EXPECT_EQ(Error, "pageFindings[0]: field 'remote_accesses' missing or not "
                   "a number");
  EXPECT_TRUE(Report.Schema.empty());
  EXPECT_TRUE(Report.Findings.empty());
}

//===----------------------------------------------------------------------===//
// diffReports matching and gate semantics
//===----------------------------------------------------------------------===//

TEST(ReportDiffTest, MatchesBySiteAcrossRelocatedObjects) {
  // Same global name, different addresses (the fixed layout relocated
  // it): must match, not added+removed.
  FalseSharingReport OldFinding = syntheticLineFinding("hot_global", 1.8);
  FalseSharingReport NewFinding = syntheticLineFinding("hot_global", 1.1);
  NewFinding.Object.Start = 0x20000000;
  ParsedReport Old =
      mustParse(renderDocument({{OldFinding, true}}, {}));
  ParsedReport New =
      mustParse(renderDocument({{NewFinding, true}}, {}, true));

  ReportDiffResult Diff = diffReports(Old, New);
  EXPECT_TRUE(Diff.Added.empty());
  EXPECT_TRUE(Diff.Removed.empty());
  ASSERT_EQ(Diff.Matched.size(), 1u);
  EXPECT_NEAR(Diff.Matched[0].improvementDelta(), -0.7, 1e-9);
}

TEST(ReportDiffTest, RepeatedSiteKeysPairInOrder) {
  // Three pages of one array in the old run, two in the new: two matched
  // pairs (in report order) plus one removed.
  ParsedReport Old = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 3.0), true},
           {syntheticPageFinding("blocks", 0x2000, 2.0), true},
           {syntheticPageFinding("blocks", 0x3000, 1.5), true}}));
  ParsedReport New = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x9000, 1.4), true},
           {syntheticPageFinding("blocks", 0xA000, 1.2), true}}));

  ReportDiffResult Diff = diffReports(Old, New);
  EXPECT_EQ(Diff.PageAdded.size(), 0u);
  ASSERT_EQ(Diff.PageRemoved.size(), 1u);
  EXPECT_EQ(Diff.PageRemoved[0].Key, "page:blocks#2");
  ASSERT_EQ(Diff.PageMatched.size(), 2u);
  EXPECT_NEAR(Diff.PageMatched[0].Old.Improvement, 3.0, 1e-12);
  EXPECT_NEAR(Diff.PageMatched[0].New.Improvement, 1.4, 1e-12);
}

TEST(ReportDiffGateTest, CleanOnFixedAndTrippedOnReintroduction) {
  ParsedReport Broken = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}));
  ParsedReport Fixed = mustParse(renderDocument({}, {}, true));

  // broken -> fixed: the finding disappeared; nothing regresses.
  EXPECT_TRUE(gateRegressions(diffReports(Broken, Fixed), 1.1).empty());

  // fixed -> broken: a significant finding at 1.9x appeared.
  std::vector<GateViolation> Violations =
      gateRegressions(diffReports(Fixed, Broken), 1.1);
  ASSERT_EQ(Violations.size(), 1u);
  EXPECT_TRUE(Violations[0].NewSite);
  EXPECT_NEAR(Violations[0].Finding.Improvement, 1.9, 1e-12);
}

TEST(ReportDiffGateTest, StableKnownFindingDoesNotTrip) {
  ParsedReport Old = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}));
  ParsedReport New = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x2000, 1.9), true}}));
  EXPECT_TRUE(gateRegressions(diffReports(Old, New), 1.1).empty());
}

TEST(ReportDiffGateTest, GrowthAndGateCrossingTrip) {
  ParsedReport Old = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 1.3), true},
           {syntheticPageFinding("other", 0x2000, 1.05), true}}));
  ParsedReport New = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 1.6), true},
           {syntheticPageFinding("other", 0x2000, 1.2), true}}));
  std::vector<GateViolation> Violations =
      gateRegressions(diffReports(Old, New), 1.1);
  ASSERT_EQ(Violations.size(), 2u); // grew 1.3->1.6, crossed 1.05->1.2
  for (const GateViolation &Violation : Violations)
    EXPECT_FALSE(Violation.NewSite);
}

TEST(ReportDiffGateTest, V2BaselineWithoutImprovementDoesNotTrip) {
  // Old run from a v2 producer: its page findings carry no improvement
  // factor. Matching them against an unchanged v6 finding above the gate
  // must not read as "crossed the gate" — that would fail every
  // v2 -> v6 CI transition spuriously.
  std::string OldText = test::relabelSchema(
      renderDocument({}, {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}),
      "cheetah-report-v6", "cheetah-report-v2");
  size_t Improvement = OldText.find("\"predictedImprovement\":1.9,");
  ASSERT_NE(Improvement, std::string::npos);
  OldText.erase(Improvement,
                std::string("\"predictedImprovement\":1.9,").size());
  size_t Assessment = OldText.find(",\"assessment\":{");
  ASSERT_NE(Assessment, std::string::npos);
  size_t End = OldText.find('}', Assessment);
  OldText.erase(Assessment, End - Assessment + 1);
  ParsedReport Old = mustParse(OldText);
  ASSERT_FALSE(Old.PageFindings[0].HasImprovement);

  ParsedReport New = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}));
  EXPECT_TRUE(gateRegressions(diffReports(Old, New), 1.1).empty());
}

TEST(ReportDiffGateTest, InsignificantAndUnassessedFindingsAreSkipped) {
  ParsedReport Old = mustParse(renderDocument({}, {}));
  std::string NewText = renderDocument(
      {}, {{syntheticPageFinding("noise", 0x1000, 5.0), false}});
  ParsedReport New = mustParse(NewText);
  EXPECT_TRUE(gateRegressions(diffReports(Old, New), 1.1).empty());
}

//===----------------------------------------------------------------------===//
// Output goldens: byte stability
//===----------------------------------------------------------------------===//

/// Two full profiler runs of the same seed, serialized independently.
std::string profileToJson(bool Fix) {
  auto Workload = workloads::createWorkload("numa_interleaved");
  EXPECT_NE(Workload, nullptr);
  driver::SessionConfig Config;
  Config.Profiler.Pmu.SamplingPeriod = 256;
  Config.Profiler.Topology = NumaTopology(2, 4096);
  Config.Profiler.Detect.TrackPages = true;
  Config.Workload.Threads = 8;
  Config.Workload.Scale = 0.5;
  Config.Workload.FixFalseSharing = Fix;
  std::string Out;
  JsonReportSink Sink(Out);
  driver::runWorkload(*Workload, Config, &Sink);
  return Out;
}

TEST(ReportDiffGoldenTest, TextAndJsonOutputsAreByteStable) {
  ParsedReport Broken1 = mustParse(profileToJson(false));
  ParsedReport Fixed1 = mustParse(profileToJson(true));
  ParsedReport Broken2 = mustParse(profileToJson(false));
  ParsedReport Fixed2 = mustParse(profileToJson(true));

  ReportDiffResult First = diffReports(Broken1, Fixed1);
  ReportDiffResult Second = diffReports(Broken2, Fixed2);
  EXPECT_EQ(formatDiffText(First, 1.1), formatDiffText(Second, 1.1));
  EXPECT_EQ(formatDiffJson(First, 1.1), formatDiffJson(Second, 1.1));
  EXPECT_FALSE(formatDiffText(First, 1.1).empty());
}

TEST(ReportDiffTest, V4AndV5RenderingsOfAV6RunMatchEveryFinding) {
  // The same profile read as the v6 document it is and as the v5 and v4
  // documents it would have been: v5 and v6 changed only the word and
  // line tables, which no finding key or counter reads, so every finding
  // of both granularities matches its twin with an unchanged factor.
  std::string Text = profileToJson(false);
  ParsedReport New = mustParse(Text);
  EXPECT_EQ(New.Schema, "cheetah-report-v6");
  ASSERT_FALSE(New.Findings.empty());
  ASSERT_FALSE(New.PageFindings.empty());
  for (const std::string &OldText :
       {test::downgradeToV4(Text), test::downgradeToV5(Text)}) {
    ParsedReport Old = mustParse(OldText);
    SCOPED_TRACE(Old.Schema);
    EXPECT_NE(Old.Schema, New.Schema);

    ReportDiffResult Diff = diffReports(Old, New);
    EXPECT_TRUE(Diff.Added.empty());
    EXPECT_TRUE(Diff.Removed.empty());
    EXPECT_TRUE(Diff.PageAdded.empty());
    EXPECT_TRUE(Diff.PageRemoved.empty());
    EXPECT_EQ(Diff.Matched.size(), New.Findings.size());
    EXPECT_EQ(Diff.PageMatched.size(), New.PageFindings.size());
    for (const auto *Matched : {&Diff.Matched, &Diff.PageMatched})
      for (const MatchedFinding &Pair : *Matched) {
        SCOPED_TRACE(Pair.New.Key);
        EXPECT_EQ(Pair.improvementDelta(), 0.0);
        EXPECT_EQ(Pair.Old.Significant, Pair.New.Significant);
        EXPECT_EQ(Pair.Old.Accesses, Pair.New.Accesses);
        EXPECT_EQ(Pair.Old.Invalidations, Pair.New.Invalidations);
        EXPECT_EQ(Pair.Old.RemoteAccesses, Pair.New.RemoteAccesses);
      }
    EXPECT_TRUE(gateRegressions(Diff, 1.0).empty());
  }
}

TEST(ReportDiffGoldenTest, TextGoldenForSyntheticPair) {
  ParsedReport Old = mustParse(renderDocument(
      {{syntheticLineFinding("hot_global", 1.5), true}},
      {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}));
  ParsedReport New = mustParse(renderDocument({}, {}, true));

  std::string Expected =
      "cheetah-diff: synthetic (4 threads, fix off) -> synthetic "
      "(4 threads, fix on)\n"
      "schema cheetah-report-v6 -> cheetah-report-v6, runtime 1000000 -> "
      "1000000 cycles\n"
      "== line findings: 0 added, 1 removed, 0 matched ==\n"
      "  removed  line:global:hot_global#0  false-sharing  improvement "
      "1.5000x\n"
      "== page findings: 0 added, 1 removed, 0 matched ==\n"
      "  removed  page:blocks#0  false-sharing  improvement 1.9000x\n"
      "== gate: factor 1.1000 ==\n"
      "gate verdict: 0 regression(s)\n";
  EXPECT_EQ(formatDiffText(diffReports(Old, New), 1.1), Expected);
}

TEST(ReportDiffGoldenTest, JsonOutputParsesAndCarriesGateVerdict) {
  ParsedReport Old = mustParse(renderDocument({}, {}));
  ParsedReport New = mustParse(renderDocument(
      {}, {{syntheticPageFinding("blocks", 0x1000, 1.9), true}}));
  std::string Json = formatDiffJson(diffReports(Old, New), 1.1);

  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Document, Error)) << Error;
  EXPECT_EQ(Document.find("schema")->asString(), "cheetah-diff-v1");
  const JsonValue *Pages = Document.find("pageFindings");
  ASSERT_NE(Pages, nullptr);
  EXPECT_EQ(Pages->find("added")->size(), 1u);
  const JsonValue *Gate = Document.find("gate");
  ASSERT_NE(Gate, nullptr);
  EXPECT_EQ(Gate->find("regressions")->asUint(), 1u);
  const JsonValue &Violation = Gate->find("violations")->elements()[0];
  EXPECT_EQ(Violation.find("kind")->asString(), "new-site");
  EXPECT_EQ(Violation.find("key")->asString(), "page:blocks#0");
}

} // namespace
