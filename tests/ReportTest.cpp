//===- tests/ReportTest.cpp - streaming report pipeline tests --------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the streaming report pipeline: the ReportSink contract, the
/// Figure-5 text sink, and the machine-readable JSON sink. The JSON
/// golden test runs a known simulated workload, parses the emitted
/// document with the support-layer parser, and round-trips every summary
/// counter and per-finding field against the in-memory ProfileResult —
/// the schema (`cheetah-report-v5`) is a compatibility contract for
/// multi-run comparison tooling (`cheetah-diff`), so key names are pinned
/// here. The schema *version* is pinned just as hard: v2 added the
/// pageFindings sections, v3 added their assessment and the top-level
/// predictedImprovement factors, v4 added the per-page-finding
/// remote_by_distance breakdown, v5 cut the word and line tables to their
/// hottest rows and added their totals, and consumers built against
/// superseded versions must fail loudly on the version string rather than
/// silently ignore (or misread) the new data. The builders' cut itself is
/// tested on synthetic grain snapshots.
///
//===----------------------------------------------------------------------===//

#include "core/report/PageReportBuilder.h"
#include "core/report/ReportBuilder.h"
#include "core/report/ReportSink.h"
#include "driver/ProfileSession.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace cheetah;
using namespace cheetah::core;

namespace {

/// A deterministic profiled run with real false sharing: the paper's
/// linear_regression model, sampled densely enough to gate reports.
driver::SessionResult runKnownWorkload(std::string &JsonText) {
  auto Workload = workloads::createWorkload("linear_regression");
  EXPECT_NE(Workload, nullptr);
  driver::SessionConfig Config;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(512);
  Config.Workload.Threads = 8;
  Config.Workload.Seed = 0x43484545;
  JsonReportSink Sink(JsonText);
  return driver::runWorkload(*Workload, Config, &Sink);
}

TEST(JsonReportGoldenTest, DocumentParsesAndRoundTripsCounters) {
  std::string JsonText;
  driver::SessionResult Result = runKnownWorkload(JsonText);
  const ProfileResult &Profile = Result.Profile;

  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  ASSERT_TRUE(Document.isObject());

  // Schema identity.
  ASSERT_NE(Document.find("schema"), nullptr);
  EXPECT_EQ(Document.find("schema")->asString(), "cheetah-report-v5");

  // Run identification written by the driver's beginRun.
  const JsonValue *Run = Document.find("run");
  ASSERT_NE(Run, nullptr);
  EXPECT_EQ(Run->find("workload")->asString(), "linear_regression");
  EXPECT_EQ(Run->find("threads")->asUint(), 8u);
  EXPECT_EQ(Run->find("line_size")->asUint(), 64u);
  EXPECT_EQ(Run->find("sampling_period")->asUint(), 512u);
  EXPECT_FALSE(Run->find("fix_applied")->asBool());
  EXPECT_EQ(Run->find("numa_nodes")->asUint(), 1u);
  EXPECT_EQ(Run->find("granularity")->asString(), "line");

  // A line-only run still carries the (empty) pageFindings array so v2
  // consumers never branch on key presence.
  const JsonValue *PageFindings = Document.find("pageFindings");
  ASSERT_NE(PageFindings, nullptr);
  ASSERT_TRUE(PageFindings->isArray());
  EXPECT_EQ(PageFindings->size(), 0u);

  // Summary counters round-trip against the in-memory result.
  const JsonValue *Summary = Document.find("summary");
  ASSERT_NE(Summary, nullptr);
  EXPECT_EQ(Summary->find("findings")->asUint(),
            Profile.AllInstances.size());
  EXPECT_EQ(Summary->find("significant_findings")->asUint(),
            Profile.Reports.size());
  EXPECT_EQ(Summary->find("app_runtime_cycles")->asUint(),
            Profile.AppRuntime);
  EXPECT_EQ(Summary->find("samples")->asUint(), Profile.SamplesDelivered);
  EXPECT_EQ(Summary->find("serial_samples")->asUint(),
            Profile.SerialSamples);
  EXPECT_NEAR(Summary->find("serial_avg_latency")->asNumber(),
              Profile.SerialAverageLatency, 1e-9);
  EXPECT_EQ(Summary->find("fork_join")->asBool(),
            Profile.ForkJoinVerified);

  const JsonValue *Detector = Summary->find("detector");
  ASSERT_NE(Detector, nullptr);
  EXPECT_EQ(Detector->find("seen")->asUint(),
            Profile.Detection.SamplesSeen);
  EXPECT_EQ(Detector->find("filtered")->asUint(),
            Profile.Detection.SamplesFiltered);
  EXPECT_EQ(Detector->find("recorded")->asUint(),
            Profile.Detection.SamplesRecorded);
  EXPECT_EQ(Detector->find("invalidations")->asUint(),
            Profile.Detection.Invalidations);

  // Findings stream in AllInstances order with matching fields.
  const JsonValue *Findings = Document.find("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_TRUE(Findings->isArray());
  ASSERT_EQ(Findings->size(), Profile.AllInstances.size());
  ASSERT_GT(Findings->size(), 0u) << "workload must produce findings";

  size_t SignificantSeen = 0;
  for (size_t I = 0; I < Findings->size(); ++I) {
    const JsonValue &Finding = Findings->elements()[I];
    const FalseSharingReport &Expected = Profile.AllInstances[I];
    const JsonValue *Object = Finding.find("object");
    ASSERT_NE(Object, nullptr);
    EXPECT_EQ(Object->find("start")->asUint(), Expected.Object.Start);
    EXPECT_EQ(Object->find("size")->asUint(), Expected.Object.Size);
    EXPECT_EQ(Finding.find("sharing")->asString(),
              sharingKindName(Expected.Kind));
    EXPECT_EQ(Finding.find("accesses")->asUint(), Expected.SampledAccesses);
    EXPECT_EQ(Finding.find("writes")->asUint(), Expected.SampledWrites);
    EXPECT_EQ(Finding.find("invalidations")->asUint(),
              Expected.Invalidations);
    EXPECT_EQ(Finding.find("latency_cycles")->asUint(),
              Expected.LatencyCycles);
    EXPECT_EQ(Finding.find("threads_observed")->asUint(),
              Expected.ThreadsObserved);
    EXPECT_NEAR(Finding.find("assessment")
                    ->find("improvement_factor")
                    ->asNumber(),
                Expected.Impact.ImprovementFactor, 1e-12);
    // Every finding carries the v3 top-level improvement factor, equal to
    // its assessment's.
    ASSERT_NE(Finding.find("predictedImprovement"), nullptr);
    EXPECT_NEAR(Finding.find("predictedImprovement")->asNumber(),
                Expected.Impact.ImprovementFactor, 1e-12);
    if (Finding.find("significant")->asBool())
      ++SignificantSeen;
    // Word entries mirror the hottest-first report words, at most
    // ReportTableRows of them, next to the uncut total.
    const JsonValue *Words = Finding.find("words");
    ASSERT_NE(Words, nullptr);
    ASSERT_EQ(Words->size(), Expected.Words.size());
    EXPECT_LE(Words->size(), ReportTableRows);
    ASSERT_NE(Finding.find("words_total"), nullptr);
    EXPECT_EQ(Finding.find("words_total")->asUint(), Expected.WordsTotal);
    EXPECT_GE(Expected.WordsTotal, Expected.Words.size());
    for (size_t W = 0; W < Words->size(); ++W) {
      EXPECT_EQ(Words->elements()[W].find("reads")->asUint(),
                Expected.Words[W].Reads);
      EXPECT_EQ(Words->elements()[W].find("writes")->asUint(),
                Expected.Words[W].Writes);
    }
  }
  EXPECT_EQ(SignificantSeen, Profile.Reports.size());

  // The known workload's false sharing is present and significant.
  ASSERT_FALSE(Profile.Reports.empty());
  EXPECT_EQ(Profile.Reports.front().Kind, SharingKind::FalseSharing);
}

TEST(JsonReportGoldenTest, SchemaVersionGatesV1Consumers) {
  // The v2 field additions came with a version bump precisely so that a
  // consumer pinning "cheetah-report-v1" rejects the document instead of
  // silently dropping pageFindings. This models such a consumer's check.
  std::string JsonText;
  runKnownWorkload(JsonText);
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  ASSERT_NE(Document.find("schema"), nullptr);
  EXPECT_NE(Document.find("schema")->asString(), "cheetah-report-v1");
}

TEST(JsonReportGoldenTest, SchemaVersionGatesV2Consumers) {
  // Same contract one version up: v3 added page assessment and the
  // predictedImprovement factors — and reordered pageFindings by them —
  // so a consumer pinning "cheetah-report-v2" must reject the document
  // rather than silently assume the v2 ordering.
  std::string JsonText;
  runKnownWorkload(JsonText);
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  ASSERT_NE(Document.find("schema"), nullptr);
  EXPECT_NE(Document.find("schema")->asString(), "cheetah-report-v2");
}

TEST(JsonReportGoldenTest, SchemaVersionGatesV3Consumers) {
  // And one more: v4 added the remote_by_distance breakdown, and a
  // topology's distance matrix now shapes remote costs and therefore the
  // ordering of pageFindings — a consumer pinning "cheetah-report-v3"
  // must reject the document rather than read distance-shaped findings
  // as if they were binary local/remote.
  std::string JsonText;
  runKnownWorkload(JsonText);
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  ASSERT_NE(Document.find("schema"), nullptr);
  EXPECT_NE(Document.find("schema")->asString(), "cheetah-report-v3");
}

TEST(JsonReportGoldenTest, SchemaVersionGatesV4Consumers) {
  // v5 cut every word and line table to its hottest rows: a consumer
  // pinning "cheetah-report-v4" that sums a table (or counts its rows)
  // must reject the document rather than read a cut table as a whole one.
  std::string JsonText;
  runKnownWorkload(JsonText);
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  ASSERT_NE(Document.find("schema"), nullptr);
  const std::string &Schema = Document.find("schema")->asString();
  // A strict v4 consumer must fail loudly here...
  EXPECT_NE(Schema, "cheetah-report-v4");
  // ...and the version that replaced it is pinned exactly.
  EXPECT_EQ(Schema, "cheetah-report-v5");
}

/// A deterministic page-granularity run over the node-interleaved NUMA
/// workload: two nodes, dense sampling, line + page tracking both on.
driver::SessionResult runKnownPageWorkload(std::string &JsonText) {
  auto Workload = workloads::createWorkload("numa_interleaved");
  EXPECT_NE(Workload, nullptr);
  driver::SessionConfig Config;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(256);
  Config.Profiler.Topology = NumaTopology(2, 4096);
  Config.Profiler.Detect.TrackPages = true;
  Config.Workload.Threads = 8;
  Config.Workload.Scale = 0.5;
  Config.Workload.NumaNodes = 2;
  JsonReportSink Sink(JsonText);
  return driver::runWorkload(*Workload, Config, &Sink);
}

TEST(JsonReportGoldenTest, PageFindingsRoundTripAgainstProfileResult) {
  std::string JsonText;
  driver::SessionResult Result = runKnownPageWorkload(JsonText);
  const ProfileResult &Profile = Result.Profile;

  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;

  const JsonValue *Run = Document.find("run");
  ASSERT_NE(Run, nullptr);
  EXPECT_EQ(Run->find("numa_nodes")->asUint(), 2u);
  EXPECT_EQ(Run->find("page_size")->asUint(), 4096u);
  EXPECT_EQ(Run->find("granularity")->asString(), "both");

  const JsonValue *PageFindings = Document.find("pageFindings");
  ASSERT_NE(PageFindings, nullptr);
  ASSERT_TRUE(PageFindings->isArray());
  ASSERT_EQ(PageFindings->size(), Profile.AllPageInstances.size());
  ASSERT_GT(PageFindings->size(), 0u)
      << "the node-interleaved workload must produce page findings";

  size_t SignificantSeen = 0;
  for (size_t I = 0; I < PageFindings->size(); ++I) {
    const JsonValue &Finding = PageFindings->elements()[I];
    const PageSharingReport &Expected = Profile.AllPageInstances[I];
    EXPECT_EQ(Finding.find("page")->asUint(), Expected.PageBase);
    EXPECT_EQ(Finding.find("page_size")->asUint(), Expected.PageSize);
    EXPECT_EQ(Finding.find("home_node")->asUint(), Expected.HomeNode);
    EXPECT_EQ(Finding.find("nodes")->asUint(), Expected.NodesObserved);
    EXPECT_EQ(Finding.find("sharing")->asString(),
              sharingKindName(Expected.Kind));
    EXPECT_EQ(Finding.find("accesses")->asUint(), Expected.SampledAccesses);
    EXPECT_EQ(Finding.find("writes")->asUint(), Expected.SampledWrites);
    EXPECT_EQ(Finding.find("remote_accesses")->asUint(),
              Expected.RemoteAccesses);
    EXPECT_EQ(Finding.find("invalidations")->asUint(),
              Expected.Invalidations);
    EXPECT_EQ(Finding.find("latency_cycles")->asUint(),
              Expected.LatencyCycles);
    EXPECT_NEAR(Finding.find("remote_fraction")->asNumber(),
                Expected.remoteFraction(), 1e-12);
    // v3: page findings carry the assessment and the top-level factor.
    ASSERT_NE(Finding.find("predictedImprovement"), nullptr);
    EXPECT_NEAR(Finding.find("predictedImprovement")->asNumber(),
                Expected.Impact.ImprovementFactor, 1e-12);
    const JsonValue *Impact = Finding.find("assessment");
    ASSERT_NE(Impact, nullptr);
    EXPECT_NEAR(Impact->find("improvement_factor")->asNumber(),
                Expected.Impact.ImprovementFactor, 1e-12);
    EXPECT_NEAR(Impact->find("predicted_runtime_cycles")->asNumber(),
                Expected.Impact.PredictedAppRuntime, 1e-6);
    if (Finding.find("significant")->asBool())
      ++SignificantSeen;
    const JsonValue *Lines = Finding.find("lines");
    ASSERT_NE(Lines, nullptr);
    ASSERT_EQ(Lines->size(), Expected.Lines.size());
    EXPECT_LE(Lines->size(), ReportTableRows);
    ASSERT_NE(Finding.find("lines_total"), nullptr);
    EXPECT_EQ(Finding.find("lines_total")->asUint(), Expected.LinesTotal);
    EXPECT_GE(Expected.LinesTotal, Expected.Lines.size());
    for (size_t L = 0; L < Lines->size(); ++L) {
      EXPECT_EQ(Lines->elements()[L].find("offset")->asUint(),
                Expected.Lines[L].Offset);
      EXPECT_EQ(Lines->elements()[L].find("reads")->asUint(),
                Expected.Lines[L].Reads);
      EXPECT_EQ(Lines->elements()[L].find("writes")->asUint(),
                Expected.Lines[L].Writes);
    }
    const JsonValue *Objects = Finding.find("objects");
    ASSERT_NE(Objects, nullptr);
    ASSERT_EQ(Objects->size(), Expected.Objects.size());
    // v4: the distance breakdown conserves against the remote totals.
    const JsonValue *Buckets = Finding.find("remote_by_distance");
    ASSERT_NE(Buckets, nullptr);
    ASSERT_TRUE(Buckets->isArray());
    ASSERT_EQ(Buckets->size(), Expected.RemoteByDistance.size());
    uint64_t BucketAccesses = 0, BucketCycles = 0;
    for (size_t B = 0; B < Buckets->size(); ++B) {
      const JsonValue &Bucket = Buckets->elements()[B];
      EXPECT_EQ(Bucket.find("distance")->asUint(),
                Expected.RemoteByDistance[B].Distance);
      EXPECT_EQ(Bucket.find("accesses")->asUint(),
                Expected.RemoteByDistance[B].Accesses);
      BucketAccesses += Bucket.find("accesses")->asUint();
      BucketCycles += Bucket.find("cycles")->asUint();
    }
    EXPECT_EQ(BucketAccesses, Expected.RemoteAccesses);
    EXPECT_EQ(BucketCycles, Expected.RemoteLatencyCycles);
    // The uniform 2-node topology has exactly one remote distance.
    if (Expected.RemoteAccesses > 0) {
      ASSERT_EQ(Buckets->size(), 1u);
      EXPECT_EQ(Buckets->elements()[0].find("distance")->asUint(),
                NumaTopology::DefaultRemoteDistance);
    }
  }
  EXPECT_EQ(SignificantSeen, Profile.PageReports.size());

  // The headline finding: false page sharing across two nodes, on the
  // workload's named global, invisible to the line-level gate.
  ASSERT_FALSE(Profile.PageReports.empty());
  EXPECT_EQ(Profile.PageReports.front().Kind, SharingKind::FalseSharing);
  EXPECT_GE(Profile.PageReports.front().NodesObserved, 2u);
  EXPECT_TRUE(Profile.Reports.empty())
      << "line-granularity must not report the interleaved hammering";

  // Summary page counters round-trip.
  const JsonValue *Summary = Document.find("summary");
  ASSERT_NE(Summary, nullptr);
  EXPECT_EQ(Summary->find("page_findings")->asUint(),
            Profile.AllPageInstances.size());
  EXPECT_EQ(Summary->find("significant_page_findings")->asUint(),
            Profile.PageReports.size());
  EXPECT_GT(Summary->find("materialized_pages")->asUint(), 0u);
  EXPECT_GT(Summary->find("page_shadow_bytes")->asUint(), 0u);
  const JsonValue *Detector = Summary->find("detector");
  ASSERT_NE(Detector, nullptr);
  EXPECT_EQ(Detector->find("page_recorded")->asUint(),
            Profile.Detection.PageSamplesRecorded);
  EXPECT_EQ(Detector->find("page_invalidations")->asUint(),
            Profile.Detection.PageInvalidations);
  EXPECT_EQ(Detector->find("remote_samples")->asUint(),
            Profile.Detection.RemoteSamples);
}

TEST(JsonReportGoldenTest, PageDocumentIsByteStableAcrossRuns) {
  std::string First, Second;
  runKnownPageWorkload(First);
  runKnownPageWorkload(Second);
  EXPECT_EQ(First, Second);
  EXPECT_FALSE(First.empty());
}

TEST(JsonReportGoldenTest, DocumentIsByteStableAcrossRuns) {
  // Same workload, same seed: the serialized document must be identical —
  // the property multi-run diffing tools depend on.
  std::string First, Second;
  runKnownWorkload(First);
  runKnownWorkload(Second);
  EXPECT_EQ(First, Second);
  EXPECT_FALSE(First.empty());
  EXPECT_EQ(First.back(), '\n');
}

//===----------------------------------------------------------------------===//
// Sink behavior on synthetic findings
//===----------------------------------------------------------------------===//

FalseSharingReport makeSyntheticReport() {
  FalseSharingReport Report;
  Report.Object.IsHeap = true;
  Report.Object.CallsiteFrames = {"alloc.c:42", "main.c:7"};
  Report.Object.Start = 0x40001000;
  Report.Object.Size = 256;
  Report.Object.RequestedSize = 250;
  Report.Object.AllocatedBy = 0;
  Report.Kind = SharingKind::FalseSharing;
  Report.LinesTracked = 4;
  Report.SampledAccesses = 1000;
  Report.SampledWrites = 400;
  Report.Invalidations = 123;
  Report.LatencyCycles = 50000;
  Report.ThreadsObserved = 8;
  Report.SharedWordFraction = 0.25;
  Report.Impact.ImprovementFactor = 1.5;
  Report.Impact.RealAppRuntime = 3000000;
  Report.Impact.PredictedAppRuntime = 2000000.0;
  Report.Words.push_back({0, 500, 200, 25000, 1, false});
  Report.Words.push_back({64, 300, 200, 25000, 2, true});
  return Report;
}

TEST(ReportSinkTest, JsonEscapesHostileObjectNames) {
  std::string Out;
  JsonReportSink Sink(Out);
  Sink.beginRun(ReportRunInfo{});
  FalseSharingReport Report = makeSyntheticReport();
  Report.Object.IsHeap = false;
  Report.Object.CallsiteFrames.clear();
  Report.Object.GlobalName = "weird\"name\\with\nnewline\tand\x01ctl";
  Sink.finding(Report, true);
  Sink.endRun(ReportRunStats{});

  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Out, Document, Error)) << Error;
  const JsonValue &Finding = Document.find("findings")->elements()[0];
  EXPECT_EQ(Finding.find("object")->find("name")->asString(),
            Report.Object.GlobalName);
}

TEST(ReportSinkTest, JsonWritesTheKeptRowsAndTheirTotals) {
  // The builders cut the tables; the sink writes every row they kept, in
  // their order, and the uncut totals beside them.
  std::string Out;
  JsonReportSink Sink(Out);
  Sink.beginRun(ReportRunInfo{});
  FalseSharingReport Report = makeSyntheticReport();
  Report.WordsTotal = 40;
  Sink.finding(Report, true);
  PageSharingReport Page;
  Page.Lines.push_back({128, 3, 4, 700, 1, false});
  Page.LinesTotal = 20;
  Sink.pageFinding(Page, false);
  Sink.endRun(ReportRunStats{});

  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Out, Document, Error)) << Error;
  const JsonValue &Finding = Document.find("findings")->elements()[0];
  EXPECT_EQ(Finding.find("words_total")->asUint(), 40u);
  const JsonValue *Words = Finding.find("words");
  ASSERT_EQ(Words->size(), 2u);
  EXPECT_EQ(Words->elements()[0].find("reads")->asUint(), 500u);
  EXPECT_EQ(Words->elements()[1].find("offset")->asUint(), 64u);
  const JsonValue &PageFinding =
      Document.find("pageFindings")->elements()[0];
  EXPECT_EQ(PageFinding.find("lines_total")->asUint(), 20u);
  const JsonValue *Lines = PageFinding.find("lines");
  ASSERT_EQ(Lines->size(), 1u);
  EXPECT_EQ(Lines->elements()[0].find("offset")->asUint(), 128u);
}

TEST(ReportSinkTest, TextSinkFiltersInsignificantByDefault) {
  std::string Out;
  TextReportSink Sink(Out);
  Sink.beginRun(ReportRunInfo{});
  Sink.finding(makeSyntheticReport(), /*Significant=*/false);
  ReportRunStats Stats;
  Stats.Findings = 1;
  Sink.endRun(Stats);
  EXPECT_NE(Out.find("No significant false sharing detected"),
            std::string::npos);
  EXPECT_EQ(Out.find("alloc.c:42"), std::string::npos);
}

TEST(ReportSinkTest, TextSinkIncludesInsignificantWhenAsked) {
  std::string Out;
  TextReportSink::Options Options;
  Options.IncludeInsignificant = true;
  TextReportSink Sink(Out, Options);
  Sink.beginRun(ReportRunInfo{});
  Sink.finding(makeSyntheticReport(), /*Significant=*/false);
  Sink.endRun(ReportRunStats{});
  EXPECT_NE(Out.find("alloc.c:42"), std::string::npos);
  EXPECT_NE(Out.find("false-sharing"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The builders' table cut, on synthetic grain snapshots
//===----------------------------------------------------------------------===//

/// What the builders read around a snapshot: an empty heap, a data segment
/// for the globals a test defines, and an assessor over no threads.
struct BuilderWorld {
  static constexpr uint64_t SegmentBase = 0x10000000;

  CacheGeometry Geometry;
  runtime::HeapAllocator Heap{0x40000000, 1 << 20, Geometry};
  runtime::GlobalRegistry Globals{SegmentBase, 1 << 20, Geometry};
  runtime::CallsiteTable Callsites;
  SharingClassifier Classifier;
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  Assessor Assess{Registry, Phases, AssessorConfig{}};
};

/// A snapshot of the grain at \p Base whose bucket I was written
/// Counts[I] times by thread 1 (0 = untouched).
GrainSnapshot makeSnapshot(uint64_t Base, const std::vector<uint64_t> &Counts) {
  GrainSnapshot Snapshot;
  Snapshot.Base = Base;
  Snapshot.Buckets.resize(Counts.size());
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (Counts[I] == 0)
      continue;
    Snapshot.Buckets[I].Writes = Counts[I];
    Snapshot.Buckets[I].Cycles = 10 * Counts[I];
    Snapshot.Buckets[I].FirstThread = 1;
    Snapshot.Accesses += Counts[I];
  }
  Snapshot.Writes = Snapshot.Accesses;
  Snapshot.Cycles = 10 * Snapshot.Accesses;
  Snapshot.Threads.push_back({1, Snapshot.Accesses, Snapshot.Cycles});
  return Snapshot;
}

TEST(ReportBuilderTest, KeepsTheSixteenHottestWordsAndCountsEveryWord) {
  // One three-line global with 40 touched words: 12 hot ones at odd word
  // indices 17..39 (counts 100 down to 89), 8 tied at 50 — rows 12..19,
  // straddling the cut — and 20 touched once. Lines are added last line
  // first, so the tied words reach the builder out of offset order.
  BuilderWorld World;
  uint64_t Base = World.Globals.defineAligned("g", 3 * 64);
  ASSERT_EQ(Base, BuilderWorld::SegmentBase);
  std::vector<uint64_t> Counts(48, 0);
  for (size_t I = 0; I < 40; ++I)
    Counts[I] = 1;
  for (size_t Hot = 0; Hot < 12; ++Hot)
    Counts[39 - 2 * Hot] = 100 - Hot;
  for (size_t Tied : {30, 28, 26, 24, 9, 7, 5, 3})
    Counts[Tied] = 50;

  ReportBuilder Builder(World.Heap, World.Globals, World.Callsites,
                        World.Classifier, World.Geometry, ReportGate{});
  for (size_t Line = 3; Line-- > 0;) {
    auto First = Counts.begin() + 16 * Line;
    Builder.addLine(makeSnapshot(Base + 64 * Line,
                                 std::vector<uint64_t>(First, First + 16)));
  }
  ReportBuilder::Output Built = Builder.finalize(World.Assess, 1000000);
  ASSERT_EQ(Built.AllInstances.size(), 1u);
  const FalseSharingReport &Report = Built.AllInstances.front();

  EXPECT_EQ(Report.WordsTotal, 40u);
  ASSERT_EQ(Report.Words.size(), ReportTableRows);
  // Hottest first; among the tied words, the lowest offsets fill the last
  // four rows.
  std::vector<uint64_t> Want;
  for (size_t Hot = 0; Hot < 12; ++Hot)
    Want.push_back(4 * (39 - 2 * Hot));
  for (uint64_t Word : {3, 5, 7, 9})
    Want.push_back(4 * Word);
  for (size_t Row = 0; Row < ReportTableRows; ++Row) {
    EXPECT_EQ(Report.Words[Row].Offset, Want[Row]) << "row " << Row;
    EXPECT_EQ(Report.Words[Row].Writes, Counts[Want[Row] / 4]);
  }

  std::string Text = formatReport(Report);
  EXPECT_NE(Text.find("... 24 more words elided"), std::string::npos) << Text;
}

TEST(PageReportBuilderTest, NamesEveryObjectOnThePageBeforeTheCut) {
  // A page holding "hot" (lines 0..18) and "cold" (line 19). Twenty lines
  // are touched: hot's lines 0..15 at counts 100 down to 85, cold's only
  // line at 50 (the 17th hottest), hot's lines 16..18 at 10. The table
  // keeps hot's 16 lines, yet the finding still names both objects, so
  // its site key (and so its assessment) is the uncut page's.
  BuilderWorld World;
  uint64_t Hot = World.Globals.defineAligned("hot", 19 * 64);
  uint64_t Cold = World.Globals.defineAligned("cold", 64);
  ASSERT_EQ(Hot, BuilderWorld::SegmentBase);
  ASSERT_EQ(Cold, Hot + 19 * 64);
  std::vector<uint64_t> Counts(64, 0);
  for (size_t Line = 0; Line < 16; ++Line)
    Counts[Line] = 100 - Line;
  Counts[16] = Counts[17] = Counts[18] = 10;
  Counts[19] = 50;

  NumaTopology Topology(2, 4096);
  PageReportBuilder Builder(World.Heap, World.Globals, World.Callsites,
                            World.Classifier, Topology, World.Geometry,
                            PageReportGate{});
  PageNumaEvidence Numa;
  Numa.NodesObserved = 1;
  Builder.addPage(makeSnapshot(Hot, Counts), /*Home=*/0, Numa);
  PageReportBuilder::Output Built = Builder.finalize(World.Assess, 1000000);
  ASSERT_EQ(Built.AllInstances.size(), 1u);
  const PageSharingReport &Report = Built.AllInstances.front();

  EXPECT_EQ(Report.Objects, (std::vector<std::string>{"hot", "cold"}));
  EXPECT_EQ(Report.LinesTotal, 20u);
  ASSERT_EQ(Report.Lines.size(), ReportTableRows);
  for (size_t Row = 0; Row < ReportTableRows; ++Row)
    EXPECT_EQ(Report.Lines[Row].Offset, 64 * Row) << "row " << Row;

  std::string Text = formatPageReport(Report);
  EXPECT_NE(Text.find("... 4 more lines elided"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// ReportBuilder streaming order
//===----------------------------------------------------------------------===//

/// Sink that records the stream for order/flag assertions.
struct RecordingSink : ReportSink {
  std::vector<std::pair<uint64_t, bool>> Findings; // (object start, flag)
  unsigned Begins = 0, Ends = 0;

  void beginRun(const ReportRunInfo &) override { ++Begins; }
  void finding(const FalseSharingReport &Report, bool Significant) override {
    Findings.emplace_back(Report.Object.Start, Significant);
  }
  void endRun(const ReportRunStats &) override { ++Ends; }
};

TEST(ReportBuilderTest, StreamsFindingsInImprovementOrderWithFlags) {
  // Drive the profiler directly: a parallel phase with two threads
  // ping-pong writing two disjoint lines, then finish through a recording
  // sink. Stream order must equal AllInstances order (descending
  // improvement), flags must match the significant set, and the profiler
  // must call endRun exactly once (beginRun belongs to the caller).
  ProfilerConfig Config;
  Config.Report.MinInvalidations = 1;
  Config.Report.MinImprovementFactor = 0.0;
  Profiler Prof(Config);
  Prof.internCallsite("report_test.c", 1);
  Prof.threadStarted(0, /*IsMain=*/true, 0);
  Prof.threadStarted(1, /*IsMain=*/false, 10);
  Prof.threadStarted(2, /*IsMain=*/false, 10);

  // Two disjoint lines, each ping-pong written by both child threads on
  // private words: classic false sharing on both.
  std::vector<pmu::Sample> Samples;
  for (unsigned I = 0; I < 128; ++I) {
    ThreadId Tid = 1 + (I % 2);
    pmu::Sample Sample;
    Sample.Address =
        Config.HeapArenaBase + ((I / 2) % 2) * 1024 + Tid * 4;
    Sample.Tid = Tid;
    Sample.IsWrite = true;
    Sample.LatencyCycles = 100;
    Samples.push_back(Sample);
  }
  Prof.ingestBatch(Samples.data(), Samples.size());

  RecordingSink Sink;
  sim::SimulationResult Run;
  Run.TotalCycles = 100000;
  ProfileResult Result = Prof.finish(Run, &Sink);

  EXPECT_EQ(Sink.Begins, 0u);
  EXPECT_EQ(Sink.Ends, 1u);
  ASSERT_EQ(Sink.Findings.size(), Result.AllInstances.size());
  size_t Significant = 0;
  for (size_t I = 0; I < Sink.Findings.size(); ++I) {
    EXPECT_EQ(Sink.Findings[I].first, Result.AllInstances[I].Object.Start);
    Significant += Sink.Findings[I].second ? 1 : 0;
    if (I > 0) {
      EXPECT_GE(Result.AllInstances[I - 1].Impact.ImprovementFactor,
                Result.AllInstances[I].Impact.ImprovementFactor);
    }
  }
  EXPECT_EQ(Significant, Result.Reports.size());
}

} // namespace
