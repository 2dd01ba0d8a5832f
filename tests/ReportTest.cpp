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
/// the schema (`cheetah-report-v6`) is a compatibility contract for
/// multi-run comparison tooling (`cheetah-diff`), so key names are pinned
/// here. The schema *version* is pinned just as hard: v2 added the
/// pageFindings sections, v3 added their assessment and the top-level
/// predictedImprovement factors, v4 added the per-page-finding
/// remote_by_distance breakdown, v5 cut the word and line tables to their
/// hottest rows and added their totals, v6 left the tables of
/// insignificant findings empty, and consumers built against superseded
/// versions must fail loudly on the version string rather than silently
/// ignore (or misread) the new data. The builders' cut itself is tested
/// on synthetic grain snapshots.
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
  Config.Profiler.Pmu.SamplingPeriod = 512;
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
  EXPECT_EQ(Document.find("schema")->asString(), "cheetah-report-v6");

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
  EXPECT_EQ(Summary->find("findings")->asUint(), Profile.Findings.size());
  EXPECT_EQ(Summary->find("significant_findings")->asUint(),
            significant(Profile.Findings).size());
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

  // Findings stream in the result's order with matching fields.
  const JsonValue *Findings = Document.find("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_TRUE(Findings->isArray());
  ASSERT_EQ(Findings->size(), Profile.Findings.size());
  ASSERT_GT(Findings->size(), 0u) << "workload must produce findings";

  size_t SignificantSeen = 0;
  for (size_t I = 0; I < Findings->size(); ++I) {
    const JsonValue &Finding = Findings->elements()[I];
    const FalseSharingReport &Expected = Profile.Findings[I];
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
    EXPECT_EQ(Finding.find("significant")->asBool(), Expected.Significant);
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
    // v6: a significant finding keeps its rows, an insignificant one none.
    EXPECT_GT(Expected.WordsTotal, 0u);
    EXPECT_EQ(Words->size() > 0, Finding.find("significant")->asBool());
    for (size_t W = 0; W < Words->size(); ++W) {
      EXPECT_EQ(Words->elements()[W].find("reads")->asUint(),
                Expected.Words[W].Reads);
      EXPECT_EQ(Words->elements()[W].find("writes")->asUint(),
                Expected.Words[W].Writes);
    }
  }
  EXPECT_EQ(SignificantSeen, significant(Profile.Findings).size());

  // The known workload's false sharing is present and significant.
  auto Significant = significant(Profile.Findings);
  ASSERT_FALSE(Significant.empty());
  EXPECT_EQ(Significant.front()->Kind, SharingKind::FalseSharing);
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
  EXPECT_NE(Document.find("schema")->asString(), "cheetah-report-v4");
}

TEST(JsonReportGoldenTest, SchemaVersionGatesV5Consumers) {
  // v6 leaves the word and line tables of insignificant findings empty: a
  // consumer pinning "cheetah-report-v5" that reads those rows must reject
  // the document rather than read an empty table as an untouched object.
  std::string JsonText;
  runKnownWorkload(JsonText);
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  ASSERT_NE(Document.find("schema"), nullptr);
  const std::string &Schema = Document.find("schema")->asString();
  // A strict v5 consumer must fail loudly here...
  EXPECT_NE(Schema, "cheetah-report-v5");
  // ...and the version that replaced it is pinned exactly.
  EXPECT_EQ(Schema, "cheetah-report-v6");
}

/// A deterministic page-granularity run over the node-interleaved NUMA
/// workload: two nodes, dense sampling, line + page tracking both on.
driver::SessionResult runKnownPageWorkload(std::string &JsonText) {
  auto Workload = workloads::createWorkload("numa_interleaved");
  EXPECT_NE(Workload, nullptr);
  driver::SessionConfig Config;
  Config.Profiler.Pmu.SamplingPeriod = 256;
  Config.Profiler.Topology = NumaTopology(2, 4096);
  Config.Profiler.Detect.TrackPages = true;
  Config.Workload.Threads = 8;
  Config.Workload.Scale = 0.5;
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
  ASSERT_EQ(PageFindings->size(), Profile.PageFindings.size());
  ASSERT_GT(PageFindings->size(), 0u)
      << "the node-interleaved workload must produce page findings";

  size_t SignificantSeen = 0;
  for (size_t I = 0; I < PageFindings->size(); ++I) {
    const JsonValue &Finding = PageFindings->elements()[I];
    const PageSharingReport &Expected = Profile.PageFindings[I];
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
    EXPECT_EQ(Finding.find("significant")->asBool(), Expected.Significant);
    if (Finding.find("significant")->asBool())
      ++SignificantSeen;
    const JsonValue *Lines = Finding.find("lines");
    ASSERT_NE(Lines, nullptr);
    ASSERT_EQ(Lines->size(), Expected.Lines.size());
    EXPECT_LE(Lines->size(), ReportTableRows);
    ASSERT_NE(Finding.find("lines_total"), nullptr);
    EXPECT_EQ(Finding.find("lines_total")->asUint(), Expected.LinesTotal);
    EXPECT_GE(Expected.LinesTotal, Expected.Lines.size());
    EXPECT_GT(Expected.LinesTotal, 0u);
    EXPECT_EQ(Lines->size() > 0, Finding.find("significant")->asBool());
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
  EXPECT_EQ(SignificantSeen, significant(Profile.PageFindings).size());

  // The headline finding: false page sharing across two nodes, on the
  // workload's named global, invisible to the line-level gate.
  auto Significant = significant(Profile.PageFindings);
  ASSERT_FALSE(Significant.empty());
  EXPECT_EQ(Significant.front()->Kind, SharingKind::FalseSharing);
  EXPECT_GE(Significant.front()->NodesObserved, 2u);
  EXPECT_TRUE(significant(Profile.Findings).empty())
      << "line-granularity must not report the interleaved hammering";

  // Summary page counters round-trip.
  const JsonValue *Summary = Document.find("summary");
  ASSERT_NE(Summary, nullptr);
  EXPECT_EQ(Summary->find("page_findings")->asUint(),
            Profile.PageFindings.size());
  EXPECT_EQ(Summary->find("significant_page_findings")->asUint(),
            significant(Profile.PageFindings).size());
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
/// for the globals a test defines, and an assessor over the threads and
/// phases a test registers (none unless it calls forkJoin).
struct BuilderWorld {
  static constexpr uint64_t SegmentBase = 0x10000000;

  CacheGeometry Geometry;
  runtime::HeapAllocator Heap{0x40000000, 1 << 20, Geometry};
  runtime::GlobalRegistry Globals{SegmentBase, 1 << 20, Geometry};
  runtime::CallsiteTable Callsites;
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  Assessor Assess{Registry, Phases};

  /// A fork-join run: main thread 0 spawns threads 1 and 2 at cycle 1,000,
  /// each runs 100,000 cycles and takes \p Samples samples worth \p Cycles
  /// cycles in all, and main ends at 102,000.
  void forkJoin(uint64_t Samples, uint64_t Cycles) {
    Registry.threadStarted(0, /*IsMain=*/true, 0);
    Phases.programBegin(0, 0);
    for (ThreadId Tid : {1, 2}) {
      Registry.threadStarted(Tid, /*IsMain=*/false, 1000);
      Phases.threadCreated(Tid, /*Creator=*/0, 1000);
      Registry.recordSamples(Tid, Samples, Cycles);
    }
    for (ThreadId Tid : {1, 2}) {
      Registry.threadFinished(Tid, 101000);
      Phases.threadFinished(Tid, 101000);
    }
    Registry.threadFinished(0, 102000);
    Phases.programEnd(102000);
  }
};

/// A snapshot of the grain at \p Base whose bucket I was written
/// Counts[I] times (0 = untouched) by thread 1 + I % \p Threads alone, so
/// no bucket is shared, and that counts \p Invalidations.
GrainSnapshot makeSnapshot(uint64_t Base, const std::vector<uint64_t> &Counts,
                           ThreadId Threads = 1, uint64_t Invalidations = 0) {
  GrainSnapshot Snapshot;
  Snapshot.Base = Base;
  Snapshot.Invalidations = Invalidations;
  Snapshot.Buckets.resize(Counts.size());
  for (ThreadId Tid = 1; Tid <= Threads; ++Tid)
    Snapshot.Threads.push_back({Tid, 0, 0});
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (Counts[I] == 0)
      continue;
    ThreadLineStats &Writer = Snapshot.Threads[I % Threads];
    Snapshot.Buckets[I].Writes = Counts[I];
    Snapshot.Buckets[I].Cycles = 10 * Counts[I];
    Snapshot.Buckets[I].FirstThread = Writer.Tid;
    Writer.Accesses += Counts[I];
    Writer.Cycles += 10 * Counts[I];
    Snapshot.Accesses += Counts[I];
  }
  Snapshot.Writes = Snapshot.Accesses;
  Snapshot.Cycles = 10 * Snapshot.Accesses;
  return Snapshot;
}

/// One three-line global "g" with 40 touched words: 12 hot ones at odd
/// word indices 17..39 (counts 100 down to 89), 8 tied at 50 — rows
/// 12..19 of a hottest-first table, straddling the cut — and 20 touched
/// once. Each line is written by \p Threads threads on disjoint words and
/// counts \p Invalidations. Lines are added last line first, so the tied
/// words reach the builder out of offset order.
struct WordCutCase {
  static constexpr uint64_t Invalidations = 20;

  BuilderWorld World;
  uint64_t Base = World.Globals.defineAligned("g", 3 * 64);
  std::vector<uint64_t> Counts = std::vector<uint64_t>(48, 0);

  WordCutCase() {
    for (size_t I = 0; I < 40; ++I)
      Counts[I] = 1;
    for (size_t Hot = 0; Hot < 12; ++Hot)
      Counts[39 - 2 * Hot] = 100 - Hot;
    for (size_t Tied : {30, 28, 26, 24, 9, 7, 5, 3})
      Counts[Tied] = 50;
    // Each thread samples 20,000 cycles, of which the object's words take
    // 2,160 (thread 1) and 13,380 (thread 2): a shared object predicts
    // about 1.044x, clear of the line gate's 1.005.
    World.forkJoin(/*Samples=*/2000, /*Cycles=*/20000);
  }

  /// The one finding the builder makes.
  FalseSharingReport build(ThreadId Threads) {
    ReportBuilder Builder(World.Heap, World.Globals, World.Callsites,
                          World.Geometry);
    for (size_t Line = 3; Line-- > 0;) {
      auto First = Counts.begin() + 16 * Line;
      Builder.addLine(makeSnapshot(Base + 64 * Line,
                                   std::vector<uint64_t>(First, First + 16),
                                   Threads, Invalidations));
    }
    std::vector<FalseSharingReport> Findings =
        Builder.finalize(World.Assess, 102000);
    EXPECT_EQ(Findings.size(), 1u);
    return Findings.at(0);
  }
};

TEST(ReportBuilderTest, KeepsTheSixteenHottestWordsAndCountsEveryWord) {
  // Two threads false-share the object, so it passes the gate and keeps
  // its hottest words.
  WordCutCase Case;
  ASSERT_EQ(Case.Base, BuilderWorld::SegmentBase);
  FalseSharingReport Report = Case.build(/*Threads=*/2);
  ASSERT_TRUE(Report.Significant);
  ASSERT_EQ(Report.Kind, SharingKind::FalseSharing);

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
    EXPECT_EQ(Report.Words[Row].Writes, Case.Counts[Want[Row] / 4]);
  }

  std::string Text = formatReport(Report);
  EXPECT_NE(Text.find("... 24 more words elided"), std::string::npos) << Text;
}

TEST(ReportBuilderTest, InsignificantObjectCountsEveryWordAndKeepsNone) {
  // The same object written by one thread shares nothing, fails the gate,
  // and so gets no word table — but still counts every touched word.
  WordCutCase Case;
  FalseSharingReport Report = Case.build(/*Threads=*/1);
  ASSERT_FALSE(Report.Significant);
  EXPECT_EQ(Report.Kind, SharingKind::NotShared);
  EXPECT_EQ(Report.WordsTotal, 40u);
  EXPECT_TRUE(Report.Words.empty());
  EXPECT_EQ(Report.SampledAccesses, (100u + 89u) * 12u / 2u + 8u * 50u + 20u);
  EXPECT_EQ(Report.Invalidations, 3 * WordCutCase::Invalidations);

  std::string Text = formatReport(Report);
  EXPECT_EQ(Text.find("Word-level accesses"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("elided"), std::string::npos) << Text;
}

/// The one finding of a line of "g" whose words 0 and 1 threads 1 and 2
/// each wrote 50 times (500 of each thread's 1,000 sampled cycles), with
/// \p Invalidations invalidations, assessed against a measured
/// \p AppRuntime. EQ.1 replaces each thread's 500 object cycles with
/// 50 x 6 (the default latency), so EQ.4 predicts 1,000 + 80,000 + 1,000 =
/// 82,000 cycles and the factor is AppRuntime / 82,000.
FalseSharingReport lineFinding(uint64_t Invalidations, uint64_t AppRuntime) {
  BuilderWorld World;
  World.forkJoin(/*Samples=*/100, /*Cycles=*/1000);
  uint64_t Base = World.Globals.defineAligned("g", 64);
  std::vector<uint64_t> Counts(16, 0);
  Counts[0] = Counts[1] = 50;
  ReportBuilder Builder(World.Heap, World.Globals, World.Callsites,
                        World.Geometry);
  Builder.addLine(makeSnapshot(Base, Counts, /*Threads=*/2, Invalidations));
  std::vector<FalseSharingReport> Findings =
      Builder.finalize(World.Assess, AppRuntime);
  EXPECT_EQ(Findings.size(), 1u);
  return Findings.at(0);
}

TEST(ReportBuilderTest, LineGateEdgeIsSixteenInvalidations) {
  // False sharing predicted at 102,000 / 82,000 = 1.24x: the invalidation
  // count alone decides.
  FalseSharingReport Below = lineFinding(/*Invalidations=*/15, 102000);
  ASSERT_EQ(Below.Kind, SharingKind::FalseSharing);
  EXPECT_DOUBLE_EQ(Below.Impact.PredictedAppRuntime, 82000.0);
  EXPECT_FALSE(Below.Significant);
  EXPECT_TRUE(Below.Words.empty());

  FalseSharingReport At = lineFinding(/*Invalidations=*/16, 102000);
  EXPECT_TRUE(At.Significant);
  EXPECT_EQ(At.Words.size(), 2u);
}

TEST(ReportBuilderTest, LineGateEdgeIsImprovementFactorOnePointZeroZeroFive) {
  // 16 invalidations, so the factor alone decides: a measured 82,410
  // cycles is exactly 1.005x the predicted 82,000, and 82,409 just below.
  FalseSharingReport Below = lineFinding(/*Invalidations=*/16, 82409);
  EXPECT_DOUBLE_EQ(Below.Impact.PredictedAppRuntime, 82000.0);
  EXPECT_LT(Below.Impact.ImprovementFactor, 1.005);
  EXPECT_FALSE(Below.Significant);

  FalseSharingReport At = lineFinding(/*Invalidations=*/16, 82410);
  EXPECT_EQ(At.Impact.ImprovementFactor, 1.005);
  EXPECT_TRUE(At.Significant);
}

/// A page holding "hot" (lines 0..18) and "cold" (line 19). Twenty lines
/// are touched: hot's lines 0..15 at counts 100 down to 85, cold's only
/// line at 50 (the 17th hottest), hot's lines 16..18 at 10.
struct LineCutCase {
  BuilderWorld World;
  uint64_t Hot = World.Globals.defineAligned("hot", 19 * 64);
  uint64_t Cold = World.Globals.defineAligned("cold", 64);
  std::vector<uint64_t> Counts = std::vector<uint64_t>(64, 0);

  LineCutCase() {
    for (size_t Line = 0; Line < 16; ++Line)
      Counts[Line] = 100 - Line;
    Counts[16] = Counts[17] = Counts[18] = 10;
    Counts[19] = 50;
  }

  /// The page's one finding when one node, node 0 (the home), issued all
  /// but \p RemoteAccesses of its accesses.
  PageSharingReport build(uint64_t RemoteAccesses) {
    NumaTopology Topology(2, 4096);
    PageReportBuilder Builder(World.Heap, World.Globals, World.Callsites,
                              Topology, World.Geometry);
    PageNumaEvidence Numa;
    Numa.NodesObserved = 1;
    Numa.RemoteAccesses = RemoteAccesses;
    Builder.addPage(makeSnapshot(Hot, Counts), /*Home=*/0, Numa);
    std::vector<PageSharingReport> Findings =
        Builder.finalize(World.Assess, 1000000);
    EXPECT_EQ(Findings.size(), 1u);
    return Findings.at(0);
  }
};

TEST(PageReportBuilderTest, NamesEveryObjectOnThePageBeforeTheCut) {
  // Remote placement: its 32 remote accesses make the page significant.
  // The table keeps hot's 16 lines, yet the finding still names both
  // objects, so its site key (and so its assessment) is the uncut page's.
  LineCutCase Case;
  ASSERT_EQ(Case.Hot, BuilderWorld::SegmentBase);
  ASSERT_EQ(Case.Cold, Case.Hot + 19 * 64);
  PageSharingReport Report = Case.build(PageMinRemoteAccesses);
  ASSERT_TRUE(Report.Significant);

  EXPECT_EQ(Report.Objects, (std::vector<std::string>{"hot", "cold"}));
  EXPECT_EQ(Report.LinesTotal, 20u);
  ASSERT_EQ(Report.Lines.size(), ReportTableRows);
  for (size_t Row = 0; Row < ReportTableRows; ++Row)
    EXPECT_EQ(Report.Lines[Row].Offset, 64 * Row) << "row " << Row;

  std::string Text = formatPageReport(Report);
  EXPECT_NE(Text.find("... 4 more lines elided"), std::string::npos) << Text;
}

TEST(PageReportBuilderTest, InsignificantPageNamesEveryObjectAndKeepsNoLine) {
  // The same page touched only from its home node fails the gate: no line
  // table, but every touched line still counts and names its object.
  LineCutCase Case;
  PageSharingReport Report = Case.build(/*RemoteAccesses=*/0);
  ASSERT_FALSE(Report.Significant);

  EXPECT_EQ(Report.Objects, (std::vector<std::string>{"hot", "cold"}));
  EXPECT_EQ(Report.LinesTotal, 20u);
  EXPECT_TRUE(Report.Lines.empty());

  std::string Text = formatPageReport(Report);
  EXPECT_EQ(Text.find("Line-level accesses"), std::string::npos) << Text;
  EXPECT_NE(Text.find("hot\ncold\n"), std::string::npos) << Text;
}

/// Whether the page gate passes a page of "p" observed from \p Nodes nodes,
/// with \p Invalidations cross-node invalidations and \p RemoteAccesses
/// remote samples among its 200.
bool pagePassesGate(size_t Nodes, uint64_t Invalidations,
                    uint64_t RemoteAccesses) {
  BuilderWorld World;
  uint64_t Base = World.Globals.defineAligned("p", 4096);
  NumaTopology Topology(2, 4096);
  PageReportBuilder Builder(World.Heap, World.Globals, World.Callsites,
                            Topology, World.Geometry);
  std::vector<uint64_t> Counts(64, 0);
  Counts[0] = 200;
  PageNumaEvidence Numa;
  Numa.NodesObserved = Nodes;
  Numa.RemoteAccesses = RemoteAccesses;
  Builder.addPage(makeSnapshot(Base, Counts, /*Threads=*/1, Invalidations),
                  /*Home=*/0, Numa);
  std::vector<PageSharingReport> Findings =
      Builder.finalize(World.Assess, 1000000);
  EXPECT_EQ(Findings.size(), 1u);
  return Findings.at(0).Significant;
}

TEST(PageReportBuilderTest, GateEdgesAreEightInvalidationsAndThirtyTwoRemote) {
  // Contention: a page two nodes share passes at 8 cross-node
  // invalidations, not at 7.
  EXPECT_FALSE(pagePassesGate(/*Nodes=*/2, /*Invalidations=*/7, 0));
  EXPECT_TRUE(pagePassesGate(/*Nodes=*/2, /*Invalidations=*/8, 0));
  // Placement: a page one remote node uses passes at 32 remote accesses,
  // not at 31.
  EXPECT_FALSE(pagePassesGate(/*Nodes=*/1, 0, /*RemoteAccesses=*/31));
  EXPECT_TRUE(pagePassesGate(/*Nodes=*/1, 0, /*RemoteAccesses=*/32));
}

TEST(PageReportBuilderTest, RemoteTrafficOnASharedPageIsNoPlacementFinding) {
  // Placement findings are single-node only: a page two nodes share with
  // no cross-node invalidation stays insignificant, however remote.
  EXPECT_FALSE(pagePassesGate(/*Nodes=*/2, /*Invalidations=*/0,
                              /*RemoteAccesses=*/100));
}

TEST(ReportBuilderTest, MixedSharingAboveBothLineThresholdsIsSignificant) {
  // One line of "m": threads 1 and 2 both write word 0, which takes half
  // of the line's accesses, so the line and the object are mixed sharing.
  // The object's 20 invalidations and its predicted improvement clear the
  // gate, and mixed sharing is reported like false sharing.
  BuilderWorld World;
  World.forkJoin(/*Samples=*/100, /*Cycles=*/1000);

  // Thread 1 writes words 0 and 2, thread 2 word 1, at 10 cycles each.
  uint64_t Base = World.Globals.defineAligned("m", 64);
  std::vector<uint64_t> Counts(16, 0);
  Counts[0] = 50;
  Counts[1] = Counts[2] = 25;
  GrainSnapshot Line =
      makeSnapshot(Base, Counts, /*Threads=*/2, /*Invalidations=*/20);
  Line.Buckets[0].MultiThread = true;

  ReportBuilder Builder(World.Heap, World.Globals, World.Callsites,
                        World.Geometry);
  Builder.addLine(Line);
  std::vector<FalseSharingReport> Findings =
      Builder.finalize(World.Assess, 102000);
  ASSERT_EQ(Findings.size(), 1u);
  const FalseSharingReport &Report = Findings[0];
  EXPECT_EQ(Report.Kind, SharingKind::Mixed);
  EXPECT_GT(Report.Invalidations, LineMinInvalidations);
  EXPECT_GT(Report.Impact.ImprovementFactor, LineMinImprovementFactor);
  EXPECT_TRUE(Report.Significant);
  EXPECT_EQ(Report.Object.GlobalName, "m");
}

//===----------------------------------------------------------------------===//
// The profiler's one report stream
//===----------------------------------------------------------------------===//

/// Sink that records the stream: each finding's key and flag, in order.
struct RecordingSink : ReportSink {
  std::vector<std::pair<uint64_t, bool>> Findings;     // (object start, flag)
  std::vector<std::pair<uint64_t, bool>> PageFindings; // (page base, flag)
  unsigned Begins = 0, Ends = 0;
  ReportRunStats Stats;

  void beginRun(const ReportRunInfo &) override { ++Begins; }
  void finding(const FalseSharingReport &Report, bool Significant) override {
    Findings.emplace_back(Report.Object.Start, Significant);
  }
  void pageFinding(const PageSharingReport &Report,
                   bool Significant) override {
    PageFindings.emplace_back(Report.PageBase, Significant);
  }
  void endRun(const ReportRunStats &RunStats) override {
    ++Ends;
    Stats = RunStats;
  }
};

/// Checks that \p Stream is \p List in order, that each streamed flag is
/// the finding's own Significant, and that significant() returns exactly
/// the flagged findings, in order.
template <typename Finding, typename KeyOf>
void expectStreamIsTheList(const std::vector<std::pair<uint64_t, bool>> &Stream,
                           const std::vector<Finding> &List, KeyOf Key) {
  ASSERT_EQ(Stream.size(), List.size());
  std::vector<const Finding *> Flagged;
  for (size_t I = 0; I < List.size(); ++I) {
    EXPECT_EQ(Stream[I].first, Key(List[I])) << "finding " << I;
    EXPECT_EQ(Stream[I].second, List[I].Significant) << "finding " << I;
    if (Stream[I].second)
      Flagged.push_back(&List[I]);
  }
  EXPECT_EQ(significant(List), Flagged);
}

TEST(ReportStreamTest, LineFindingsStreamAsTheResultListWithTheirFlags) {
  // Drive the profiler directly through a fork-join run: threads 1 and 2
  // ping-pong write private words of two lines (false sharing), and
  // thread 1 alone writes a third (not shared). finish() streams
  // Result.Findings in order, each with its own flag, then calls endRun
  // once with counts taken from the flags (beginRun is the caller's).
  ProfilerConfig Config;
  Profiler Prof(Config);
  Prof.threadStarted(0, /*IsMain=*/true, 0);
  Prof.threadStarted(1, /*IsMain=*/false, 10);
  Prof.threadStarted(2, /*IsMain=*/false, 10);
  std::vector<pmu::Sample> Samples;
  auto Write = [&Samples](uint64_t Address, ThreadId Tid) {
    pmu::Sample Sample;
    Sample.Address = Address;
    Sample.Tid = Tid;
    Sample.IsWrite = true;
    Sample.LatencyCycles = 100;
    Samples.push_back(Sample);
  };
  for (unsigned I = 0; I < 512; ++I) {
    ThreadId Tid = 1 + (I % 2);
    Write(HeapArenaBase + ((I / 2) % 2) * 1024 + Tid * 4, Tid);
  }
  for (unsigned I = 0; I < 64; ++I)
    Write(HeapArenaBase + 2048, 1);
  Prof.ingestBatch(Samples.data(), Samples.size());
  Prof.threadFinished(1, /*IsMain=*/false, 100010);
  Prof.threadFinished(2, /*IsMain=*/false, 100010);
  Prof.threadFinished(0, /*IsMain=*/true, 100020);

  RecordingSink Sink;
  sim::SimulationResult Run;
  Run.TotalCycles = 100020;
  ProfileResult Result = Prof.finish(Run, &Sink);

  EXPECT_EQ(Sink.Begins, 0u);
  EXPECT_EQ(Sink.Ends, 1u);
  EXPECT_TRUE(Sink.PageFindings.empty());
  expectStreamIsTheList(
      Sink.Findings, Result.Findings,
      [](const FalseSharingReport &F) { return F.Object.Start; });
  // Both flags occur: the two shared lines pass the gate, the private one
  // does not.
  ASSERT_EQ(Result.Findings.size(), 3u);
  EXPECT_EQ(significant(Result.Findings).size(), 2u);
  EXPECT_EQ(Sink.Stats.Findings, 3u);
  EXPECT_EQ(Sink.Stats.SignificantFindings, 2u);
  for (size_t I = 1; I < Result.Findings.size(); ++I)
    EXPECT_GE(Result.Findings[I - 1].Impact.ImprovementFactor,
              Result.Findings[I].Impact.ImprovementFactor);
}

TEST(ReportStreamTest, PageFindingsStreamAsTheResultListWithTheirFlags) {
  // A two-node first-touch run with line and page tracking, whose block
  // pages are significant only where enough remote samples landed: every
  // line finding streams, then every page finding, each in its list's
  // order with its own flag.
  auto Workload = workloads::createWorkload("numa_first_touch");
  ASSERT_NE(Workload, nullptr);
  driver::SessionConfig Config;
  Config.Profiler.Pmu.SamplingPeriod = 256;
  Config.Profiler.Topology = NumaTopology(2, 4096);
  Config.Profiler.Detect.TrackPages = true;
  Config.Workload.Threads = 8;
  RecordingSink Sink;
  driver::SessionResult Result = driver::runWorkload(*Workload, Config, &Sink);
  const ProfileResult &Profile = Result.Profile;

  EXPECT_EQ(Sink.Ends, 1u);
  expectStreamIsTheList(
      Sink.Findings, Profile.Findings,
      [](const FalseSharingReport &F) { return F.Object.Start; });
  expectStreamIsTheList(
      Sink.PageFindings, Profile.PageFindings,
      [](const PageSharingReport &F) { return F.PageBase; });
  // Both flags occur among the pages.
  size_t SignificantPages = significant(Profile.PageFindings).size();
  EXPECT_GT(SignificantPages, 0u);
  EXPECT_LT(SignificantPages, Profile.PageFindings.size());
  EXPECT_EQ(Sink.Stats.PageFindings, Profile.PageFindings.size());
  EXPECT_EQ(Sink.Stats.SignificantPageFindings, SignificantPages);
}

} // namespace
