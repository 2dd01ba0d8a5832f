//===- tests/PageDetectTest.cpp - page-granularity detection tests ---------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and end-to-end tests for the page-granularity (NUMA / remote-DRAM)
/// detection layer: the node-actor reuse of the packed two-entry table,
/// PageTable's first-touch home publication and lazy materialization, the
/// detector's page stage gating, the classifier reuse at page granularity,
/// and the acceptance scenario — the node-interleaved workload produces a
/// significant page-sharing finding that the line-granularity detector
/// does not surface, and the fixes silence it.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/Detector.h"
#include "core/detect/PageInfo.h"
#include "core/detect/PageTable.h"
#include "driver/ProfileSession.h"
#include "mem/NumaTopology.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::core;

namespace {

constexpr uint64_t RegionBase = 0x4000'0000;
constexpr uint64_t PageSize = 4096;
constexpr uint64_t LineSize = 64;

pmu::Sample makeSample(uint64_t Address, ThreadId Tid, bool IsWrite,
                       uint32_t Latency = 30) {
  pmu::Sample Sample;
  Sample.Address = Address;
  Sample.Tid = Tid;
  Sample.IsWrite = IsWrite;
  Sample.LatencyCycles = Latency;
  return Sample;
}

/// Delivers one sample as a batch of one.
void deliver(Detector &D, const pmu::Sample &S, bool InParallelPhase) {
  D.handleBatch(&S, 1, InParallelPhase);
}

//===----------------------------------------------------------------------===//
// NumaTopology geometry and affinity
//===----------------------------------------------------------------------===//

TEST(NumaTopologyTest, GeometryAndAffinity) {
  NumaTopology Topology(4, 4096);
  EXPECT_EQ(Topology.nodeCount(), 4u);
  EXPECT_TRUE(Topology.multiNode());
  EXPECT_EQ(Topology.pageSize(), 4096u);
  EXPECT_EQ(Topology.pageShift(), 12u);
  EXPECT_EQ(Topology.pageBase(0x40001234), 0x40001000u);
  EXPECT_EQ(Topology.offsetInPage(0x40001234), 0x234u);
  EXPECT_TRUE(Topology.sharesPage(0x40001000, 0x40001FFF));
  EXPECT_FALSE(Topology.sharesPage(0x40001000, 0x40002000));
  // Interleaved affinity, main thread on node 0.
  EXPECT_EQ(Topology.nodeOf(0), 0u);
  EXPECT_EQ(Topology.nodeOf(1), 1u);
  EXPECT_EQ(Topology.nodeOf(5), 1u);
  EXPECT_EQ(Topology.nodeOf(7), 3u);
}

TEST(NumaTopologyTest, SingleNodeIsUma) {
  NumaTopology Topology;
  EXPECT_FALSE(Topology.multiNode());
  for (ThreadId Tid = 0; Tid < 64; ++Tid)
    EXPECT_EQ(Topology.nodeOf(Tid), 0u);
}

//===----------------------------------------------------------------------===//
// PageInfo: the node-actor two-entry rule, case by case
//===----------------------------------------------------------------------===//

TEST(PageInfoTest, SingleNodeNeverInvalidatesAfterFirstWrite) {
  PageInfo Info(PageSize / LineSize);
  EXPECT_TRUE(Info.recordAccess(0, 0, AccessKind::Write, 0, 10, false));
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(
        Info.recordAccess(0, 0, AccessKind::Write, I % 64, 10, false));
    EXPECT_FALSE(
        Info.recordAccess(0, 0, AccessKind::Read, I % 64, 10, false));
  }
  EXPECT_EQ(Info.invalidations(), 1u);
  EXPECT_EQ(Info.nodeCount(), 1u);
}

TEST(PageInfoTest, CrossNodePingPongInvalidatesEachTime) {
  PageInfo Info(PageSize / LineSize);
  Info.recordAccess(0, 0, AccessKind::Write, 0, 10, false);
  uint64_t Invalidations = 0;
  for (int I = 0; I < 10; ++I)
    Invalidations +=
        Info.recordAccess(I % 2 ? 0 : 1, I % 2 ? 0 : 1, AccessKind::Write,
                          I % 2 ? 0 : 1, 10, I % 2 == 0);
  EXPECT_EQ(Invalidations, 10u);
  EXPECT_EQ(Info.invalidations(), 11u);
  EXPECT_EQ(Info.nodeCount(), 2u);
  // The packed table's entries are node ids and stay distinct.
  EXPECT_LE(Info.table().size(), 2u);
}

TEST(PageInfoTest, RemoteDistanceBucketsConserveRemoteTotals) {
  PageInfo Info(PageSize / LineSize);
  // Local accesses never land in a bucket.
  Info.recordAccess(0, 0, AccessKind::Write, 0, 100, /*Remote=*/false, 0);
  EXPECT_TRUE(Info.remoteByDistance().empty());

  // Remote samples bucket per distinct crossed distance, sorted.
  Info.recordAccess(1, 1, AccessKind::Read, 1, 50, true, 48);
  Info.recordAccess(1, 1, AccessKind::Write, 1, 70, true, 48);
  Info.recordAccess(2, 2, AccessKind::Read, 2, 30, true, 16);
  // Distance 0 from an untopologized caller folds into the default.
  Info.recordAccess(3, 3, AccessKind::Read, 3, 20, true, 0);

  std::vector<RemoteDistanceStats> Buckets = Info.remoteByDistance();
  ASSERT_EQ(Buckets.size(), 3u);
  EXPECT_EQ(Buckets[0].Distance, NumaTopology::DefaultRemoteDistance);
  EXPECT_EQ(Buckets[1].Distance, 16u);
  EXPECT_EQ(Buckets[1].Accesses, 1u);
  EXPECT_EQ(Buckets[2].Distance, 48u);
  EXPECT_EQ(Buckets[2].Accesses, 2u);
  EXPECT_EQ(Buckets[2].Cycles, 120u);

  uint64_t Accesses = 0, Cycles = 0;
  for (const RemoteDistanceStats &Bucket : Buckets) {
    Accesses += Bucket.Accesses;
    Cycles += Bucket.Cycles;
  }
  EXPECT_EQ(Accesses, Info.remoteAccesses());
  EXPECT_EQ(Cycles, Info.remoteCycles());
}

TEST(PageInfoTest, CountersAndNodeSet) {
  PageInfo Info(PageSize / LineSize);
  Info.recordAccess(0, 0, AccessKind::Write, 0, 100, false);
  Info.recordAccess(1, 1, AccessKind::Read, 1, 50, true);
  Info.recordAccess(1, 1, AccessKind::Write, 1, 70, true);

  EXPECT_EQ(Info.accesses(), 3u);
  EXPECT_EQ(Info.writes(), 2u);
  EXPECT_EQ(Info.cycles(), 220u);
  EXPECT_EQ(Info.remoteAccesses(), 2u);
  EXPECT_EQ(Info.remoteCycles(), 120u);

  // Two nodes touched the page; repeat touches add no node.
  EXPECT_EQ(Info.nodeCount(), 2u);

  // Per-line histogram: line 0 single-node, line 1 single-node (node 1).
  std::vector<WordStats> Lines = Info.lines();
  EXPECT_EQ(Lines[0].Writes, 1u);
  EXPECT_EQ(Lines[0].FirstThread, 0u);
  EXPECT_FALSE(Lines[0].MultiThread);
  EXPECT_EQ(Lines[1].accesses(), 2u);
  EXPECT_EQ(Lines[1].FirstThread, 1u);
  EXPECT_FALSE(Lines[1].MultiThread);

  // A second node on line 0 flips its multi-node flag.
  Info.recordAccess(1, 1, AccessKind::Read, 0, 10, true);
  EXPECT_TRUE(Info.lines()[0].MultiThread);
}

//===----------------------------------------------------------------------===//
// PageTable: homes, materialization, accounting
//===----------------------------------------------------------------------===//

TEST(PageTableTest, FirstTouchHomeIsPublishedOnce) {
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  PageTable Pages(Topology, Geometry, {{RegionBase, 4 * PageSize}});

  EXPECT_EQ(Pages.homeNode(RegionBase), NoNode);
  EXPECT_EQ(Pages.noteTouch(RegionBase + 8, 1), 1u);
  // Later touches, even by other nodes, do not move the home.
  EXPECT_EQ(Pages.noteTouch(RegionBase + 128, 0), 1u);
  EXPECT_EQ(Pages.homeNode(RegionBase + PageSize - 1), 1u);
  // Other pages are independent.
  EXPECT_EQ(Pages.homeNode(RegionBase + PageSize), NoNode);
}

TEST(PageTableTest, MaterializationIsLazyAndCounted) {
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  PageTable Pages(Topology, Geometry, {{RegionBase, 8 * PageSize}});

  EXPECT_TRUE(Pages.covers(RegionBase));
  EXPECT_FALSE(Pages.covers(RegionBase - 1));
  EXPECT_EQ(Pages.detail(RegionBase), nullptr);
  EXPECT_EQ(Pages.materializedPages(), 0u);
  size_t FlatBytes = Pages.pageBytes();
  EXPECT_GT(FlatBytes, 0u);

  PageInfo &Info = Pages.materializeDetail(RegionBase + 100);
  EXPECT_EQ(&Pages.materializeDetail(RegionBase + 200), &Info);
  EXPECT_EQ(Pages.detail(RegionBase), &Info);
  EXPECT_EQ(Pages.materializedPages(), 1u);
  EXPECT_EQ(Pages.pageBytes(), FlatBytes + Info.footprintBytes());

  EXPECT_EQ(Pages.noteWrite(RegionBase), 1u);
  EXPECT_EQ(Pages.noteWrite(RegionBase + 64), 2u);
  EXPECT_EQ(Pages.writeCount(RegionBase + PageSize - 4), 2u);
  EXPECT_EQ(Pages.writeCount(RegionBase + PageSize), 0u);

  EXPECT_EQ(Pages.lineIndexInPage(RegionBase + 64), 1u);
  EXPECT_EQ(Pages.lineIndexInPage(RegionBase + PageSize + 130), 2u);
  EXPECT_EQ(Pages.linesPerPage(), PageSize / LineSize);
}

//===----------------------------------------------------------------------===//
// Detector page stage: gating, homes, stats
//===----------------------------------------------------------------------===//

struct PageDetectorHarness {
  NumaTopology Topology{2, PageSize};
  CacheGeometry Geometry{LineSize};
  ShadowMemory Shadow;
  PageTable Pages;
  Detector Detect;

  explicit PageDetectorHarness(DetectorConfig Config)
      : Shadow(Geometry, {{RegionBase, 16 * PageSize}}),
        Pages(Topology, Geometry, {{RegionBase, 16 * PageSize}}),
        Detect(Geometry, Shadow, Config) {
    Detect.attachPageTable(Pages, Topology);
  }

  /// Main (node 0) writes the page at \p Address up to the write threshold
  /// in a serial phase: the writes count toward stage 1 and home the page,
  /// but reach no detail, so the next sampled write materializes it.
  void warmUp(uint64_t Address) {
    for (uint32_t I = 0; I < DetectorConfig::PageWriteThreshold; ++I)
      deliver(Detect, makeSample(Address, 0, true), false);
  }
};

TEST(PageDetectorTest, PagesBelowWriteThresholdNeverMaterialize) {
  DetectorConfig Config;
  Config.TrackPages = true;
  PageDetectorHarness H(Config);

  deliver(H.Detect, makeSample(RegionBase, 1, true), true);
  deliver(H.Detect, makeSample(RegionBase + 8, 2, true), true);
  EXPECT_EQ(H.Pages.materializedPages(), 0u);
  // Sampled reads on a page below the threshold stay cheap too.
  deliver(H.Detect, makeSample(RegionBase + 12, 1, false), true);
  EXPECT_EQ(H.Pages.materializedPages(), 0u);
  // The third sampled write crosses the threshold and materializes,
  // matching the line stage's contract.
  deliver(H.Detect, makeSample(RegionBase + 16, 1, true), true);
  EXPECT_EQ(H.Pages.materializedPages(), 1u);

  DetectorStats Stats = H.Detect.stats();
  EXPECT_EQ(Stats.PageSamplesRecorded, 1u);
}

TEST(PageDetectorTest, SerialPhaseSetsHomesButRecordsNoDetail) {
  DetectorConfig Config;
  Config.TrackPages = true;
  PageDetectorHarness H(Config);

  // Serial phase: main (node 0) touches two pages, and writes the first
  // past the write threshold, so only the serial-phase gate keeps it out
  // of detail.
  for (uint32_t I = 0; I <= DetectorConfig::PageWriteThreshold; ++I)
    deliver(H.Detect, makeSample(RegionBase + 8 * I, 0, true), false);
  deliver(H.Detect, makeSample(RegionBase + PageSize, 0, true), false);
  EXPECT_EQ(H.Pages.homeNode(RegionBase), 0u);
  EXPECT_EQ(H.Pages.homeNode(RegionBase + PageSize), 0u);
  EXPECT_EQ(H.Pages.materializedPages(), 0u);
  EXPECT_EQ(H.Detect.stats().PageSamplesRecorded, 0u);

  // Parallel phase: thread 1 (node 1) writes the first page — remote.
  deliver(H.Detect, makeSample(RegionBase + 64, 1, true), true);
  DetectorStats Stats = H.Detect.stats();
  EXPECT_EQ(Stats.PageSamplesRecorded, 1u);
  EXPECT_EQ(Stats.RemoteSamples, 1u);
  const PageInfo *Info = H.Pages.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->remoteAccesses(), 1u);
}

TEST(PageDetectorTest, CrossNodeHammerCountsPageInvalidations) {
  DetectorConfig Config;
  Config.TrackPages = true;
  PageDetectorHarness H(Config);
  H.warmUp(RegionBase);

  // Threads 1 (node 1) and 2 (node 0) write disjoint lines of one page.
  for (unsigned I = 0; I < 100; ++I) {
    ThreadId Tid = 1 + (I % 2);
    uint64_t Line = Tid * 4 * LineSize;
    deliver(H.Detect, makeSample(RegionBase + Line, Tid, true), true);
  }
  DetectorStats Stats = H.Detect.stats();
  EXPECT_EQ(Stats.PageSamplesRecorded, 100u);
  EXPECT_GT(Stats.PageInvalidations, 90u); // ping-pong: ~every write
  const PageInfo *Info = H.Pages.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->nodeCount(), 2u);
  EXPECT_EQ(Info->invalidations(), Stats.PageInvalidations);
  // No line is multi-node: this is false *page* sharing.
  for (const WordStats &Line : Info->lines())
    EXPECT_FALSE(Line.MultiThread);
}

TEST(PageDetectorTest, LineStageOffLeavesLineCountersUntouched) {
  DetectorConfig Config;
  Config.TrackPages = true;
  Config.TrackLines = false;
  PageDetectorHarness H(Config);
  H.warmUp(RegionBase);

  for (unsigned I = 0; I < 50; ++I)
    deliver(H.Detect, makeSample(RegionBase + I * 8, 1 + (I % 2), true), true);
  DetectorStats Stats = H.Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, 50u + DetectorConfig::PageWriteThreshold);
  EXPECT_EQ(Stats.SamplesRecorded, 0u);
  EXPECT_EQ(Stats.Invalidations, 0u);
  EXPECT_EQ(H.Shadow.materializedLines(), 0u);
  EXPECT_EQ(Stats.PageSamplesRecorded, 50u);
  EXPECT_GT(H.Pages.materializedPages(), 0u);
}

//===----------------------------------------------------------------------===//
// End to end: the acceptance scenario
//===----------------------------------------------------------------------===//

driver::SessionConfig pageSessionConfig(bool TrackLines = true) {
  driver::SessionConfig Config;
  Config.Profiler.Pmu.SamplingPeriod = 256;
  Config.Profiler.Topology = NumaTopology(2, PageSize);
  Config.Profiler.Detect.TrackPages = true;
  Config.Profiler.Detect.TrackLines = TrackLines;
  Config.Workload.Threads = 8;
  Config.Workload.Scale = 0.5;
  return Config;
}

TEST(PageEndToEndTest, InterleavedWorkloadFoundByPageNotLine) {
  auto Workload = workloads::createWorkload("numa_interleaved");
  ASSERT_NE(Workload, nullptr);
  driver::SessionResult Result =
      driver::runWorkload(*Workload, pageSessionConfig());
  const ProfileResult &Profile = Result.Profile;

  // The line-granularity gate stays silent: no cache line is shared.
  EXPECT_TRUE(significant(Profile.Findings).empty());

  // The page detector reports significant false page sharing across nodes.
  auto Significant = significant(Profile.PageFindings);
  ASSERT_FALSE(Significant.empty());
  const PageSharingReport &Top = *Significant.front();
  EXPECT_EQ(Top.Kind, SharingKind::FalseSharing);
  EXPECT_GE(Top.NodesObserved, 2u);
  EXPECT_GT(Top.Invalidations, 8u);
  EXPECT_GT(Top.RemoteAccesses, 0u);
  ASSERT_FALSE(Top.Objects.empty());
  EXPECT_EQ(Top.Objects.front(), "numa_interleaved_slots");
  // Every hot line on the page is single-node (that is what makes it
  // *false* page sharing); a significant page keeps its hot lines.
  ASSERT_FALSE(Top.Lines.empty());
  for (const PageLineEntry &Line : Top.Lines)
    EXPECT_FALSE(Line.MultiNode);
  // The simulator charged remote interconnect traffic for the same reason.
  EXPECT_GT(Result.Run.RemoteNumaAccesses, 0u);
}

TEST(PageEndToEndTest, PageOnlyGranularityAlsoFindsIt) {
  auto Workload = workloads::createWorkload("numa_interleaved");
  driver::SessionResult Result =
      driver::runWorkload(*Workload, pageSessionConfig(/*TrackLines=*/false));
  EXPECT_TRUE(significant(Result.Profile.Findings).empty());
  EXPECT_TRUE(Result.Profile.Findings.empty());
  EXPECT_FALSE(significant(Result.Profile.PageFindings).empty());
}

TEST(PageEndToEndTest, PagePaddingFixSilencesTheFinding) {
  auto Workload = workloads::createWorkload("numa_interleaved");
  driver::SessionConfig Config = pageSessionConfig();
  Config.Workload.FixFalseSharing = true;
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  EXPECT_TRUE(significant(Result.Profile.Findings).empty());
  EXPECT_TRUE(significant(Result.Profile.PageFindings).empty())
      << "page-aligned slots must not be reported";
  // With one thread per page, nothing is remote after first touch.
  EXPECT_EQ(Result.Profile.Detection.RemoteSamples, 0u);
}

TEST(PageEndToEndTest, FirstTouchBugSurfacesAsRemotePlacement) {
  auto Workload = workloads::createWorkload("numa_first_touch");
  ASSERT_NE(Workload, nullptr);
  driver::SessionConfig Config = pageSessionConfig();
  Config.Profiler.Pmu.SamplingPeriod = 64;
  Config.Workload.Scale = 1.0;
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  const ProfileResult &Profile = Result.Profile;

  EXPECT_TRUE(significant(Profile.Findings).empty());
  ASSERT_FALSE(significant(Profile.PageFindings).empty());
  // The significant pages are single-node but homed elsewhere: placement,
  // not sharing.
  for (const PageSharingReport *Report : significant(Profile.PageFindings)) {
    EXPECT_EQ(Report->HomeNode, 0u) << "serial init homes everything on 0";
    EXPECT_GT(Report->remoteFraction(), 0.9);
    EXPECT_EQ(Report->Objects.front(), "numa_first_touch_blocks");
  }
  EXPECT_GT(Result.Run.RemoteNumaAccesses, 0u);

  // The parallel-first-touch fix homes each block locally: no remote
  // traffic, no findings, and a faster simulated run.
  Config.Workload.FixFalseSharing = true;
  driver::SessionResult Fixed = driver::runWorkload(*Workload, Config);
  EXPECT_TRUE(significant(Fixed.Profile.PageFindings).empty());
  EXPECT_EQ(Fixed.Run.RemoteNumaAccesses, 0u);
  EXPECT_LT(Fixed.Run.TotalCycles, Result.Run.TotalCycles);
}

TEST(PageEndToEndTest, SingleNodeTopologyReportsNothing) {
  // The degenerate UMA machine: page tracking on, one node — every access
  // is local and no page can be multi-node.
  auto Workload = workloads::createWorkload("numa_interleaved");
  driver::SessionConfig Config = pageSessionConfig();
  Config.Profiler.Topology = NumaTopology(1, PageSize);
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  EXPECT_TRUE(significant(Result.Profile.PageFindings).empty());
  EXPECT_EQ(Result.Profile.Detection.RemoteSamples, 0u);
  EXPECT_EQ(Result.Run.RemoteNumaAccesses, 0u);
}

} // namespace
