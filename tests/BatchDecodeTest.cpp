//===- tests/BatchDecodeTest.cpp - batched ingestion pipeline tests -------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched ingestion pipeline's correctness suite, in three layers:
///
///  - line decode edge cases through Detector::handleBatch: line-straddling
///    accesses clamp at the line end, AccessBytes == 0 marks one word, and
///    addresses at region edges (and next to 2^64) count as filtered —
///    each checked against explicit words and against the per-sample
///    reference (tests/PerSampleReference.h), plus random streams over
///    random geometries at every batch length;
///
///  - Detector::handleBatch against the per-sample reference over the same
///    stream: detector counters and full per-grain snapshots must match
///    exactly, at line and page granularity, including batches larger
///    than the 256-sample chunk capacity, and the parallel-phase gate must
///    keep stage-1 counting and home publication while recording nothing;
///
///  - Profiler::ingestBatch bookkeeping: a batch carrying more distinct
///    tids than the fixed scratch table (MaxBatchTids) must flush and
///    continue, conserving every thread's sampled totals, and a serial
///    phase's average latency must not depend on how its samples were
///    split into batches.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/Detector.h"
#include "core/detect/PageTable.h"
#include "core/detect/ShadowMemory.h"
#include "mem/NumaTopology.h"
#include "support/Random.h"

#include "PerSampleReference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <map>
#include <string>
#include <vector>

using namespace cheetah;
using namespace cheetah::core;

namespace {

constexpr uint64_t RegionBase = 0x4000'0000;

void expectSnapshotsEqual(const GrainSnapshot &Got, const GrainSnapshot &Want,
                          uint64_t Grain) {
  EXPECT_EQ(Got.Accesses, Want.Accesses) << "grain " << Grain;
  EXPECT_EQ(Got.Writes, Want.Writes) << "grain " << Grain;
  EXPECT_EQ(Got.Cycles, Want.Cycles) << "grain " << Grain;
  EXPECT_EQ(Got.Invalidations, Want.Invalidations) << "grain " << Grain;
  ASSERT_EQ(Got.Buckets.size(), Want.Buckets.size());
  for (size_t B = 0; B < Want.Buckets.size(); ++B) {
    EXPECT_EQ(Got.Buckets[B].Reads, Want.Buckets[B].Reads)
        << "grain " << Grain << " bucket " << B;
    EXPECT_EQ(Got.Buckets[B].Writes, Want.Buckets[B].Writes)
        << "grain " << Grain << " bucket " << B;
    EXPECT_EQ(Got.Buckets[B].Cycles, Want.Buckets[B].Cycles)
        << "grain " << Grain << " bucket " << B;
    EXPECT_EQ(Got.Buckets[B].FirstThread, Want.Buckets[B].FirstThread)
        << "grain " << Grain << " bucket " << B;
    EXPECT_EQ(Got.Buckets[B].MultiThread, Want.Buckets[B].MultiThread)
        << "grain " << Grain << " bucket " << B;
  }
  ASSERT_EQ(Got.Threads.size(), Want.Threads.size()) << "grain " << Grain;
  for (size_t S = 0; S < Want.Threads.size(); ++S) {
    EXPECT_EQ(Got.Threads[S].Tid, Want.Threads[S].Tid);
    EXPECT_EQ(Got.Threads[S].Accesses, Want.Threads[S].Accesses);
    EXPECT_EQ(Got.Threads[S].Cycles, Want.Threads[S].Cycles);
  }
}

/// Every line grain of \p Got must match \p Want's, and no line may be
/// materialized in only one of them.
void expectLinesEqual(const ShadowMemory &Got, const ShadowMemory &Want) {
  std::map<uint64_t, GrainSnapshot> WantLines;
  Want.forEachDetail([&](uint64_t Base, const CacheLineInfo &Info) {
    WantLines.emplace(Base, Info.snapshot(Base));
  });
  size_t GotLines = 0;
  Got.forEachDetail([&](uint64_t Base, const CacheLineInfo &Info) {
    ++GotLines;
    auto It = WantLines.find(Base);
    ASSERT_NE(It, WantLines.end()) << "line only in batch run";
    expectSnapshotsEqual(Info.snapshot(Base), It->second, Base);
  });
  EXPECT_EQ(GotLines, WantLines.size());
}

/// A line-only detector and the per-sample reference over twin shadow
/// tables, with threshold 0 so a line's first sampled write materializes
/// it: every covered write is recorded, so its decoded word and span show
/// in the line's word histogram.
struct LineTwins {
  DetectorConfig Config;
  ShadowMemory GotShadow, WantShadow;
  Detector Got;
  test::PerSampleReference Want;

  LineTwins(const CacheGeometry &Geometry,
            const std::vector<ShadowRegion> &Regions)
      : Config(zeroThreshold()), GotShadow(Geometry, Regions),
        WantShadow(Geometry, Regions), Got(Geometry, GotShadow, Config),
        Want(WantShadow, Config) {}

  static DetectorConfig zeroThreshold() {
    DetectorConfig Config;
    Config.WriteThreshold = 0;
    return Config;
  }

  /// Delivers \p Samples to the detector as one batch and to the
  /// reference one by one, then expects equal counters and lines.
  void deliver(const std::vector<pmu::Sample> &Samples, uint8_t AccessBytes) {
    size_t WantRecorded = 0;
    for (const pmu::Sample &Sample : Samples)
      WantRecorded +=
          Want.handleSample(Sample, /*InParallelPhase=*/true, AccessBytes);
    EXPECT_EQ(Got.handleBatch(Samples.data(), Samples.size(),
                              /*InParallelPhase=*/true, AccessBytes),
              WantRecorded);
    DetectorStats GotStats = Got.stats(), WantStats = Want.stats();
    EXPECT_EQ(GotStats.SamplesSeen, WantStats.SamplesSeen);
    EXPECT_EQ(GotStats.SamplesFiltered, WantStats.SamplesFiltered);
    EXPECT_EQ(GotStats.SamplesRecorded, WantStats.SamplesRecorded);
    EXPECT_EQ(GotStats.Invalidations, WantStats.Invalidations);
    expectLinesEqual(GotShadow, WantShadow);
  }

  /// Writes per word of the line at \p LineBase in the batch detector's
  /// table (empty when the line has no detail).
  std::vector<uint64_t> wordWrites(uint64_t LineBase) const {
    std::vector<uint64_t> Result;
    if (const CacheLineInfo *Info = GotShadow.detail(LineBase))
      for (const WordStats &Word : Info->words())
        Result.push_back(Word.Writes);
    return Result;
  }
};

std::vector<pmu::Sample> writesAt(std::initializer_list<uint64_t> Addresses) {
  std::vector<pmu::Sample> Samples;
  for (uint64_t Address : Addresses) {
    pmu::Sample Sample;
    Sample.Address = Address;
    Sample.IsWrite = true;
    Sample.LatencyCycles = 10;
    Samples.push_back(Sample);
  }
  return Samples;
}

/// Per-word write counts of a 16-word line whose \p Marked words were each
/// written once.
std::vector<uint64_t> wordsMarked(std::initializer_list<size_t> Marked) {
  std::vector<uint64_t> Result(16, 0);
  for (size_t Word : Marked)
    Result[Word] = 1;
  return Result;
}

//===----------------------------------------------------------------------===//
// Line decode edge cases through handleBatch
//===----------------------------------------------------------------------===//

TEST(BatchDecodeTest, LineStraddlingAccessesClampToTheLineEnd) {
  CacheGeometry Geometry(64);
  LineTwins Twins(Geometry, {{RegionBase, 4096}});

  // An 8-byte access starting at offset 60 straddles into the next line:
  // it must mark only the last word of its first line. One access per
  // line, so each line's words show exactly what its access marked.
  Twins.deliver(writesAt({RegionBase + 60, RegionBase + 64 + 62,
                          RegionBase + 128 + 63, RegionBase + 192 + 56}),
                /*AccessBytes=*/8);
  EXPECT_EQ(Twins.wordWrites(RegionBase), wordsMarked({15}));
  EXPECT_EQ(Twins.wordWrites(RegionBase + 64), wordsMarked({15}));
  EXPECT_EQ(Twins.wordWrites(RegionBase + 128), wordsMarked({15}));
  // 56..63 exactly reaches the line end: two words.
  EXPECT_EQ(Twins.wordWrites(RegionBase + 192), wordsMarked({14, 15}));
  // Nothing spilled into the following line.
  EXPECT_TRUE(Twins.wordWrites(RegionBase + 256).empty());
}

TEST(BatchDecodeTest, AccessBytesZeroMarksOneWord) {
  CacheGeometry Geometry(64);
  LineTwins Twins(Geometry, {{RegionBase, 4096}});

  Twins.deliver(
      writesAt({RegionBase, RegionBase + 64 + 3, RegionBase + 128 + 63}),
      /*AccessBytes=*/0);
  EXPECT_EQ(Twins.wordWrites(RegionBase), wordsMarked({0}));
  EXPECT_EQ(Twins.wordWrites(RegionBase + 64), wordsMarked({0}));
  EXPECT_EQ(Twins.wordWrites(RegionBase + 128), wordsMarked({15}));
}

TEST(BatchDecodeTest, AddressesOutsideShadowCoverageCountAsFiltered) {
  CacheGeometry Geometry(64);
  // Two disjoint regions, like the real heap arena + global segment pair.
  LineTwins Twins(Geometry, {{RegionBase, 4096}, {0x7000'0000, 64 * 64}});

  Twins.deliver(writesAt({
                    RegionBase - 1,           // just below the first region
                    RegionBase,               // first byte: covered
                    RegionBase + 4095,        // last byte: covered
                    RegionBase + 4096,        // one past the end
                    0x7000'0000 - 64,         // between the regions
                    0x7000'0000,              // second region
                    0x7000'0000 + 64 * 64,    // one past the second region
                    0x10,                     // kernel-ish low address
                    0xFFFF'FFFF'FFFF'FFF0ull, // next to 2^64
                    0xFFFF'FFFF'FFFF'FFFFull, // the last address there is
                }),
                /*AccessBytes=*/4);
  DetectorStats Stats = Twins.Got.stats();
  EXPECT_EQ(Stats.SamplesSeen, 10u);
  EXPECT_EQ(Stats.SamplesFiltered, 7u);
  EXPECT_EQ(Stats.SamplesRecorded, 3u);
  EXPECT_EQ(Twins.GotShadow.materializedLines(), 3u);
  EXPECT_EQ(Twins.wordWrites(RegionBase), wordsMarked({0}));
  EXPECT_EQ(Twins.wordWrites(RegionBase + 4032), wordsMarked({15}));
  EXPECT_EQ(Twins.wordWrites(0x7000'0000), wordsMarked({0}));
}

//===----------------------------------------------------------------------===//
// Random streams against the per-sample reference
//===----------------------------------------------------------------------===//

TEST(BatchDecodeTest, HandleBatchDecodesLikeTheReferenceOnRandomStreams) {
  // Random streams over random geometries, at every batch length up to a
  // full chunk and one past it: the batch detector must leave every line
  // where the per-sample reference leaves it.
  SplitMix64 Rng(0xDEC0DE);
  for (uint64_t LineSize : {16, 32, 64, 128, 256}) {
    CacheGeometry Geometry(LineSize);
    LineTwins Twins(Geometry, {{RegionBase, 64 * LineSize},
                               {0x7000'0000, 16 * LineSize}});

    for (size_t Count : {size_t(1), size_t(2), size_t(3), size_t(4),
                         size_t(5), size_t(7), size_t(63), size_t(256),
                         size_t(257)}) {
      std::vector<pmu::Sample> Samples(Count);
      for (pmu::Sample &Sample : Samples) {
        // Mix: in-region, straddling the region edges, and far outside.
        switch (Rng.nextBelow(4)) {
        case 0:
          Sample.Address = RegionBase + Rng.nextBelow(64 * LineSize);
          break;
        case 1:
          Sample.Address = 0x7000'0000 + Rng.nextBelow(16 * LineSize);
          break;
        case 2:
          Sample.Address =
              RegionBase - 8 + Rng.nextBelow(16); // straddles the base
          break;
        default:
          Sample.Address = Rng.next();
          break;
        }
        Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(4));
        Sample.IsWrite = Rng.nextBool(0.7);
        Sample.LatencyCycles = 10 + static_cast<uint32_t>(Rng.nextBelow(50));
      }
      uint8_t AccessBytes = static_cast<uint8_t>(Rng.nextBelow(17));
      SCOPED_TRACE("line " + std::to_string(LineSize) + " count " +
                   std::to_string(Count) + " bytes " +
                   std::to_string(AccessBytes));
      Twins.deliver(Samples, AccessBytes);
    }
  }
}

//===----------------------------------------------------------------------===//
// handleBatch vs the per-sample reference: full-state equivalence
//===----------------------------------------------------------------------===//

/// A deterministic mixed stream: mostly covered addresses with straddling
/// offsets and a sprinkling of uncovered ones, from a few threads.
std::vector<pmu::Sample> mixedStream(uint64_t Lines, uint64_t LineSize,
                                     size_t Count, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<pmu::Sample> Stream(Count);
  for (pmu::Sample &Sample : Stream) {
    Sample.Address = Rng.nextBool(0.9)
                         ? RegionBase + Rng.nextBelow(Lines) * LineSize +
                               Rng.nextBelow(LineSize)
                         : Rng.nextBelow(1ull << 40);
    Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(6));
    Sample.IsWrite = Rng.nextBool(0.6);
    Sample.LatencyCycles = 10 + static_cast<uint32_t>(Rng.nextBelow(50));
  }
  return Stream;
}

TEST(BatchDecodeTest, HandleBatchMatchesPerSampleReferenceAtLineGranularity) {
  constexpr uint64_t NumLines = 128;
  constexpr uint64_t LineSize = 64;
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;

  // One stream, larger than the 256-sample chunk capacity so handleBatch
  // must chunk internally; delivered whole to the batch detector and one
  // sample at a time to the reference.
  std::vector<pmu::Sample> Stream = mixedStream(NumLines, LineSize,
                                                /*Count=*/3000, /*Seed=*/7);

  ShadowMemory WantShadow(Geometry, {{RegionBase, NumLines * LineSize}});
  test::PerSampleReference Want(WantShadow, Config);
  size_t WantRecorded = 0;
  for (const pmu::Sample &Sample : Stream)
    WantRecorded += Want.handleSample(Sample, /*InParallelPhase=*/true);

  ShadowMemory GotShadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector Got(Geometry, GotShadow, Config);
  size_t GotRecorded =
      Got.handleBatch(Stream.data(), Stream.size(), /*InParallelPhase=*/true);

  EXPECT_EQ(GotRecorded, WantRecorded);
  DetectorStats WantStats = Want.stats(), GotStats = Got.stats();
  EXPECT_EQ(GotStats.SamplesSeen, WantStats.SamplesSeen);
  EXPECT_EQ(GotStats.SamplesFiltered, WantStats.SamplesFiltered);
  EXPECT_EQ(GotStats.SamplesRecorded, WantStats.SamplesRecorded);
  EXPECT_EQ(GotStats.Invalidations, WantStats.Invalidations);
  EXPECT_EQ(GotShadow.materializedLines(), WantShadow.materializedLines());
  expectLinesEqual(GotShadow, WantShadow);
}

TEST(BatchDecodeTest, HandleBatchMatchesPerSampleReferenceAtPageGranularity) {
  constexpr uint64_t PageSize = 4096;
  constexpr uint64_t NumPages = 8;
  constexpr uint64_t LineSize = 64;
  NumaTopology Topology(4, PageSize);
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;
  Config.TrackPages = true;

  std::vector<pmu::Sample> Stream =
      mixedStream(NumPages * PageSize / LineSize, LineSize,
                  /*Count=*/2500, /*Seed=*/11);

  ShadowMemory WantShadow(Geometry, {{RegionBase, NumPages * PageSize}});
  PageTable WantPages(Topology, Geometry, {{RegionBase, NumPages * PageSize}});
  test::PerSampleReference Want(WantShadow, Config);
  Want.attachPageTable(WantPages, Topology);
  for (const pmu::Sample &Sample : Stream)
    Want.handleSample(Sample, /*InParallelPhase=*/true);

  ShadowMemory GotShadow(Geometry, {{RegionBase, NumPages * PageSize}});
  PageTable GotPages(Topology, Geometry, {{RegionBase, NumPages * PageSize}});
  Detector Got(Geometry, GotShadow, Config);
  Got.attachPageTable(GotPages, Topology);
  Got.handleBatch(Stream.data(), Stream.size(), /*InParallelPhase=*/true);

  DetectorStats WantStats = Want.stats(), GotStats = Got.stats();
  EXPECT_EQ(GotStats.SamplesSeen, WantStats.SamplesSeen);
  EXPECT_EQ(GotStats.SamplesFiltered, WantStats.SamplesFiltered);
  EXPECT_EQ(GotStats.SamplesRecorded, WantStats.SamplesRecorded);
  EXPECT_EQ(GotStats.Invalidations, WantStats.Invalidations);
  EXPECT_EQ(GotStats.PageSamplesRecorded, WantStats.PageSamplesRecorded);
  EXPECT_EQ(GotStats.PageInvalidations, WantStats.PageInvalidations);
  EXPECT_EQ(GotStats.RemoteSamples, WantStats.RemoteSamples);

  // Page state: homes and full snapshots must match page for page.
  EXPECT_EQ(GotPages.materializedPages(), WantPages.materializedPages());
  for (uint64_t P = 0; P < NumPages; ++P) {
    uint64_t Base = RegionBase + P * PageSize;
    EXPECT_EQ(GotPages.homeNode(Base), WantPages.homeNode(Base))
        << "page " << P;
    EXPECT_EQ(GotPages.writeCount(Base), WantPages.writeCount(Base))
        << "page " << P;
    const PageInfo *WantInfo = WantPages.detail(Base);
    const PageInfo *GotInfo = GotPages.detail(Base);
    ASSERT_EQ(GotInfo != nullptr, WantInfo != nullptr) << "page " << P;
    if (WantInfo)
      expectSnapshotsEqual(GotInfo->snapshot(Base), WantInfo->snapshot(Base),
                           Base);
  }
  // Line state must be unaffected by the page stage running first.
  expectLinesEqual(GotShadow, WantShadow);
}

TEST(BatchDecodeTest, SerialPhaseBatchesCountWritesAndPublishHomesOnly) {
  constexpr uint64_t PageSize = 4096;
  constexpr uint64_t LineSize = 64;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;
  Config.TrackPages = true;
  ShadowMemory Shadow(Geometry, {{RegionBase, PageSize}});
  PageTable Pages(Topology, Geometry, {{RegionBase, PageSize}});
  Detector Detect(Geometry, Shadow, Config);
  Detect.attachPageTable(Pages, Topology);

  std::vector<pmu::Sample> Batch(64);
  for (size_t I = 0; I < Batch.size(); ++I) {
    Batch[I].Address = RegionBase + (I % 16) * LineSize;
    Batch[I].Tid = static_cast<ThreadId>(I % 4);
    Batch[I].IsWrite = true;
    Batch[I].LatencyCycles = 20;
  }
  size_t Recorded =
      Detect.handleBatch(Batch.data(), Batch.size(), /*InParallelPhase=*/false);

  // The serial-phase gate: stage-1 counters advanced and the first-touch
  // home was published, but nothing reached detailed tracking.
  EXPECT_EQ(Recorded, 0u);
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Batch.size());
  EXPECT_EQ(Stats.SamplesRecorded, 0u);
  EXPECT_EQ(Stats.PageSamplesRecorded, 0u);
  EXPECT_EQ(Shadow.materializedLines(), 0u);
  EXPECT_EQ(Pages.materializedPages(), 0u);
  EXPECT_EQ(Shadow.writeCount(RegionBase), 4u); // 64 samples over 16 lines
  EXPECT_EQ(Pages.writeCount(RegionBase), uint32_t(Batch.size()));
  EXPECT_EQ(Pages.homeNode(RegionBase), Topology.nodeOf(0));

  // A later parallel batch sees the accumulated counts: every line is
  // already past the threshold, so its first parallel sample records.
  Detect.handleBatch(Batch.data(), Batch.size(), /*InParallelPhase=*/true);
  EXPECT_EQ(Shadow.materializedLines(), 16u);
  EXPECT_EQ(Detect.stats().SamplesRecorded, Batch.size());
}

//===----------------------------------------------------------------------===//
// Profiler::ingestBatch bookkeeping
//===----------------------------------------------------------------------===//

TEST(BatchDecodeTest, BatchWithThirtyTwoTidsConservesPerThreadTotals) {
  // One batch interleaving 32 distinct tids overflows the profiler's
  // 16-entry per-batch scratch table twice; the flush-and-continue path
  // must conserve every thread's sampled totals exactly.
  constexpr unsigned NumTids = 32;
  constexpr unsigned SamplesPerTid = 8;
  ProfilerConfig Config;
  Profiler Prof(Config);
  Prof.threadStarted(0, /*IsMain=*/true, 0);
  for (unsigned T = 1; T <= NumTids; ++T)
    Prof.threadStarted(static_cast<ThreadId>(T), /*IsMain=*/false, 10);

  // Interleave round-robin so every MaxBatchTids-sized window carries the
  // maximum tid churn.
  std::vector<pmu::Sample> Batch;
  for (unsigned Round = 0; Round < SamplesPerTid; ++Round)
    for (unsigned T = 1; T <= NumTids; ++T) {
      pmu::Sample Sample;
      Sample.Address = HeapArenaBase + (Batch.size() % 512) * 64;
      Sample.Tid = static_cast<ThreadId>(T);
      Sample.IsWrite = true;
      Sample.LatencyCycles = 30 + T;
      Batch.push_back(Sample);
    }
  Prof.ingestBatch(Batch.data(), Batch.size());

  for (unsigned T = 1; T <= NumTids; ++T) {
    const runtime::ThreadProfile &Profile =
        Prof.threadRegistry().profile(static_cast<ThreadId>(T));
    EXPECT_EQ(Profile.SampledAccesses, SamplesPerTid) << "tid " << T;
    EXPECT_EQ(Profile.SampledCycles, uint64_t(SamplesPerTid) * (30 + T))
        << "tid " << T;
  }
  EXPECT_EQ(Prof.threadRegistry().totalSampledAccesses(),
            uint64_t(NumTids) * SamplesPerTid);
  EXPECT_EQ(Prof.detector().stats().SamplesSeen, Batch.size());
}

TEST(BatchDecodeTest, SerialLatencyIsIndependentOfBatchShape) {
  // The serial-phase average is the EQ.1 baseline written into every
  // report, so it must come out bit for bit the same whether a stream
  // arrives one sample per call or cut into batches of any size.
  ProfilerConfig Config;
  SplitMix64 Rng(0x5E41A1);
  std::vector<pmu::Sample> Stream(2500);
  for (pmu::Sample &Sample : Stream) {
    Sample.Address = HeapArenaBase + Rng.nextBelow(4096) * 4;
    Sample.IsWrite = Rng.nextBool(0.5);
    Sample.LatencyCycles = 1 + static_cast<uint32_t>(Rng.nextBelow(400));
  }

  Profiler OneByOne(Config);
  OneByOne.threadStarted(0, /*IsMain=*/true, 0);
  for (const pmu::Sample &Sample : Stream)
    OneByOne.ingestBatch(&Sample, 1);

  Profiler Split(Config);
  Split.threadStarted(0, /*IsMain=*/true, 0);
  for (size_t Offset = 0; Offset < Stream.size();) {
    size_t Count = std::min<size_t>(1 + Rng.nextBelow(600),
                                    Stream.size() - Offset);
    Split.ingestBatch(Stream.data() + Offset, Count);
    Offset += Count;
  }

  ReportRunStats Want = OneByOne.runStats(0), Got = Split.runStats(0);
  EXPECT_EQ(Want.SerialSamples, Stream.size());
  EXPECT_EQ(Got.SerialSamples, Want.SerialSamples);
  EXPECT_EQ(Got.SerialAverageLatency, Want.SerialAverageLatency)
      << std::hexfloat << Got.SerialAverageLatency << " vs "
      << Want.SerialAverageLatency;
}

} // namespace
