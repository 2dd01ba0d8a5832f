//===- tests/BatchDecodeTest.cpp - batched ingestion pipeline tests -------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched ingestion pipeline's correctness suite, in three layers:
///
///  - BatchDecoder edge cases: line-straddling accesses, AccessBytes == 0,
///    end-of-line clamping, and addresses outside shadow coverage, checked
///    against the decode arithmetic restated per sample — plus random
///    streams over random geometries at every batch length;
///
///  - Detector::handleBatch against the per-sample reference
///    (tests/PerSampleReference.h) over the same stream: detector counters
///    and full per-grain snapshots must match exactly, at line and page
///    granularity, including batches larger than the 256-sample chunk
///    capacity, and the parallel-phase gate must keep stage-1 counting and
///    home publication while recording nothing;
///
///  - Profiler::ingestBatch bookkeeping: a batch carrying more distinct
///    tids than the fixed scratch table (MaxBatchTids) must flush and
///    continue, conserving every thread's sampled totals, and a serial
///    phase's average latency must not depend on how its samples were
///    split into batches.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/BatchDecode.h"
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

/// The decode arithmetic, restated independently per sample: word index,
/// end-of-line-clamped span, and region coverage for one address.
struct ReferenceDecode {
  uint8_t Covered;
  uint32_t Bucket;
  uint32_t Span;
};

ReferenceDecode referenceDecode(const CacheGeometry &Geometry,
                                const std::vector<ShadowRegion> &Regions,
                                uint64_t Address, uint8_t AccessBytes) {
  uint64_t Bytes = AccessBytes ? AccessBytes : 1;
  uint64_t Offset = Geometry.offsetInLine(Address);
  uint64_t Word = Offset / WordSize;
  uint64_t LastByte = Offset + Bytes - 1;
  if (LastByte >= Geometry.lineSize())
    LastByte = Geometry.lineSize() - 1;
  ReferenceDecode Result;
  Result.Bucket = static_cast<uint32_t>(Word);
  Result.Span = static_cast<uint32_t>(LastByte / WordSize - Word + 1);
  Result.Covered = 0;
  for (const ShadowRegion &Region : Regions)
    Result.Covered |=
        Address >= Region.Base && Address - Region.Base < Region.Size;
  return Result;
}

/// Decodes \p Samples through \p Decoder and checks every record against
/// the reference formula.
void expectMatchesReference(const BatchDecoder &Decoder,
                            const CacheGeometry &Geometry,
                            const std::vector<ShadowRegion> &Regions,
                            const std::vector<pmu::Sample> &Samples,
                            uint8_t AccessBytes) {
  ASSERT_LE(Samples.size(), DecodedBatch::Capacity);
  DecodedBatch Out;
  Decoder.decode(Samples.data(), Samples.size(), AccessBytes, Out);
  for (size_t I = 0; I < Samples.size(); ++I) {
    ReferenceDecode Want =
        referenceDecode(Geometry, Regions, Samples[I].Address, AccessBytes);
    EXPECT_EQ(Out.Covered[I], Want.Covered)
        << "sample " << I << " address 0x" << std::hex << Samples[I].Address;
    EXPECT_EQ(Out.Bucket[I], Want.Bucket) << "sample " << I;
    EXPECT_EQ(Out.Span[I], Want.Span) << "sample " << I;
  }
}

std::vector<pmu::Sample> samplesAt(std::initializer_list<uint64_t> Addresses) {
  std::vector<pmu::Sample> Samples;
  for (uint64_t Address : Addresses) {
    pmu::Sample Sample;
    Sample.Address = Address;
    Samples.push_back(Sample);
  }
  return Samples;
}

//===----------------------------------------------------------------------===//
// Decode edge cases against the reference arithmetic
//===----------------------------------------------------------------------===//

TEST(BatchDecodeTest, LineStraddlingAccessesClampToTheLineEnd) {
  CacheGeometry Geometry(64);
  std::vector<ShadowRegion> Regions{{RegionBase, 4096}};
  BatchDecoder Decoder(Geometry, Regions);

  // An 8-byte access starting at offset 60 straddles into the next line:
  // it must mark only the last word of its first line (span 1).
  std::vector<pmu::Sample> Samples = samplesAt(
      {RegionBase + 60, RegionBase + 62, RegionBase + 63, RegionBase + 56});
  DecodedBatch Out;
  Decoder.decode(Samples.data(), Samples.size(), /*AccessBytes=*/8, Out);
  EXPECT_EQ(Out.Bucket[0], 15u);
  EXPECT_EQ(Out.Span[0], 1u); // 60..63 only: clamped at the line end
  EXPECT_EQ(Out.Bucket[1], 15u);
  EXPECT_EQ(Out.Span[1], 1u);
  EXPECT_EQ(Out.Bucket[2], 15u);
  EXPECT_EQ(Out.Span[2], 1u);
  EXPECT_EQ(Out.Bucket[3], 14u);
  EXPECT_EQ(Out.Span[3], 2u); // 56..63: exactly reaches the line end
  expectMatchesReference(Decoder, Geometry, Regions, Samples, 8);
}

TEST(BatchDecodeTest, AccessBytesZeroDecodesAsOneByte) {
  CacheGeometry Geometry(64);
  std::vector<ShadowRegion> Regions{{RegionBase, 4096}};
  BatchDecoder Decoder(Geometry, Regions);

  std::vector<pmu::Sample> Samples =
      samplesAt({RegionBase, RegionBase + 3, RegionBase + 63});
  DecodedBatch Out;
  Decoder.decode(Samples.data(), Samples.size(), /*AccessBytes=*/0, Out);
  for (size_t I = 0; I < Samples.size(); ++I)
    EXPECT_EQ(Out.Span[I], 1u) << "sample " << I;
  EXPECT_EQ(Out.Bucket[0], 0u);
  EXPECT_EQ(Out.Bucket[1], 0u);
  EXPECT_EQ(Out.Bucket[2], 15u);
  expectMatchesReference(Decoder, Geometry, Regions, Samples, 0);
}

TEST(BatchDecodeTest, AddressesOutsideShadowCoverageAreFlaggedUncovered) {
  CacheGeometry Geometry(64);
  // Two disjoint regions, like the real heap arena + global segment pair.
  std::vector<ShadowRegion> Regions{{RegionBase, 4096},
                                    {0x7000'0000, 64 * 64}};
  BatchDecoder Decoder(Geometry, Regions);

  std::vector<pmu::Sample> Samples = samplesAt({
      RegionBase - 1,          // just below the first region
      RegionBase,              // first byte: covered
      RegionBase + 4095,       // last byte: covered
      RegionBase + 4096,       // one past the end
      0x7000'0000 - 64,        // between the regions
      0x7000'0000,             // second region
      0x7000'0000 + 64 * 64,   // one past the second region
      0x10,                    // kernel-ish low address
      0xFFFF'FFFF'FFFF'FFF0ull // top of the address space
  });
  DecodedBatch Out;
  Decoder.decode(Samples.data(), Samples.size(), /*AccessBytes=*/4, Out);
  const uint8_t Want[] = {0, 1, 1, 0, 0, 1, 0, 0, 0};
  for (size_t I = 0; I < Samples.size(); ++I)
    EXPECT_EQ(Out.Covered[I], Want[I]) << "sample " << I;
  expectMatchesReference(Decoder, Geometry, Regions, Samples, 4);
}

//===----------------------------------------------------------------------===//
// Random streams against the reference arithmetic
//===----------------------------------------------------------------------===//

TEST(BatchDecodeTest, DecoderMatchesTheReferenceOnRandomStreams) {
  // Random streams over random geometries, at every batch length up to a
  // full chunk: the decoder must agree with the reference record for
  // record.
  SplitMix64 Rng(0xDEC0DE);
  for (uint64_t LineSize : {16, 32, 64, 128, 256}) {
    CacheGeometry Geometry(LineSize);
    std::vector<ShadowRegion> Regions{{RegionBase, 64 * LineSize},
                                      {0x7000'0000, 16 * LineSize}};
    BatchDecoder Decoder(Geometry, Regions);

    for (size_t Count : {size_t(1), size_t(2), size_t(3), size_t(4),
                         size_t(5), size_t(7), size_t(63), size_t(256)}) {
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
      }
      uint8_t AccessBytes = static_cast<uint8_t>(Rng.nextBelow(17));
      SCOPED_TRACE("line " + std::to_string(LineSize) + " count " +
                   std::to_string(Count));
      expectMatchesReference(Decoder, Geometry, Regions, Samples, AccessBytes);
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

  std::map<uint64_t, GrainSnapshot> WantLines;
  WantShadow.forEachDetail([&](uint64_t Base, const CacheLineInfo &Info) {
    WantLines.emplace(Base, Info.snapshot(Base));
  });
  size_t GotLines = 0;
  GotShadow.forEachDetail([&](uint64_t Base, const CacheLineInfo &Info) {
    ++GotLines;
    auto It = WantLines.find(Base);
    ASSERT_NE(It, WantLines.end()) << "line only in batch run";
    expectSnapshotsEqual(Info.snapshot(Base), It->second, Base);
  });
  EXPECT_EQ(GotLines, WantLines.size());
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
  std::map<uint64_t, GrainSnapshot> WantLines;
  WantShadow.forEachDetail([&](uint64_t Base, const CacheLineInfo &Info) {
    WantLines.emplace(Base, Info.snapshot(Base));
  });
  GotShadow.forEachDetail([&](uint64_t Base, const CacheLineInfo &Info) {
    auto It = WantLines.find(Base);
    ASSERT_NE(It, WantLines.end());
    expectSnapshotsEqual(Info.snapshot(Base), It->second, Base);
  });
}

TEST(BatchDecodeTest, SerialPhaseBatchesCountWritesAndPublishHomesOnly) {
  constexpr uint64_t PageSize = 4096;
  constexpr uint64_t LineSize = 64;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config; // OnlyParallelPhases = true
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
      Sample.Address = Config.HeapArenaBase + (Batch.size() % 512) * 64;
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
    Sample.Address = Config.HeapArenaBase + Rng.nextBelow(4096) * 4;
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
