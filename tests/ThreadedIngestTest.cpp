//===- tests/ThreadedIngestTest.cpp - concurrent ingestion tests ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency tests for the sample-ingestion hot path: many threads feed
/// the detector / profiler / interpose buffers at once, and the results are
/// checked against a serial reference run over the same sample streams.
/// Designed to be run under ThreadSanitizer (-DCHEETAH_SANITIZE=thread) —
/// the assertions catch lost updates, TSan catches the races themselves.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/Detector.h"
#include "core/detect/PageTable.h"
#include "core/detect/ShadowMemory.h"
#include "interpose/Preload.h"
#include "mem/NumaTopology.h"
#include "support/Random.h"

#include "PerSampleReference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace cheetah;
using namespace cheetah::core;

namespace {

constexpr uint64_t RegionBase = 0x4000'0000;
constexpr uint32_t LineSize = 64;
constexpr unsigned IngestThreads = 8;

/// Builds a deterministic per-line sample stream: \p SamplesPerLine accesses
/// on line \p Line, issued by a few simulated threads with mixed kinds and
/// word offsets, seeded by the line index so every run (serial or parallel)
/// sees identical per-line histories.
std::vector<pmu::Sample> lineStream(uint64_t Line, unsigned SamplesPerLine) {
  SplitMix64 Rng(0xC0FFEE ^ Line);
  std::vector<pmu::Sample> Stream;
  Stream.reserve(SamplesPerLine);
  for (unsigned I = 0; I < SamplesPerLine; ++I) {
    pmu::Sample Sample;
    Sample.Address = RegionBase + Line * LineSize + Rng.nextBelow(16) * 4;
    Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(4));
    Sample.IsWrite = Rng.nextBool(0.6);
    Sample.LatencyCycles = 20 + static_cast<uint32_t>(Rng.nextBelow(50));
    Stream.push_back(Sample);
  }
  return Stream;
}

//===----------------------------------------------------------------------===//
// Detector: parallel ingestion over disjoint line partitions must be
// indistinguishable from a serial run of the same per-line streams.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, DisjointLinePartitionsMatchSerialReference) {
  constexpr uint64_t NumLines = 512;
  constexpr unsigned SamplesPerLine = 48;
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;

  // Serial reference: every line's stream, one line after another, one
  // sample at a time.
  ShadowMemory SerialShadow(Geometry, {{RegionBase, NumLines * LineSize}});
  test::PerSampleReference SerialDetect(SerialShadow, Config);
  for (uint64_t Line = 0; Line < NumLines; ++Line)
    for (const pmu::Sample &Sample : lineStream(Line, SamplesPerLine))
      SerialDetect.handleSample(Sample, /*InParallelPhase=*/true);

  // Parallel run: lines are partitioned over 8 ingest threads, each
  // delivering batches of one, so each line's stream keeps its order while
  // the threads race on the shared shadow arrays and detector counters.
  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector Detect(Geometry, Shadow, Config);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t Line = T; Line < NumLines; Line += IngestThreads)
        for (const pmu::Sample &Sample : lineStream(Line, SamplesPerLine))
          Detect.handleBatch(&Sample, 1, /*InParallelPhase=*/true);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  DetectorStats Serial = SerialDetect.stats();
  DetectorStats Parallel = Detect.stats();
  EXPECT_EQ(Parallel.SamplesSeen, Serial.SamplesSeen);
  EXPECT_EQ(Parallel.SamplesFiltered, Serial.SamplesFiltered);
  EXPECT_EQ(Parallel.SamplesRecorded, Serial.SamplesRecorded);
  EXPECT_EQ(Parallel.Invalidations, Serial.Invalidations);
  EXPECT_EQ(Shadow.materializedLines(), SerialShadow.materializedLines());

  // Per-line state must match exactly, not just in aggregate.
  std::map<uint64_t, const CacheLineInfo *> SerialLines;
  SerialShadow.forEachDetail(
      [&](uint64_t LineBase, const CacheLineInfo &Info) {
        SerialLines[LineBase] = &Info;
      });
  Shadow.forEachDetail([&](uint64_t LineBase, const CacheLineInfo &Info) {
    auto It = SerialLines.find(LineBase);
    ASSERT_NE(It, SerialLines.end()) << "line only materialized in parallel";
    EXPECT_EQ(Info.invalidations(), It->second->invalidations());
    EXPECT_EQ(Info.accesses(), It->second->accesses());
    EXPECT_EQ(Info.writes(), It->second->writes());
    EXPECT_EQ(Info.cycles(), It->second->cycles());
    EXPECT_EQ(Info.threadCount(), It->second->threadCount());
  });
}

TEST(ThreadedIngestTest, BatchedDisjointLinePartitionsMatchSerialReference) {
  // The whole-batch mirror of the test above: the same per-line streams,
  // but each ingest thread delivers its lines in whole batches through the
  // staged pipeline (decode, branchless stage-1 sweep, per-grain runs,
  // prefetched lookups). Eight threads race on the shared write counters
  // and detector counters, each with its own decode scratch; the result
  // must still equal the serial per-sample reference, line for line.
  constexpr uint64_t NumLines = 512;
  constexpr unsigned SamplesPerLine = 48;
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;

  ShadowMemory SerialShadow(Geometry, {{RegionBase, NumLines * LineSize}});
  test::PerSampleReference SerialDetect(SerialShadow, Config);
  for (uint64_t Line = 0; Line < NumLines; ++Line)
    for (const pmu::Sample &Sample : lineStream(Line, SamplesPerLine))
      SerialDetect.handleSample(Sample, /*InParallelPhase=*/true);

  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector Detect(Geometry, Shadow, Config);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t Line = T; Line < NumLines; Line += IngestThreads) {
        std::vector<pmu::Sample> Batch = lineStream(Line, SamplesPerLine);
        Detect.handleBatch(Batch.data(), Batch.size(),
                           /*InParallelPhase=*/true);
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  DetectorStats Serial = SerialDetect.stats();
  DetectorStats Parallel = Detect.stats();
  EXPECT_EQ(Parallel.SamplesSeen, Serial.SamplesSeen);
  EXPECT_EQ(Parallel.SamplesFiltered, Serial.SamplesFiltered);
  EXPECT_EQ(Parallel.SamplesRecorded, Serial.SamplesRecorded);
  EXPECT_EQ(Parallel.Invalidations, Serial.Invalidations);
  EXPECT_EQ(Shadow.materializedLines(), SerialShadow.materializedLines());

  std::map<uint64_t, const CacheLineInfo *> SerialLines;
  SerialShadow.forEachDetail(
      [&](uint64_t LineBase, const CacheLineInfo &Info) {
        SerialLines[LineBase] = &Info;
      });
  Shadow.forEachDetail([&](uint64_t LineBase, const CacheLineInfo &Info) {
    auto It = SerialLines.find(LineBase);
    ASSERT_NE(It, SerialLines.end()) << "line only materialized in batch run";
    EXPECT_EQ(Info.invalidations(), It->second->invalidations());
    EXPECT_EQ(Info.accesses(), It->second->accesses());
    EXPECT_EQ(Info.writes(), It->second->writes());
    EXPECT_EQ(Info.cycles(), It->second->cycles());
    EXPECT_EQ(Info.threadCount(), It->second->threadCount());
  });
}

//===----------------------------------------------------------------------===//
// Detector: fully contended lines must never lose an update.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, ContendedLinesLoseNoSamples) {
  constexpr uint64_t NumLines = 16;
  constexpr unsigned SamplesPerThread = 20000;
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  DetectorConfig Config;
  Config.WriteThreshold = 0; // every written line is susceptible immediately
  Detector Detect(Geometry, Shadow, Config);

  std::atomic<uint64_t> WritesIssued{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(T + 1);
      uint64_t LocalWrites = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + Rng.nextBelow(NumLines) * LineSize +
                         Rng.nextBelow(16) * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        Sample.IsWrite = Rng.nextBool(0.5);
        Sample.LatencyCycles = 30;
        LocalWrites += Sample.IsWrite ? 1 : 0;
        Detect.handleBatch(&Sample, 1, /*InParallelPhase=*/true);
      }
      WritesIssued.fetch_add(LocalWrites);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.SamplesFiltered, 0u);

  uint64_t LineAccesses = 0, LineWrites = 0, LineInvalidations = 0;
  uint64_t PerThreadAccesses = 0, CountedWrites = 0;
  Shadow.forEachDetail([&](uint64_t LineBase, const CacheLineInfo &Info) {
    LineAccesses += Info.accesses();
    LineWrites += Info.writes();
    LineInvalidations += Info.invalidations();
    for (const ThreadLineStats &PerThread : Info.threads())
      PerThreadAccesses += PerThread.Accesses;
    CountedWrites += Shadow.writeCount(LineBase);
  });
  EXPECT_EQ(LineAccesses, Stats.SamplesRecorded);
  EXPECT_EQ(PerThreadAccesses, Stats.SamplesRecorded);
  // Reads that arrive before a line's first write are filtered by the
  // susceptibility gate, but every write materializes its line, so all
  // issued writes must be recorded and counted.
  EXPECT_EQ(LineWrites, WritesIssued.load());
  EXPECT_EQ(CountedWrites, WritesIssued.load());
  EXPECT_EQ(LineInvalidations, Stats.Invalidations);
  EXPECT_GT(LineInvalidations, 0u);
}

//===----------------------------------------------------------------------===//
// Lock-free CacheLineInfo: 8 threads hammering ONE shared line. The
// worst case for the packed CAS table and the per-line atomics — every
// update contends. Run under TSan to prove the mutex-free hot path clean.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, SingleSharedLineHammerLosesNoUpdates) {
  constexpr unsigned SamplesPerThread = 30000;
  constexpr uint64_t WordsPerLine = 16;
  CacheLineInfo Info(WordsPerLine);

  std::atomic<uint64_t> WritesIssued{0}, Invalidations{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0x51E ^ T);
      uint64_t LocalWrites = 0, LocalInvalidations = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        AccessKind Kind =
            Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read;
        LocalWrites += Kind == AccessKind::Write ? 1 : 0;
        LocalInvalidations += Info.recordAccess(
            static_cast<ThreadId>(T), Kind, Rng.nextBelow(WordsPerLine),
            /*WordSpan=*/1, /*LatencyCycles=*/10);
      }
      WritesIssued.fetch_add(LocalWrites);
      Invalidations.fetch_add(LocalInvalidations);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  EXPECT_EQ(Info.accesses(), Total);
  EXPECT_EQ(Info.writes(), WritesIssued.load());
  EXPECT_EQ(Info.cycles(), Total * 10);
  // Every caller's observed invalidation was counted exactly once.
  EXPECT_EQ(Info.invalidations(), Invalidations.load());
  EXPECT_GT(Info.invalidations(), 0u);
  EXPECT_LE(Info.invalidations(), Info.writes());

  // Word totals conserve the access population.
  uint64_t WordAccesses = 0, WordCycles = 0;
  for (const WordStats &Word : Info.words()) {
    WordAccesses += Word.accesses();
    WordCycles += Word.Cycles;
    EXPECT_TRUE(Word.MultiThread || Word.accesses() == 0 ||
                Word.FirstThread != NoThread);
  }
  EXPECT_EQ(WordAccesses, Total);
  EXPECT_EQ(WordCycles, Total * 10);

  // Exactly one per-thread slot per hammering thread, each conserved.
  std::vector<ThreadLineStats> PerThread = Info.threads();
  ASSERT_EQ(PerThread.size(), size_t(IngestThreads));
  for (unsigned T = 0; T < IngestThreads; ++T) {
    EXPECT_EQ(PerThread[T].Tid, T);
    EXPECT_EQ(PerThread[T].Accesses, SamplesPerThread);
    EXPECT_EQ(PerThread[T].Cycles, uint64_t(SamplesPerThread) * 10);
  }

  // The table's packed invariants survived the hammering.
  EXPECT_LE(Info.table().size(), 2u);
  if (Info.table().size() == 2) {
    EXPECT_NE(Info.table().entry(0).Tid, Info.table().entry(1).Tid);
  }
}

TEST(ThreadedIngestTest, SingleSharedLineDetectorHammer) {
  // Same single-line contention shape through the full detector stage-1 +
  // stage-2 path (threshold 0 so the line materializes on first write).
  constexpr unsigned SamplesPerThread = 20000;
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, LineSize}});
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Detector Detect(Geometry, Shadow, Config);

  std::atomic<uint64_t> WritesIssued{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0xBEEF ^ T);
      uint64_t LocalWrites = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + Rng.nextBelow(16) * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        Sample.IsWrite = Rng.nextBool(0.6);
        Sample.LatencyCycles = 25;
        LocalWrites += Sample.IsWrite ? 1 : 0;
        Detect.handleBatch(&Sample, 1, /*InParallelPhase=*/true);
      }
      WritesIssued.fetch_add(LocalWrites);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.SamplesFiltered, 0u);
  EXPECT_EQ(Shadow.materializedLines(), 1u);
  EXPECT_EQ(Shadow.writeCount(RegionBase), WritesIssued.load());

  const CacheLineInfo *Info = Shadow.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->accesses(), Stats.SamplesRecorded);
  EXPECT_EQ(Info->writes(), WritesIssued.load());
  EXPECT_EQ(Info->invalidations(), Stats.Invalidations);
  EXPECT_GT(Info->invalidations(), 0u);
  EXPECT_EQ(Info->threadCount(), size_t(IngestThreads));
}

//===----------------------------------------------------------------------===//
// Lock-free page layer: 8 threads hammering ONE shared 4 KiB page, pinned
// across two simulated NUMA nodes (tid % 2). The page-granularity mirror
// of the single-shared-line hammer above: every update contends on the
// packed node table, the per-line histogram, and the per-node
// accumulators. Run under TSan to prove the mutex-free page path clean.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, SingleSharedPageHammerAcrossNodesLosesNoUpdates) {
  constexpr unsigned SamplesPerThread = 20000;
  constexpr uint64_t PageSize = 4096;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, PageSize}});
  PageTable Pages(Topology, Geometry, {{RegionBase, PageSize}});
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Config.TrackPages = true;
  Detector Detect(Geometry, Shadow, Config);
  Detect.attachPageTable(Pages, Topology);
  // Bring the page's stage-1 count up to the write threshold without a
  // touch, so the first hammer samples still race to publish its home.
  for (uint32_t I = 0; I < DetectorConfig::PageWriteThreshold; ++I)
    Pages.noteWrite(RegionBase);

  std::atomic<uint64_t> WritesIssued{0};
  std::atomic<uint64_t> AccessesPerNode[2] = {{0}, {0}};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0x9A6E ^ T);
      uint64_t LocalWrites = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + Rng.nextBelow(PageSize / 4) * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        // Lead with a write: a read racing ahead of the page's first
        // sampled write is (correctly) dropped by the stage-1 gate, which
        // would make the conservation totals below nondeterministic.
        Sample.IsWrite = I == 0 || Rng.nextBool(0.6);
        Sample.LatencyCycles = 25;
        LocalWrites += Sample.IsWrite ? 1 : 0;
        Detect.handleBatch(&Sample, 1, /*InParallelPhase=*/true);
      }
      WritesIssued.fetch_add(LocalWrites);
      AccessesPerNode[T % 2].fetch_add(SamplesPerThread);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.PageSamplesRecorded, Total);
  EXPECT_EQ(Pages.materializedPages(), 1u);
  EXPECT_EQ(Pages.writeCount(RegionBase),
            WritesIssued.load() + DetectorConfig::PageWriteThreshold);

  const PageInfo *Info = Pages.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->accesses(), Total);
  EXPECT_EQ(Info->writes(), WritesIssued.load());
  EXPECT_EQ(Info->cycles(), Total * 25);
  EXPECT_EQ(Info->invalidations(), Stats.PageInvalidations);
  EXPECT_GT(Info->invalidations(), 0u);
  EXPECT_LE(Info->invalidations(), Info->writes());

  // The home was CAS-published exactly once; every access from the other
  // node was counted remote, with no lost updates.
  NodeId Home = Pages.homeNode(RegionBase);
  ASSERT_LT(Home, 2u);
  EXPECT_EQ(Info->remoteAccesses(), AccessesPerNode[1 - Home].load());
  EXPECT_EQ(Info->remoteAccesses(), Stats.RemoteSamples);
  EXPECT_EQ(Info->remoteCycles(), Info->remoteAccesses() * 25);

  // Both nodes' concurrent first touches landed in the node set.
  EXPECT_EQ(Info->nodeCount(), 2u);

  // Per-line histogram conserves accesses and cycles.
  uint64_t LineAccesses = 0, LineCycles = 0;
  for (const core::WordStats &Line : Info->lines()) {
    LineAccesses += Line.accesses();
    LineCycles += Line.Cycles;
  }
  EXPECT_EQ(LineAccesses, Total);
  EXPECT_EQ(LineCycles, Total * 25);

  // The packed node table kept its invariants under the hammering.
  EXPECT_LE(Info->table().size(), 2u);
  if (Info->table().size() == 2) {
    EXPECT_NE(Info->table().entry(0).Tid, Info->table().entry(1).Tid);
  }
}

//===----------------------------------------------------------------------===//
// Batched runs under contention: 4 threads deliver whole batches that all
// land on two shared lines of one shared page, so every chunk records its
// grains as multi-sample runs folded in at once while the other threads
// fold theirs into the same grains. Whatever the interleaving, every
// additive field must conserve exactly against the input streams.
//===----------------------------------------------------------------------===//

/// One bucket's expected totals, summed from the input streams.
struct BucketTotals {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  std::set<uint32_t> Actors;
};

/// One grain's expected additive totals, summed from the input streams.
struct GrainTotals {
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  std::vector<BucketTotals> Buckets;
  std::map<ThreadId, ThreadLineStats> Threads;

  explicit GrainTotals(size_t BucketCount) : Buckets(BucketCount) {}

  void add(ThreadId Tid, uint32_t Actor, bool IsWrite, uint64_t Bucket,
           uint64_t Span, uint64_t Latency) {
    ++Accesses;
    Writes += IsWrite;
    Cycles += Latency;
    for (uint64_t B = Bucket; B < Bucket + Span; ++B) {
      (IsWrite ? Buckets[B].Writes : Buckets[B].Reads) += 1;
      Buckets[B].Cycles += B == Bucket ? Latency : 0;
      Buckets[B].Actors.insert(Actor);
    }
    ThreadLineStats &Slot = Threads[Tid];
    Slot.Tid = Tid;
    Slot.Accesses += 1;
    Slot.Cycles += Latency;
  }
};

void expectConserved(const GrainSnapshot &Got, const GrainTotals &Want,
                     const char *Grain) {
  EXPECT_EQ(Got.Accesses, Want.Accesses) << Grain;
  EXPECT_EQ(Got.Writes, Want.Writes) << Grain;
  EXPECT_EQ(Got.Cycles, Want.Cycles) << Grain;
  EXPECT_GT(Got.Invalidations, 0u) << Grain;
  EXPECT_LE(Got.Invalidations, Got.Writes) << Grain;
  ASSERT_EQ(Got.Buckets.size(), Want.Buckets.size()) << Grain;
  for (size_t B = 0; B < Want.Buckets.size(); ++B) {
    const WordStats &Bucket = Got.Buckets[B];
    const BucketTotals &Expected = Want.Buckets[B];
    EXPECT_EQ(Bucket.Reads, Expected.Reads) << Grain << " bucket " << B;
    EXPECT_EQ(Bucket.Writes, Expected.Writes) << Grain << " bucket " << B;
    EXPECT_EQ(Bucket.Cycles, Expected.Cycles) << Grain << " bucket " << B;
    // Which actor came first depends on the interleaving; whether a
    // second distinct actor touched the bucket does not.
    EXPECT_EQ(Bucket.MultiThread, Expected.Actors.size() > 1)
        << Grain << " bucket " << B;
    uint32_t OnlyActor =
        Expected.Actors.size() == 1 ? *Expected.Actors.begin() : NoActor;
    if (Expected.Actors.size() <= 1) {
      EXPECT_EQ(Bucket.FirstThread, OnlyActor) << Grain << " bucket " << B;
    }
  }
  ASSERT_EQ(Got.Threads.size(), Want.Threads.size()) << Grain;
  for (const ThreadLineStats &Thread : Got.Threads) {
    auto It = Want.Threads.find(Thread.Tid);
    ASSERT_NE(It, Want.Threads.end()) << Grain << " tid " << Thread.Tid;
    EXPECT_EQ(Thread.Accesses, It->second.Accesses)
        << Grain << " tid " << Thread.Tid;
    EXPECT_EQ(Thread.Cycles, It->second.Cycles)
        << Grain << " tid " << Thread.Tid;
  }
}

TEST(ThreadedIngestTest, BatchedRunsOnSharedGrainsConserveEveryField) {
  constexpr unsigned HammerThreads = 4;
  constexpr unsigned BatchesPerThread = 100;
  constexpr size_t BatchSize = 256;
  constexpr uint64_t PageSize = 4096;
  constexpr uint64_t WordsPerLine = LineSize / 4;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, PageSize}});
  PageTable Pages(Topology, Geometry, {{RegionBase, PageSize}});
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Config.TrackPages = true;
  Detector Detect(Geometry, Shadow, Config);
  Detect.attachPageTable(Pages, Topology);
  // Bring the page's stage-1 count up to the write threshold, so the
  // prime below materializes it.
  for (uint32_t I = 0; I < DetectorConfig::PageWriteThreshold; ++I)
    Pages.noteWrite(RegionBase);

  // The page's first two lines are the hot set.
  const uint64_t Lines[2] = {RegionBase, RegionBase + LineSize};
  GrainTotals LineWant[2] = {GrainTotals(WordsPerLine),
                             GrainTotals(WordsPerLine)};
  GrainTotals PageWant(PageSize / LineSize);
  std::set<NodeId> NodeWant;
  uint64_t RemoteWant = 0, RemoteCyclesWant = 0;

  struct Batch {
    std::vector<pmu::Sample> Samples;
    uint8_t AccessBytes = 4;
  };
  auto Expect = [&](const pmu::Sample &Sample, uint8_t AccessBytes) {
    size_t L = Sample.Address >= Lines[1] ? 1 : 0;
    uint64_t Offset = Sample.Address - Lines[L];
    uint64_t LastByte = std::min<uint64_t>(Offset + AccessBytes - 1,
                                           LineSize - 1);
    uint64_t Word = Offset / 4;
    LineWant[L].add(Sample.Tid, Sample.Tid, Sample.IsWrite, Word,
                    LastByte / 4 - Word + 1, Sample.LatencyCycles);
    NodeId Node = Topology.nodeOf(Sample.Tid);
    PageWant.add(Sample.Tid, Node, Sample.IsWrite, L, 1,
                 Sample.LatencyCycles);
    NodeWant.insert(Node);
    // Main primes the page from node 0, which makes node 0 its home.
    if (Node != 0) {
      ++RemoteWant;
      RemoteCyclesWant += Sample.LatencyCycles;
    }
  };

  // Prime: main writes both lines before the hammer starts, so no read is
  // filtered for arriving ahead of its grain's first write.
  std::vector<pmu::Sample> Prime(2);
  for (size_t L = 0; L < 2; ++L) {
    Prime[L].Address = Lines[L];
    Prime[L].Tid = 0;
    Prime[L].IsWrite = true;
    Prime[L].LatencyCycles = 30;
    Expect(Prime[L], 4);
  }
  Detect.handleBatch(Prime.data(), Prime.size(), /*InParallelPhase=*/true);

  // Each hammer thread's batches, generated up front: several tids (on
  // both nodes) per batch, reads and writes, multi-word spans.
  std::vector<std::vector<Batch>> Streams(HammerThreads);
  for (unsigned T = 0; T < HammerThreads; ++T) {
    SplitMix64 Rng(0xBA7C4 ^ T);
    for (unsigned B = 0; B < BatchesPerThread; ++B) {
      Batch Next;
      Next.AccessBytes = static_cast<uint8_t>(4u << Rng.nextBelow(3));
      Next.Samples.resize(BatchSize);
      for (pmu::Sample &Sample : Next.Samples) {
        Sample.Address =
            Lines[Rng.nextBelow(2)] + Rng.nextBelow(WordsPerLine) * 4;
        Sample.Tid = static_cast<ThreadId>(1 + Rng.nextBelow(8));
        Sample.IsWrite = Rng.nextBool(0.6);
        Sample.LatencyCycles = 10 + static_cast<uint32_t>(Rng.nextBelow(40));
        Expect(Sample, Next.AccessBytes);
      }
      Streams[T].push_back(std::move(Next));
    }
  }

  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < HammerThreads; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (const Batch &Next : Streams[T])
        Detect.handleBatch(Next.Samples.data(), Next.Samples.size(),
                           /*InParallelPhase=*/true, Next.AccessBytes);
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t Total =
      2 + uint64_t(HammerThreads) * BatchesPerThread * BatchSize;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.SamplesFiltered, 0u);
  EXPECT_EQ(Stats.SamplesRecorded, Total);
  EXPECT_EQ(Stats.PageSamplesRecorded, Total);
  EXPECT_EQ(Stats.RemoteSamples, RemoteWant);

  // Line grains: every additive field conserves, and the grains'
  // invalidations sum to the detector's counter.
  uint64_t LineInvalidations = 0;
  for (size_t L = 0; L < 2; ++L) {
    const CacheLineInfo *Info = Shadow.detail(Lines[L]);
    ASSERT_NE(Info, nullptr);
    expectConserved(Info->snapshot(Lines[L]), LineWant[L],
                    L == 0 ? "line 0" : "line 1");
    EXPECT_EQ(Shadow.writeCount(Lines[L]), LineWant[L].Writes);
    LineInvalidations += Info->invalidations();
  }
  EXPECT_EQ(LineInvalidations, Stats.Invalidations);

  // The page grain, with its NUMA extras.
  const PageInfo *Page = Pages.detail(RegionBase);
  ASSERT_NE(Page, nullptr);
  EXPECT_EQ(Pages.homeNode(RegionBase), 0u);
  expectConserved(Page->snapshot(RegionBase), PageWant, "page");
  EXPECT_EQ(Pages.writeCount(RegionBase),
            PageWant.Writes + DetectorConfig::PageWriteThreshold);
  EXPECT_EQ(Page->invalidations(), Stats.PageInvalidations);
  EXPECT_EQ(Page->remoteAccesses(), RemoteWant);
  EXPECT_EQ(Page->remoteCycles(), RemoteCyclesWant);
  std::vector<RemoteDistanceStats> ByDistance = Page->remoteByDistance();
  ASSERT_EQ(ByDistance.size(), 1u);
  EXPECT_EQ(ByDistance[0].Distance, NumaTopology::DefaultRemoteDistance);
  EXPECT_EQ(ByDistance[0].Accesses, RemoteWant);
  EXPECT_EQ(ByDistance[0].Cycles, RemoteCyclesWant);
  EXPECT_EQ(Page->nodeCount(), NodeWant.size());
}

//===----------------------------------------------------------------------===//
// Profiler: the batched ingest API from many application threads.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, ProfilerBatchedIngestKeepsPerThreadTotals) {
  constexpr unsigned BatchSize = 64;
  constexpr unsigned BatchesPerThread = 100;
  ProfilerConfig Config;
  Profiler Prof(Config);

  // Enter a parallel phase: main plus one simulated child per ingest
  // thread, so detailed tracking is live while the threads race.
  Prof.threadStarted(0, /*IsMain=*/true, 0);
  for (unsigned T = 1; T <= IngestThreads; ++T)
    Prof.threadStarted(static_cast<ThreadId>(T), /*IsMain=*/false, 10);

  std::vector<std::thread> Threads;
  for (unsigned T = 1; T <= IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0xAB + T);
      std::vector<pmu::Sample> Batch(BatchSize);
      for (unsigned B = 0; B < BatchesPerThread; ++B) {
        for (pmu::Sample &Sample : Batch) {
          Sample.Address = HeapArenaBase + Rng.nextBelow(1024) * LineSize;
          Sample.Tid = static_cast<ThreadId>(T);
          Sample.IsWrite = Rng.nextBool(0.7);
          Sample.LatencyCycles = 25;
        }
        Prof.ingestBatch(Batch.data(), Batch.size());
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t PerThread = uint64_t(BatchSize) * BatchesPerThread;
  for (unsigned T = 1; T <= IngestThreads; ++T) {
    const runtime::ThreadProfile &Profile =
        Prof.threadRegistry().profile(static_cast<ThreadId>(T));
    EXPECT_EQ(Profile.SampledAccesses, PerThread) << "thread " << T;
    EXPECT_EQ(Profile.SampledCycles, PerThread * 25) << "thread " << T;
  }
  EXPECT_EQ(Prof.threadRegistry().totalSampledAccesses(),
            PerThread * IngestThreads);
}

//===----------------------------------------------------------------------===//
// The live-grain bitmap: racing publications of shared grains leave each
// live grain enumerated exactly once, across eviction rounds.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, RacedMaterializationsEnumerateEachLiveGrainOnce) {
  constexpr unsigned HammerThreads = 4;
  constexpr size_t NumLines = 1024;
  constexpr int Rounds = 8;
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Shadow.setByteBudget(size_t(1) << 40);
  const size_t Floor = Shadow.footprintBytes();

  for (int Round = 0; Round < Rounds; ++Round) {
    // Every thread publishes the same shared set, each from its own
    // starting point, so one grain and one bitmap word are raced at once.
    std::vector<uint64_t> Shared;
    for (size_t Line = 0; Line < NumLines; ++Line)
      if ((Line * 7 + Round) % 3 != 0)
        Shared.push_back(RegionBase + Line * LineSize);
    std::atomic<unsigned> Ready{0};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < HammerThreads; ++T)
      Threads.emplace_back([&, T] {
        Ready.fetch_add(1);
        while (Ready.load() < HammerThreads)
          std::this_thread::yield();
        size_t Offset = T * Shared.size() / HammerThreads;
        for (size_t I = 0; I < Shared.size(); ++I)
          Shadow.materializeDetail(Shared[(I + Offset) % Shared.size()]);
      });
    for (std::thread &Thread : Threads)
      Thread.join();

    std::vector<unsigned> Hits(NumLines, 0);
    Shadow.forEachDetail([&](uint64_t Base, const CacheLineInfo &) {
      ++Hits[(Base - RegionBase) / LineSize];
    });
    size_t Live = 0;
    for (size_t Line = 0; Line < NumLines; ++Line) {
      bool IsLive = Shadow.detail(RegionBase + Line * LineSize) != nullptr;
      Live += IsLive;
      ASSERT_EQ(Hits[Line], IsLive ? 1u : 0u)
          << "round " << Round << ", line " << Line;
    }
    for (uint64_t Address : Shared)
      ASSERT_NE(Shadow.detail(Address), nullptr) << "round " << Round;
    EXPECT_EQ(Shadow.materializedLines(), Live);

    // Evict about half of the live bytes; the next round re-publishes
    // many of the evicted grains.
    Shadow.setByteBudget(Floor + (Shadow.footprintBytes() - Floor) / 2);
    EXPECT_GT(Shadow.enforceBudget(), 0u) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// First touch of the slab mappings: the shadow's arrays start as untouched
// pages the kernel zero-fills on first access, and racing threads fault
// the same fresh pages in at once.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest,
     FirstTouchRacesOnUntouchedSlabPagesConserveEverySample) {
  constexpr unsigned RaceThreads = 4;
  constexpr uint64_t PageSize = 4096;
  constexpr uint64_t RegionBytes = 64ull << 20;
  // One target line per 64 KiB: each target's write counter lies on a
  // counter page no other target reaches, and each lies on its own page.
  constexpr uint64_t Stride = 64 << 10;
  constexpr uint64_t Targets = RegionBytes / Stride;
  constexpr unsigned WritesPerTarget = 4; // per thread, one batch
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, RegionBytes}});
  PageTable Pages(Topology, Geometry, {{RegionBase, RegionBytes}});
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Config.TrackPages = true;
  Detector Detect(Geometry, Shadow, Config);
  Detect.attachPageTable(Pages, Topology);

  // Every thread walks the targets in the same order from one start, so
  // the first writes and materializations of each fresh page race.
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < RaceThreads; ++T)
    Threads.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() < RaceThreads)
        std::this_thread::yield();
      pmu::Sample Batch[WritesPerTarget];
      for (uint64_t Target = 0; Target < Targets; ++Target) {
        for (unsigned W = 0; W < WritesPerTarget; ++W) {
          Batch[W].Address = RegionBase + Target * Stride + (T * 4 + W) * 4;
          Batch[W].Tid = static_cast<ThreadId>(T);
          Batch[W].IsWrite = true;
          Batch[W].LatencyCycles = 30;
        }
        Detect.handleBatch(Batch, WritesPerTarget, /*InParallelPhase=*/true);
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t PerGrain = uint64_t(RaceThreads) * WritesPerTarget;
  constexpr uint64_t Total = Targets * PerGrain;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.SamplesFiltered, 0u);
  EXPECT_EQ(Stats.SamplesRecorded, Total);
  // The page gate drops each page's first PageWriteThreshold writes.
  EXPECT_EQ(Stats.PageSamplesRecorded,
            Total - Targets * DetectorConfig::PageWriteThreshold);

  std::vector<unsigned> LineHits(Targets, 0), PageHits(Targets, 0);
  Shadow.forEachDetail([&](uint64_t Base, const CacheLineInfo &Info) {
    ASSERT_EQ((Base - RegionBase) % Stride, 0u);
    ++LineHits[(Base - RegionBase) / Stride];
    EXPECT_EQ(Info.accesses(), PerGrain);
    EXPECT_EQ(Info.writes(), PerGrain);
  });
  Pages.forEachPage([&](uint64_t Base, NodeId Home, const PageInfo &Info) {
    ASSERT_EQ((Base - RegionBase) % Stride, 0u);
    ++PageHits[(Base - RegionBase) / Stride];
    EXPECT_LT(Home, 2u);
    EXPECT_EQ(Info.accesses(),
              PerGrain - DetectorConfig::PageWriteThreshold);
  });
  for (uint64_t Target = 0; Target < Targets; ++Target) {
    uint64_t Address = RegionBase + Target * Stride;
    ASSERT_EQ(LineHits[Target], 1u) << "target " << Target;
    ASSERT_EQ(PageHits[Target], 1u) << "target " << Target;
    EXPECT_EQ(Shadow.writeCount(Address), PerGrain);
    EXPECT_EQ(Pages.writeCount(Address), PerGrain);
  }
  EXPECT_EQ(Shadow.materializedLines(), Targets);
  EXPECT_EQ(Pages.materializedPages(), Targets);
}

//===----------------------------------------------------------------------===//
// Interpose: per-thread buffers drain every sample into the sink exactly
// once, no matter which thread recorded it.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, InterposeBuffersDeliverEverySampleToSink) {
  constexpr unsigned SamplesPerThread = 10000;
  interpose::resetForTesting();

  std::mutex SinkMutex;
  uint64_t SinkSamples = 0;
  std::map<ThreadId, uint64_t> SinkPerTid;
  interpose::setSampleSink([&](const pmu::Sample *Samples, size_t Count) {
    std::lock_guard<std::mutex> Lock(SinkMutex);
    SinkSamples += Count;
    for (size_t I = 0; I < Count; ++I)
      ++SinkPerTid[Samples[I].Tid];
  });

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      interpose::threadAttach();
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + I * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        Sample.IsWrite = (I & 1) != 0;
        Sample.LatencyCycles = 10;
        interpose::recordSample(Sample);
      }
      interpose::flushThreadSamples();
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  interpose::InterposeSummary Summary = interpose::summary();
  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  EXPECT_EQ(Summary.SamplesBuffered, Total);
  EXPECT_EQ(Summary.SamplesIngested, Total);
  {
    std::lock_guard<std::mutex> Lock(SinkMutex);
    EXPECT_EQ(SinkSamples, Total);
    ASSERT_EQ(SinkPerTid.size(), size_t(IngestThreads));
    for (const auto &[Tid, Count] : SinkPerTid)
      EXPECT_EQ(Count, SamplesPerThread) << "tid " << Tid;
  }
  interpose::resetForTesting();
}

} // namespace
