//===- tests/EvictionTest.cpp - bounded-memory eviction tests --------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded-memory continuous-operation suite: footprint accounting
/// cross-checked against allocation-size arithmetic (the budget must be
/// enforced against an honest denominator), the conservation proof that
/// evicted residue plus live counters equals a never-evicted run's totals,
/// golden byte-identity of snapshots whose budget is never hit, and the
/// multi-epoch soak that holds footprintBytes() under budget while
/// ingesting far more distinct grains than the budget can hold. The
/// live-grain bitmap's walks are checked against a probe of every slot.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/Detector.h"
#include "core/detect/PageTable.h"
#include "core/detect/ShadowMemory.h"
#include "core/report/ReportSink.h"
#include "mem/NumaTopology.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cheetah;
using namespace cheetah::core;

namespace {

constexpr uint64_t RegionBase = 0x4000'0000;

pmu::Sample makeSample(uint64_t Address, ThreadId Tid, bool IsWrite,
                       uint32_t Latency = 50) {
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

/// Live counters summed over every materialized grain.
struct LiveTotals {
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t Invalidations = 0;
  size_t InfoBytes = 0;
};

template <typename TableT> LiveTotals liveTotals(const TableT &Table) {
  LiveTotals Totals;
  Table.forEachGrain([&](uint64_t, NodeId, const auto &Info) {
    Totals.Accesses += Info.accesses();
    Totals.Writes += Info.writes();
    Totals.Cycles += Info.cycles();
    Totals.Invalidations += Info.invalidations();
    Totals.InfoBytes += Info.footprintBytes();
  });
  return Totals;
}

//===----------------------------------------------------------------------===//
// Footprint accounting: the budget denominator against allocation-size
// arithmetic (slab arrays were previously uncounted).
//===----------------------------------------------------------------------===//

TEST(EvictionFootprintTest, LineSlabArraysCountedExactly) {
  CacheGeometry Geometry{64};
  constexpr uint64_t Size = 1 << 16;
  ShadowMemory Shadow{Geometry, {{RegionBase, Size}}};
  size_t Grains = Size / 64;

  // Nothing materialized: the metadata is exactly the flat per-grain slab
  // arrays (stage-1 write counter + detail pointer per grain).
  size_t SlabBytes = Grains * (sizeof(std::atomic<uint32_t>) +
                               sizeof(std::atomic<CacheLineInfo *>));
  EXPECT_EQ(Shadow.metadataBytes(), SlabBytes);

  // The budget denominator is the metadata plus the live-grain bitmap (one
  // bit per grain, in 64-bit words) — never less than the slab arrays the
  // budget can never trim away. The report-visible metadata leaves the
  // bitmap out.
  size_t BitmapBytes = (Grains + 63) / 64 * sizeof(uint64_t);
  EXPECT_EQ(Shadow.footprintBytes(), SlabBytes + BitmapBytes);

  // Installing a budget allocates the per-grain epoch-write baselines,
  // and the denominator must charge for them too.
  size_t Before = Shadow.footprintBytes();
  Shadow.setByteBudget(1 << 20);
  EXPECT_EQ(Shadow.footprintBytes(), Before + Grains * sizeof(uint32_t));
}

TEST(EvictionFootprintTest, PageSlabArraysIncludeHomes) {
  constexpr uint64_t PageSize = 4096;
  constexpr uint64_t Size = 64 * PageSize;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry{64};
  PageTable Pages(Topology, Geometry, {{RegionBase, Size}});
  size_t Grains = Size / PageSize;

  size_t SlabBytes =
      Grains * (sizeof(std::atomic<uint32_t>) +
                sizeof(std::atomic<PageInfo *>) + sizeof(std::atomic<NodeId>));
  EXPECT_EQ(Pages.metadataBytes(), SlabBytes);
  size_t BitmapBytes = (Grains + 63) / 64 * sizeof(uint64_t);
  EXPECT_EQ(Pages.footprintBytes(), SlabBytes + BitmapBytes);
}

TEST(EvictionFootprintTest, MaterializedInfoBytesMatchArithmetic) {
  CacheGeometry Geometry{64};
  constexpr uint64_t Size = 1 << 16;
  ShadowMemory Shadow{Geometry, {{RegionBase, Size}}};
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Detector Detect{Geometry, Shadow, Config};

  constexpr size_t Tracked = 32;
  for (size_t I = 0; I < Tracked; ++I)
    for (ThreadId Tid = 0; Tid < 2; ++Tid)
      deliver(Detect, makeSample(RegionBase + I * 64, Tid, true), true);

  EXPECT_EQ(Shadow.materializedGrains(), Tracked);
  size_t SlabBytes = (Size / 64) * (sizeof(std::atomic<uint32_t>) +
                                    sizeof(std::atomic<CacheLineInfo *>));
  EXPECT_EQ(Shadow.metadataBytes(), SlabBytes + liveTotals(Shadow).InfoBytes);
}

//===----------------------------------------------------------------------===//
// The live-grain bitmap: every walk that follows it must agree with a probe
// of every slot, through materialization, eviction and re-materialization.
//===----------------------------------------------------------------------===//

/// Records one write from \p Tid, so footprints differ between grains (a
/// ninth distinct thread allocates a per-thread stats overflow block).
void touch(CacheLineInfo &Info, ThreadId Tid) {
  Info.recordAccess(Tid, AccessKind::Write, 0, 1, 10);
}
void touch(PageInfo &Info, ThreadId Tid) {
  Info.recordAccess(Tid, /*Node=*/0, AccessKind::Write, 0, 10,
                    /*Remote=*/false);
}

/// Checks the bitmap-driven walks of \p Table against an oracle that
/// probes detail() on every grain of \p Regions. \p SlabBytesPerGrain is
/// what the flat per-grain arrays cost; a budget must be installed, so the
/// epoch baselines are allocated.
template <typename TableT>
void expectWalksMatchProbe(const TableT &Table,
                           const std::vector<ShadowRegion> &Regions,
                           uint64_t GrainSize, size_t SlabBytesPerGrain) {
  std::vector<uint64_t> Probed;
  size_t Grains = 0, BitmapBytes = 0, InfoBytes = 0;
  for (const ShadowRegion &Region : Regions) {
    size_t RegionGrains = Region.Size / GrainSize;
    Grains += RegionGrains;
    BitmapBytes += (RegionGrains + 63) / 64 * sizeof(uint64_t);
    for (size_t I = 0; I < RegionGrains; ++I)
      if (const auto *Info = Table.detail(Region.Base + I * GrainSize)) {
        Probed.push_back(Region.Base + I * GrainSize);
        InfoBytes += Info->footprintBytes();
      }
  }

  // The population count first: a stale bit would make the walks below
  // dereference an evicted slot.
  ASSERT_EQ(Table.materializedGrains(), Probed.size());
  std::vector<uint64_t> Walked;
  Table.forEachGrain([&](uint64_t Base, NodeId, const auto &Info) {
    if (!Walked.empty()) {
      EXPECT_LT(Walked.back(), Base);
    }
    EXPECT_EQ(&Info, Table.detail(Base));
    Walked.push_back(Base);
  });
  EXPECT_EQ(Walked, Probed);
  size_t SlabBytes = Grains * SlabBytesPerGrain;
  EXPECT_EQ(Table.metadataBytes(), SlabBytes + InfoBytes);
  EXPECT_EQ(Table.footprintBytes(), SlabBytes + InfoBytes + BitmapBytes +
                                        Grains * sizeof(uint32_t));
}

/// Random materializations, stage-1 writes and budget enforcement at
/// several budgets over two regions, checking the walks after every step.
/// Half the materializations go back to an evicted grain.
template <typename TableT>
void runBitmapDifferential(TableT &Table,
                           const std::vector<ShadowRegion> &Regions,
                           uint64_t GrainSize, size_t SlabBytesPerGrain,
                           uint64_t Seed) {
  SplitMix64 Rng(Seed);
  auto RandomGrain = [&] {
    const ShadowRegion &Region = Regions[Rng.nextBelow(Regions.size())];
    return Region.Base + Rng.nextBelow(Region.Size / GrainSize) * GrainSize;
  };
  Table.setByteBudget(size_t(1) << 40);
  size_t Floor = Table.footprintBytes();
  std::vector<uint64_t> Evicted;
  size_t Evictions = 0, Rematerialized = 0;
  for (int Step = 0; Step < 400; ++Step) {
    uint64_t Op = Rng.nextBelow(10);
    if (Op < 6) {
      uint64_t Base = RandomGrain();
      if (!Evicted.empty() && Rng.nextBool(0.5)) {
        Base = Evicted[Rng.nextBelow(Evicted.size())];
        Rematerialized += Table.detail(Base) == nullptr;
      }
      auto &Info = Table.materializeDetail(Base + Rng.nextBelow(GrainSize));
      for (uint64_t Touches = Rng.nextBelow(12); Touches > 0; --Touches)
        touch(Info, static_cast<ThreadId>(Rng.nextBelow(12)));
    } else if (Op < 8) {
      for (uint64_t Writes = 1 + Rng.nextBelow(4); Writes > 0; --Writes)
        Table.noteWrite(RandomGrain());
    } else {
      // Unbounded, a little slack, a lot of slack, or below the floor.
      const size_t Budgets[] = {0, Floor + 2048, Floor + 65536, 1};
      Table.setByteBudget(Budgets[Rng.nextBelow(4)]);
      std::vector<uint64_t> Before;
      Table.forEachGrain([&](uint64_t Base, NodeId, const auto &) {
        Before.push_back(Base);
      });
      Evictions += Table.enforceBudget();
      for (uint64_t Base : Before)
        if (!Table.detail(Base))
          Evicted.push_back(Base);
    }
    expectWalksMatchProbe(Table, Regions, GrainSize, SlabBytesPerGrain);
    if (::testing::Test::HasFailure())
      return;
  }
  // The sequence must have exercised what it claims to.
  EXPECT_GT(Evictions, 0u);
  EXPECT_GT(Rematerialized, 0u);
}

TEST(LiveGrainBitmapTest, LineTableWalksMatchSlotProbe) {
  CacheGeometry Geometry{64};
  // Grain counts that are not multiples of 64 exercise each slab's last,
  // partial bitmap word.
  std::vector<ShadowRegion> Regions = {{RegionBase, 200 * 64},
                                       {RegionBase + (1 << 20), 130 * 64}};
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    ShadowMemory Shadow{Geometry, Regions};
    runBitmapDifferential(Shadow, Regions, 64,
                          sizeof(std::atomic<uint32_t>) +
                              sizeof(std::atomic<CacheLineInfo *>),
                          Seed);
  }
}

TEST(LiveGrainBitmapTest, PageTableWalksMatchSlotProbe) {
  constexpr uint64_t PageSize = 4096;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry{64};
  std::vector<ShadowRegion> Regions = {
      {RegionBase, 150 * PageSize}, {RegionBase + (1 << 24), 70 * PageSize}};
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    PageTable Pages(Topology, Geometry, Regions);
    runBitmapDifferential(Pages, Regions, PageSize,
                          sizeof(std::atomic<uint32_t>) +
                              sizeof(std::atomic<PageInfo *>) +
                              sizeof(std::atomic<NodeId>),
                          Seed);
  }
}

//===----------------------------------------------------------------------===//
// Conservation: residue + live state == a never-evicted run's totals.
//===----------------------------------------------------------------------===//

TEST(EvictionConservationTest, ResiduePlusLiveEqualsUnboundedTotals) {
  CacheGeometry Geometry{64};
  constexpr uint64_t Size = 1 << 16;
  const size_t TotalGrains = Size / 64;
  DetectorConfig Config;
  // Threshold 0 so a write-only trace records every sample in both runs:
  // eviction resets the stage-1 counter, and the first write back to a
  // decayed grain must immediately re-earn tracking for totals to match.
  Config.WriteThreshold = 0;

  ShadowMemory Unbounded{Geometry, {{RegionBase, Size}}};
  Detector DetectUnbounded{Geometry, Unbounded, Config};
  ShadowMemory Bounded{Geometry, {{RegionBase, Size}}};
  Detector DetectBounded{Geometry, Bounded, Config};

  // A budget below the slab floor: every epoch boundary evicts every
  // materialized grain, the maximum-decay worst case.
  Bounded.setByteBudget(1);

  SplitMix64 Rng(20260808);
  for (int Epoch = 0; Epoch < 6; ++Epoch) {
    for (int I = 0; I < 4000; ++I) {
      uint64_t Grain = Rng.next() % TotalGrains;
      uint64_t Address = RegionBase + Grain * 64 + (Rng.next() % 16) * 4;
      pmu::Sample Sample =
          makeSample(Address, static_cast<ThreadId>(Rng.next() % 3),
                     /*IsWrite=*/true, 1 + Rng.next() % 100);
      deliver(DetectUnbounded, Sample, true);
      deliver(DetectBounded, Sample, true);
    }
    EXPECT_GT(Bounded.enforceBudget(), 0u);
  }

  const GrainEvictionStats &Residue = Bounded.evictedResidue();
  EXPECT_GT(Residue.Grains, 0u);
  LiveTotals Live = liveTotals(Bounded);
  LiveTotals Reference = liveTotals(Unbounded);

  // Additive counters conserve exactly across the eviction/decay cycles.
  EXPECT_EQ(Residue.Accesses + Live.Accesses, Reference.Accesses);
  EXPECT_EQ(Residue.Writes + Live.Writes, Reference.Writes);
  EXPECT_EQ(Residue.Cycles + Live.Cycles, Reference.Cycles);

  // And against the run's own detector counters: nothing recorded was
  // lost, nothing counted twice. Invalidation *decisions* diverge after a
  // decayed grain re-materializes with a fresh two-entry table, so they
  // conserve within-run, not across runs.
  EXPECT_EQ(Residue.Accesses + Live.Accesses,
            DetectBounded.stats().SamplesRecorded);
  EXPECT_EQ(Residue.Invalidations + Live.Invalidations,
            DetectBounded.stats().Invalidations);
  EXPECT_EQ(Reference.Accesses, DetectUnbounded.stats().SamplesRecorded);
}

//===----------------------------------------------------------------------===//
// Byte identity: a budget that is never hit must not change one byte of
// the snapshot (the eviction summary only appears once grains evict).
//===----------------------------------------------------------------------===//

std::string snapshotWithBudget(size_t Budget) {
  ProfilerConfig Config;
  Config.Detect.WriteThreshold = 0;
  Config.Detect.LineShadowBudgetBytes = Budget;
  Profiler Profiler(Config);
  // A child thread opens the parallel phase, where samples are recorded.
  Profiler.threadStarted(/*Tid=*/0, /*IsMain=*/true, /*Now=*/0);
  Profiler.threadStarted(/*Tid=*/1, /*IsMain=*/false, /*Now=*/0);

  std::vector<pmu::Sample> Batch;
  for (int I = 0; I < 512; ++I)
    Batch.push_back(makeSample(HeapArenaBase + (I % 64) * 64,
                               static_cast<ThreadId>(I % 2), true,
                               10 + I % 7));
  Profiler.ingestBatch(Batch.data(), Batch.size());

  std::string Text;
  JsonReportSink Sink(Text);
  ReportRunInfo Info;
  Info.Tool = "eviction-test";
  Sink.beginRun(Info);
  Profiler.snapshotEpoch(/*AppRuntime=*/123456, &Sink);
  return Text;
}

TEST(EvictionSnapshotTest, BudgetNeverHitIsByteIdentical) {
  std::string NoBudget = snapshotWithBudget(0);
  std::string HugeBudget = snapshotWithBudget(size_t(1) << 30);
  EXPECT_EQ(NoBudget, HugeBudget);
  EXPECT_EQ(NoBudget.find("\"eviction\""), std::string::npos);
}

TEST(EvictionSnapshotTest, EvictingSnapshotCarriesResidueSummary) {
  // A one-byte budget trims everything after the report streams, and the
  // *next* snapshot must carry the eviction summary object.
  ProfilerConfig Config;
  Config.Detect.WriteThreshold = 0;
  Config.Detect.LineShadowBudgetBytes = 1;
  Profiler Profiler(Config);
  Profiler.threadStarted(0, true, 0);
  Profiler.threadStarted(1, false, 0);
  std::vector<pmu::Sample> Batch;
  for (int I = 0; I < 512; ++I)
    Batch.push_back(makeSample(HeapArenaBase + (I % 64) * 64,
                               static_cast<ThreadId>(I % 2), true));
  Profiler.ingestBatch(Batch.data(), Batch.size());
  std::string First;
  {
    JsonReportSink Sink(First);
    ReportRunInfo Info;
    Info.Tool = "eviction-test";
    Sink.beginRun(Info);
    Profiler.snapshotEpoch(1000, &Sink);
  }
  // The first snapshot streams before its boundary evicts: no residue yet.
  EXPECT_EQ(First.find("\"eviction\""), std::string::npos);

  std::string Second;
  {
    JsonReportSink Sink(Second);
    ReportRunInfo Info;
    Info.Tool = "eviction-test";
    Sink.beginRun(Info);
    Profiler.snapshotEpoch(2000, &Sink);
  }
  EXPECT_NE(Second.find("\"eviction\""), std::string::npos);
  EXPECT_NE(Second.find("\"evicted_grains\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Soak: many epochs of fresh grains, footprint pinned under budget.
//===----------------------------------------------------------------------===//

TEST(EvictionSoakTest, FootprintStaysUnderBudgetAcrossTenEpochs) {
  CacheGeometry Geometry{64};
  constexpr uint64_t Size = 1 << 18; // 4096 grains
  const size_t TotalGrains = Size / 64;
  ShadowMemory Shadow{Geometry, {{RegionBase, Size}}};
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Detector Detect{Geometry, Shadow, Config};

  constexpr size_t GrainsPerEpoch = 256;
  constexpr int Epochs = 10;

  // Prime one epoch to measure the irreducible floor (slab arrays and
  // epoch baselines), then budget a small slack above it: every later
  // epoch must evict nearly everything it materialized to fit.
  for (size_t I = 0; I < GrainsPerEpoch; ++I)
    for (ThreadId Tid = 0; Tid < 2; ++Tid)
      deliver(Detect, makeSample(RegionBase + I * 64, Tid, true), true);
  Shadow.setByteBudget(1); // allocate the epoch baselines
  size_t Floor = Shadow.footprintBytes() - liveTotals(Shadow).InfoBytes;
  size_t Budget = Floor + 4096;
  Shadow.setByteBudget(Budget);
  ASSERT_GT(Shadow.enforceBudget(), 0u);
  EXPECT_LE(Shadow.footprintBytes(), Budget);

  uint64_t LastResidue = Shadow.evictedResidue().Grains;
  for (int Epoch = 1; Epoch < Epochs; ++Epoch) {
    // A fresh window of distinct grains each epoch — far more info bytes
    // than the budget slack can hold.
    for (size_t I = 0; I < GrainsPerEpoch; ++I) {
      size_t Grain = (Epoch * GrainsPerEpoch + I) % TotalGrains;
      for (ThreadId Tid = 0; Tid < 2; ++Tid)
        deliver(Detect, makeSample(RegionBase + Grain * 64, Tid, true), true);
    }
      Shadow.enforceBudget();
    EXPECT_LE(Shadow.footprintBytes(), Budget) << "epoch " << Epoch;
    uint64_t Residue = Shadow.evictedResidue().Grains;
    EXPECT_GT(Residue, LastResidue) << "epoch " << Epoch;
    LastResidue = Residue;
  }
}

//===----------------------------------------------------------------------===//
// Decay and re-materialization plumbing.
//===----------------------------------------------------------------------===//

TEST(EvictionDecayTest, EvictedGrainReadsUnmaterializedAndReEarnsTracking) {
  CacheGeometry Geometry{64};
  ShadowMemory Shadow{Geometry, {{RegionBase, 1 << 12}}};
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Detector Detect{Geometry, Shadow, Config};

  deliver(Detect, makeSample(RegionBase, 0, true), true);
  deliver(Detect, makeSample(RegionBase, 1, true), true);
  ASSERT_NE(Shadow.detail(RegionBase), nullptr);
  ASSERT_EQ(Shadow.materializedGrains(), 1u);

  Shadow.setByteBudget(1);
  EXPECT_EQ(Shadow.enforceBudget(), 1u);
  // Evicted: reads as unmaterialized, counters live on in the residue,
  // the stage-1 counter restarts.
  EXPECT_EQ(Shadow.detail(RegionBase), nullptr);
  EXPECT_EQ(Shadow.materializedGrains(), 0u);
  EXPECT_EQ(Shadow.writeCount(RegionBase), 0u);
  EXPECT_EQ(Shadow.evictedResidue().Grains, 1u);
  EXPECT_EQ(Shadow.evictedResidue().Accesses, 2u);

  // Traffic returning to the decayed grain re-materializes it fresh.
  deliver(Detect, makeSample(RegionBase, 0, true), true);
  ASSERT_NE(Shadow.detail(RegionBase), nullptr);
  EXPECT_EQ(Shadow.detail(RegionBase)->accesses(), 1u);
  EXPECT_EQ(Shadow.materializedGrains(), 1u);
}

} // namespace
