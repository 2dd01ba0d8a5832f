//===- tests/DetectTest.cpp - detection core tests -------------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the two-entry table, word tracking, shadow
/// memory, detector gating, and the FS/TS classifier. The central property
/// test checks the paper's implicit claim that two entries are enough: on
/// arbitrary access streams the table's invalidation count must equal both
/// the unbounded recent-accessor-set reference model and (for counting
/// purposes) the Zhao ownership-bitmap baseline.
///
//===----------------------------------------------------------------------===//

#include "baseline/FullTracker.h"
#include "baseline/OwnershipTracker.h"
#include "baseline/ReferenceModel.h"
#include "core/detect/CacheLineInfo.h"
#include "core/detect/CacheLineTable.h"
#include "core/detect/Detector.h"
#include "core/detect/ShadowMemory.h"
#include "core/detect/SharingClassifier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::core;

namespace {

//===----------------------------------------------------------------------===//
// CacheLineTable: the paper's rule, case by case
//===----------------------------------------------------------------------===//

TEST(CacheLineTableTest, FirstReadIsRecordedNoInvalidation) {
  CacheLineTable Table;
  EXPECT_FALSE(Table.recordAccess(1, AccessKind::Read));
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_TRUE(Table.containsThread(1));
}

TEST(CacheLineTableTest, RepeatReadBySameThreadNotDuplicated) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Read);
  Table.recordAccess(1, AccessKind::Read);
  EXPECT_EQ(Table.size(), 1u);
}

TEST(CacheLineTableTest, ReadFromSecondThreadFillsTable) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Read);
  EXPECT_FALSE(Table.recordAccess(2, AccessKind::Read));
  EXPECT_EQ(Table.size(), 2u);
}

TEST(CacheLineTableTest, ThirdReaderIgnoredWhenFull) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Read);
  Table.recordAccess(2, AccessKind::Read);
  EXPECT_FALSE(Table.recordAccess(3, AccessKind::Read));
  EXPECT_EQ(Table.size(), 2u);
  EXPECT_FALSE(Table.containsThread(3));
}

TEST(CacheLineTableTest, WriteToEmptyTableCountsAsInvalidation) {
  // The paper's "in all other cases" clause: first-ever write flushes and
  // records, keeping the table never-empty.
  CacheLineTable Table;
  EXPECT_TRUE(Table.recordAccess(1, AccessKind::Write));
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Write);
}

TEST(CacheLineTableTest, WriteAfterOwnEntryIsSkipped) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Read);
  EXPECT_FALSE(Table.recordAccess(1, AccessKind::Write));
  // "There is no need to update the existing entry."
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Read);
}

TEST(CacheLineTableTest, WriteAfterOtherThreadEntryInvalidates) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Read);
  EXPECT_TRUE(Table.recordAccess(2, AccessKind::Write));
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_TRUE(Table.containsThread(2));
}

TEST(CacheLineTableTest, WriteToFullTableAlwaysInvalidates) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Read);
  Table.recordAccess(2, AccessKind::Read);
  // Even by a thread already present.
  EXPECT_TRUE(Table.recordAccess(1, AccessKind::Write));
  EXPECT_EQ(Table.size(), 1u);
}

TEST(CacheLineTableTest, PingPongWritesInvalidateEachTime) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Write); // counts (empty-table rule)
  int Invalidations = 0;
  for (int I = 0; I < 10; ++I)
    Invalidations += Table.recordAccess(I % 2 ? 1 : 2, AccessKind::Write);
  EXPECT_EQ(Invalidations, 10);
}

TEST(CacheLineTableTest, SingleThreadNeverInvalidatesAfterFirstWrite) {
  CacheLineTable Table;
  Table.recordAccess(7, AccessKind::Write);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(Table.recordAccess(7, AccessKind::Write));
    EXPECT_FALSE(Table.recordAccess(7, AccessKind::Read));
  }
}

TEST(CacheLineTableTest, EntriesAlwaysDistinctThreads) {
  SplitMix64 Rng(99);
  CacheLineTable Table;
  for (int I = 0; I < 10000; ++I) {
    ThreadId Tid = static_cast<ThreadId>(Rng.nextBelow(6));
    AccessKind Kind = Rng.nextBool(0.5) ? AccessKind::Read : AccessKind::Write;
    Table.recordAccess(Tid, Kind);
    if (Table.size() == 2) {
      EXPECT_NE(Table.entry(0).Tid, Table.entry(1).Tid);
    }
  }
}

//===----------------------------------------------------------------------===//
// Packed-table state machine: every reachable state, every transition
//===----------------------------------------------------------------------===//

// The packed atomic word has exactly four reachable state shapes: empty, a
// single read entry, a single write entry, and a full table whose second
// entry is always a read (writes only ever enter a flushed table). These
// tests pin each documented transition out of each shape; the exhaustive
// sequence enumeration below then closes the gaps no hand-picked case
// covers.

TEST(PackedTableStateTest, EmptyState) {
  CacheLineTable Table;
  EXPECT_EQ(Table.size(), 0u);
  EXPECT_FALSE(Table.containsThread(0));
  EXPECT_FALSE(Table.containsThread(1));
}

TEST(PackedTableStateTest, EmptyToSingleRead) {
  CacheLineTable Table;
  EXPECT_FALSE(Table.recordAccess(5, AccessKind::Read));
  ASSERT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.entry(0).Tid, 5u);
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Read);
}

TEST(PackedTableStateTest, EmptyToSingleWriteInvalidates) {
  CacheLineTable Table;
  EXPECT_TRUE(Table.recordAccess(5, AccessKind::Write));
  ASSERT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.entry(0).Tid, 5u);
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Write);
}

TEST(PackedTableStateTest, SingleReadSelfTransitionsAreNoOps) {
  CacheLineTable Table;
  Table.recordAccess(5, AccessKind::Read);
  EXPECT_FALSE(Table.recordAccess(5, AccessKind::Read));  // ignored
  EXPECT_FALSE(Table.recordAccess(5, AccessKind::Write)); // skipped
  ASSERT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Read); // entry not updated
}

TEST(PackedTableStateTest, SingleReadOtherReadFills) {
  CacheLineTable Table;
  Table.recordAccess(5, AccessKind::Read);
  EXPECT_FALSE(Table.recordAccess(6, AccessKind::Read));
  ASSERT_EQ(Table.size(), 2u);
  EXPECT_EQ(Table.entry(0).Tid, 5u);
  EXPECT_EQ(Table.entry(1).Tid, 6u);
  EXPECT_EQ(Table.entry(1).Kind, AccessKind::Read);
}

TEST(PackedTableStateTest, SingleReadOtherWriteFlushes) {
  CacheLineTable Table;
  Table.recordAccess(5, AccessKind::Read);
  EXPECT_TRUE(Table.recordAccess(6, AccessKind::Write));
  ASSERT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.entry(0).Tid, 6u);
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Write);
  EXPECT_FALSE(Table.containsThread(5));
}

TEST(PackedTableStateTest, SingleWriteSelfTransitionsAreNoOps) {
  CacheLineTable Table;
  Table.recordAccess(5, AccessKind::Write);
  EXPECT_FALSE(Table.recordAccess(5, AccessKind::Write));
  EXPECT_FALSE(Table.recordAccess(5, AccessKind::Read));
  ASSERT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Write);
}

TEST(PackedTableStateTest, SingleWriteOtherReadFills) {
  CacheLineTable Table;
  Table.recordAccess(5, AccessKind::Write);
  EXPECT_FALSE(Table.recordAccess(6, AccessKind::Read));
  ASSERT_EQ(Table.size(), 2u);
  EXPECT_EQ(Table.entry(0).Kind, AccessKind::Write);
  EXPECT_EQ(Table.entry(1).Kind, AccessKind::Read);
}

TEST(PackedTableStateTest, SingleWriteOtherWriteFlushes) {
  CacheLineTable Table;
  Table.recordAccess(5, AccessKind::Write);
  EXPECT_TRUE(Table.recordAccess(6, AccessKind::Write));
  ASSERT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.entry(0).Tid, 6u);
}

TEST(PackedTableStateTest, FullTableReadsIgnoredFromAnyThread) {
  CacheLineTable Table;
  Table.recordAccess(5, AccessKind::Read);
  Table.recordAccess(6, AccessKind::Read);
  EXPECT_FALSE(Table.recordAccess(5, AccessKind::Read)); // member
  EXPECT_FALSE(Table.recordAccess(7, AccessKind::Read)); // third thread
  ASSERT_EQ(Table.size(), 2u);
  EXPECT_FALSE(Table.containsThread(7));
}

TEST(PackedTableStateTest, FullTableWriteAlwaysFlushesAndInvalidates) {
  for (ThreadId Writer : {5u, 6u, 7u}) { // member 0, member 1, outsider
    CacheLineTable Table;
    Table.recordAccess(5, AccessKind::Read);
    Table.recordAccess(6, AccessKind::Read);
    EXPECT_TRUE(Table.recordAccess(Writer, AccessKind::Write));
    ASSERT_EQ(Table.size(), 1u);
    EXPECT_EQ(Table.entry(0).Tid, Writer);
    EXPECT_EQ(Table.entry(0).Kind, AccessKind::Write);
  }
}

TEST(PackedTableStateTest, FlushRestoresEmptyState) {
  CacheLineTable Table;
  Table.recordAccess(1, AccessKind::Read);
  Table.recordAccess(2, AccessKind::Read);
  Table.flush();
  EXPECT_EQ(Table.size(), 0u);
  EXPECT_FALSE(Table.containsThread(1));
  // First write into the flushed table counts again (empty-table rule).
  EXPECT_TRUE(Table.recordAccess(1, AccessKind::Write));
}

TEST(PackedTableStateTest, ExhaustiveSequencesMatchReferenceModel) {
  // Every access sequence of length 6 over three threads and both kinds
  // (6^6 = 46656 sequences) must agree with the unbounded reference model
  // step by step, and the packed invariants must hold in every state:
  // occupancy <= 2, entries from distinct threads, entry 1 (filled second)
  // is always a read.
  constexpr unsigned Length = 6;
  constexpr unsigned Choices = 6; // 3 tids x {read, write}
  unsigned Total = 1;
  for (unsigned I = 0; I < Length; ++I)
    Total *= Choices;

  for (unsigned Encoded = 0; Encoded < Total; ++Encoded) {
    CacheLineTable Table;
    baseline::ReferenceLineModel Reference;
    unsigned Rest = Encoded;
    for (unsigned Step = 0; Step < Length; ++Step) {
      unsigned Choice = Rest % Choices;
      Rest /= Choices;
      ThreadId Tid = 1 + Choice % 3;
      AccessKind Kind = Choice < 3 ? AccessKind::Read : AccessKind::Write;

      bool FromTable = Table.recordAccess(Tid, Kind);
      bool FromReference = Reference.recordAccess(Tid, Kind);
      ASSERT_EQ(FromTable, FromReference)
          << "sequence " << Encoded << " step " << Step;

      unsigned Count = Table.size();
      ASSERT_LE(Count, 2u);
      if (Count == 2) {
        ASSERT_NE(Table.entry(0).Tid, Table.entry(1).Tid);
        ASSERT_EQ(Table.entry(1).Kind, AccessKind::Read)
            << "second entry can only ever be a recorded read";
      }
    }
  }
}

TEST(PackedTableStateTest, ThreadIdsNearPackingLimit) {
  // 30-bit tid storage: ids below 2^30 round-trip exactly.
  constexpr ThreadId Big = (1u << 30) - 1;
  CacheLineTable Table;
  Table.recordAccess(Big, AccessKind::Read);
  EXPECT_TRUE(Table.containsThread(Big));
  EXPECT_EQ(Table.entry(0).Tid, Big);
  EXPECT_FALSE(Table.recordAccess(Big, AccessKind::Write)); // self skip
  EXPECT_TRUE(Table.recordAccess(Big - 1, AccessKind::Write));
}

//===----------------------------------------------------------------------===//
// Property: two entries are exactly enough (vs. reference + ownership)
//===----------------------------------------------------------------------===//

struct EquivalenceParams {
  uint32_t Threads;
  double WriteFraction;
  uint64_t Seed;
};

class TableEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParams> {};

TEST_P(TableEquivalenceTest, MatchesReferenceAndOwnershipModels) {
  const EquivalenceParams &Params = GetParam();
  SplitMix64 Rng(Params.Seed);

  CacheGeometry Geometry(64);
  CacheLineTable Table;
  baseline::ReferenceLineModel Reference;
  baseline::OwnershipTracker Ownership(Geometry, Params.Threads);

  uint64_t TableInvalidations = 0;
  for (int I = 0; I < 20000; ++I) {
    ThreadId Tid = static_cast<ThreadId>(Rng.nextBelow(Params.Threads));
    AccessKind Kind = Rng.nextBool(Params.WriteFraction) ? AccessKind::Write
                                                         : AccessKind::Read;
    bool FromTable = Table.recordAccess(Tid, Kind);
    bool FromReference = Reference.recordAccess(Tid, Kind);
    bool FromOwnership = Ownership.recordAccess(0x1000, Tid, Kind);
    EXPECT_EQ(FromTable, FromReference) << "step " << I;
    EXPECT_EQ(FromTable, FromOwnership) << "step " << I;
    TableInvalidations += FromTable;
  }
  EXPECT_EQ(TableInvalidations, Reference.invalidations());
  EXPECT_EQ(TableInvalidations, Ownership.invalidations());
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreams, TableEquivalenceTest,
    ::testing::Values(EquivalenceParams{2, 0.5, 1},
                      EquivalenceParams{2, 0.9, 2},
                      EquivalenceParams{3, 0.3, 3},
                      EquivalenceParams{4, 0.5, 4},
                      EquivalenceParams{8, 0.2, 5},
                      EquivalenceParams{8, 0.8, 6},
                      EquivalenceParams{16, 0.5, 7},
                      EquivalenceParams{33, 0.5, 8},   // > 32: Zhao's limit
                      EquivalenceParams{64, 0.4, 9},
                      EquivalenceParams{128, 0.6, 10}, // far beyond 32
                      EquivalenceParams{5, 1.0, 11},   // writes only
                      EquivalenceParams{5, 0.05, 12})); // reads mostly

TEST(TableMemoryTest, TwoEntryTableBeatsOwnershipBitmapBeyond32Threads) {
  // The paper's motivation for the table: ownership bits need one bit per
  // thread per line; the table is constant-size.
  CacheGeometry Geometry(64);
  for (uint32_t Threads : {64u, 256u, 1024u}) {
    baseline::OwnershipTracker Ownership(Geometry, Threads);
    EXPECT_GE(Ownership.bytesPerLine(), Threads / 8);
    EXPECT_LE(sizeof(CacheLineTable), 24u);
  }
}

//===----------------------------------------------------------------------===//
// CacheLineInfo: word tracking
//===----------------------------------------------------------------------===//

TEST(CacheLineInfoTest, WordStatsAccumulate) {
  CacheLineInfo Info(16);
  Info.recordAccess(1, AccessKind::Read, 2, 1, 10);
  Info.recordAccess(1, AccessKind::Write, 2, 1, 20);
  EXPECT_EQ(Info.words()[2].Reads, 1u);
  EXPECT_EQ(Info.words()[2].Writes, 1u);
  EXPECT_EQ(Info.words()[2].Cycles, 30u);
  EXPECT_EQ(Info.words()[2].FirstThread, 1u);
  EXPECT_FALSE(Info.words()[2].MultiThread);
}

TEST(CacheLineInfoTest, SecondThreadMarksWordShared) {
  CacheLineInfo Info(16);
  Info.recordAccess(1, AccessKind::Read, 5, 1, 1);
  Info.recordAccess(2, AccessKind::Read, 5, 1, 1);
  EXPECT_TRUE(Info.words()[5].MultiThread);
}

TEST(CacheLineInfoTest, WideAccessMarksAllCoveredWords) {
  CacheLineInfo Info(16);
  // An 8-byte store covers two words.
  Info.recordAccess(1, AccessKind::Write, 4, 2, 50);
  EXPECT_EQ(Info.words()[4].Writes, 1u);
  EXPECT_EQ(Info.words()[5].Writes, 1u);
  // Latency attributed once.
  EXPECT_EQ(Info.words()[4].Cycles + Info.words()[5].Cycles, 50u);
}

TEST(CacheLineInfoTest, PerThreadStatsSortedAndMerged) {
  CacheLineInfo Info(16);
  Info.recordAccess(3, AccessKind::Write, 0, 1, 10);
  Info.recordAccess(1, AccessKind::Write, 1, 1, 20);
  Info.recordAccess(3, AccessKind::Read, 2, 1, 30);
  ASSERT_EQ(Info.threads().size(), 2u);
  EXPECT_EQ(Info.threads()[0].Tid, 1u);
  EXPECT_EQ(Info.threads()[1].Tid, 3u);
  EXPECT_EQ(Info.threads()[1].Accesses, 2u);
  EXPECT_EQ(Info.threads()[1].Cycles, 40u);
}

TEST(CacheLineInfoTest, InvalidationCounterFollowsTable) {
  CacheLineInfo Info(16);
  Info.recordAccess(1, AccessKind::Write, 0, 1, 1); // empty-table write
  Info.recordAccess(2, AccessKind::Write, 1, 1, 1);
  Info.recordAccess(1, AccessKind::Write, 0, 1, 1);
  EXPECT_EQ(Info.invalidations(), 3u);
  EXPECT_EQ(Info.writes(), 3u);
  EXPECT_EQ(Info.accesses(), 3u);
}

//===----------------------------------------------------------------------===//
// ShadowMemory
//===----------------------------------------------------------------------===//

class ShadowTest : public ::testing::Test {
protected:
  CacheGeometry Geometry{64};
  ShadowMemory Shadow{Geometry,
                      {{0x40000000, 1 << 20}, {0x10000000, 1 << 16}}};
};

TEST_F(ShadowTest, CoversOnlyConfiguredRegions) {
  EXPECT_TRUE(Shadow.covers(0x40000000));
  EXPECT_TRUE(Shadow.covers(0x40000000 + (1 << 20) - 1));
  EXPECT_FALSE(Shadow.covers(0x40000000 + (1 << 20)));
  EXPECT_TRUE(Shadow.covers(0x10000000));
  EXPECT_FALSE(Shadow.covers(0x20000000));
  EXPECT_FALSE(Shadow.covers(0));
}

TEST_F(ShadowTest, WriteCountsPerLine) {
  EXPECT_EQ(Shadow.noteWrite(0x40000004), 1u);
  EXPECT_EQ(Shadow.noteWrite(0x40000038), 2u); // same 64-byte line
  EXPECT_EQ(Shadow.noteWrite(0x40000040), 1u); // next line
  EXPECT_EQ(Shadow.writeCount(0x40000000), 2u);
}

TEST_F(ShadowTest, DetailMaterializesLazily) {
  EXPECT_EQ(Shadow.detail(0x40000000), nullptr);
  CacheLineInfo &Info = Shadow.materializeDetail(0x40000000);
  EXPECT_EQ(&Shadow.materializeDetail(0x40000010), &Info); // same line
  EXPECT_EQ(Shadow.materializedLines(), 1u);
  EXPECT_EQ(Info.words().size(), Geometry.wordsPerLine());
}

TEST_F(ShadowTest, ForEachDetailVisitsAllMaterializedLines) {
  Shadow.materializeDetail(0x40000000);
  Shadow.materializeDetail(0x40000100);
  Shadow.materializeDetail(0x10000000);
  std::vector<uint64_t> Bases;
  Shadow.forEachDetail(
      [&](uint64_t Base, const CacheLineInfo &) { Bases.push_back(Base); });
  ASSERT_EQ(Bases.size(), 3u);
  EXPECT_NE(std::find(Bases.begin(), Bases.end(), 0x40000000u), Bases.end());
  EXPECT_NE(std::find(Bases.begin(), Bases.end(), 0x40000100u), Bases.end());
  EXPECT_NE(std::find(Bases.begin(), Bases.end(), 0x10000000u), Bases.end());
}

TEST_F(ShadowTest, ShadowBytesGrowWithMaterialization) {
  size_t Before = Shadow.shadowBytes();
  Shadow.materializeDetail(0x40000000);
  EXPECT_GT(Shadow.shadowBytes(), Before);
}

//===----------------------------------------------------------------------===//
// Detector gating
//===----------------------------------------------------------------------===//

pmu::Sample makeSample(uint64_t Address, ThreadId Tid, bool IsWrite,
                       uint32_t Latency = 10) {
  pmu::Sample Sample;
  Sample.Address = Address;
  Sample.Tid = Tid;
  Sample.IsWrite = IsWrite;
  Sample.LatencyCycles = Latency;
  return Sample;
}

/// Delivers one sample as a batch of one. \returns true if the line stage
/// recorded it.
bool deliver(Detector &D, const pmu::Sample &S, bool InParallelPhase) {
  uint64_t Before = D.stats().SamplesRecorded;
  D.handleBatch(&S, 1, InParallelPhase);
  return D.stats().SamplesRecorded > Before;
}

class DetectorTest : public ::testing::Test {
protected:
  CacheGeometry Geometry{64};
  ShadowMemory Shadow{Geometry, {{0x40000000, 1 << 20}}};
  DetectorConfig Config;
  Detector Detect{Geometry, Shadow, Config};
};

TEST_F(DetectorTest, FiltersSamplesOutsideMonitoredRegions) {
  EXPECT_FALSE(deliver(Detect, makeSample(0x7fff0000, 0, true), true));
  EXPECT_EQ(Detect.stats().SamplesFiltered, 1u);
  EXPECT_EQ(Detect.stats().SamplesRecorded, 0u);
}

TEST_F(DetectorTest, WriteThresholdGatesDetailTracking) {
  // Writes 1 and 2 only bump the counter; write 3 crosses the threshold.
  EXPECT_FALSE(deliver(Detect, makeSample(0x40000000, 0, true), true));
  EXPECT_FALSE(deliver(Detect, makeSample(0x40000000, 1, true), true));
  EXPECT_EQ(Shadow.materializedLines(), 0u);
  EXPECT_TRUE(deliver(Detect, makeSample(0x40000000, 0, true), true));
  EXPECT_EQ(Shadow.materializedLines(), 1u);
}

TEST_F(DetectorTest, ReadOnlyLinesNeverMaterialize) {
  for (int I = 0; I < 100; ++I)
    deliver(Detect, makeSample(0x40000040, I % 4, false), true);
  EXPECT_EQ(Shadow.materializedLines(), 0u);
}

TEST_F(DetectorTest, SerialPhaseSamplesNotRecordedInDetail) {
  for (int I = 0; I < 10; ++I)
    EXPECT_FALSE(deliver(Detect, makeSample(0x40000000, 0, true), false));
  // Write counts accumulated, but no detail materialized during serial.
  EXPECT_EQ(Shadow.writeCount(0x40000000), 10u);
  EXPECT_EQ(Shadow.materializedLines(), 0u);
  // Once parallel begins, the susceptible line materializes immediately.
  EXPECT_TRUE(deliver(Detect, makeSample(0x40000000, 1, true), true));
}

TEST_F(DetectorTest, InvalidationsCountedAcrossThreads) {
  for (int I = 0; I < 20; ++I)
    deliver(Detect, makeSample(0x40000000, I % 2, true), true);
  EXPECT_GT(Detect.stats().Invalidations, 10u);
}

TEST_F(DetectorTest, StraddlingAccessClampedToLine) {
  // 8-byte access starting at the last word of a line must not assert.
  uint64_t LastWord = 0x40000000 + 60;
  deliver(Detect, makeSample(LastWord, 0, true), true);
  deliver(Detect, makeSample(LastWord, 1, true), true);
  EXPECT_TRUE(deliver(Detect, makeSample(LastWord, 0, true), true));
}

TEST(FullTrackerTest, KeepsCheetahsWriteThresholdWithoutPhases) {
  // The baseline analyzes every access with no phase model, yet a line
  // still needs more than two writes before it is tracked in detail.
  CacheGeometry Geometry(64);
  baseline::FullTracker Tracker(Geometry, {{0x40000000, 4096}},
                                baseline::FullTrackerConfig());
  sim::CoherenceResult Hit;
  for (uint64_t I = 0; I < 2; ++I)
    Tracker.onMemoryAccess(static_cast<ThreadId>(I),
                           MemoryAccess::write(0x40000000 + 4 * I), Hit, I);
  EXPECT_EQ(Tracker.shadow().materializedLines(), 0u);
  Tracker.onMemoryAccess(0, MemoryAccess::write(0x40000000), Hit, 2);
  EXPECT_EQ(Tracker.shadow().materializedLines(), 1u);
}

//===----------------------------------------------------------------------===//
// classifySharing
//===----------------------------------------------------------------------===//

TEST(ClassifierTest, DisjointWordsAreFalseSharing) {
  CacheLineInfo Info(16);
  for (int I = 0; I < 50; ++I) {
    Info.recordAccess(1, AccessKind::Write, 0, 1, 10);
    Info.recordAccess(2, AccessKind::Write, 8, 1, 10);
  }
  LineClassification Verdict = classifySharing(Info);
  EXPECT_EQ(Verdict.Kind, SharingKind::FalseSharing);
  EXPECT_EQ(Verdict.Threads, 2u);
  EXPECT_EQ(Verdict.SharedWordAccesses, 0u);
}

TEST(ClassifierTest, SameWordsAreTrueSharing) {
  CacheLineInfo Info(16);
  for (int I = 0; I < 50; ++I)
    Info.recordAccess(I % 4, AccessKind::Write, 3, 1, 10);
  EXPECT_EQ(classifySharing(Info).Kind, SharingKind::TrueSharing);
}

TEST(ClassifierTest, SingleThreadIsNotShared) {
  CacheLineInfo Info(16);
  for (int I = 0; I < 50; ++I)
    Info.recordAccess(1, AccessKind::Write, I % 16, 1, 10);
  EXPECT_EQ(classifySharing(Info).Kind, SharingKind::NotShared);
}

TEST(ClassifierTest, MixedPatternsClassifyAsMixed) {
  CacheLineInfo Info(16);
  for (int I = 0; I < 50; ++I) {
    // Half the traffic on a genuinely shared word, half on private words.
    Info.recordAccess(1, AccessKind::Write, 0, 1, 10);
    Info.recordAccess(2, AccessKind::Write, 0, 1, 10);
    Info.recordAccess(1, AccessKind::Write, 4, 1, 10);
    Info.recordAccess(2, AccessKind::Write, 8, 1, 10);
  }
  LineClassification Verdict = classifySharing(Info);
  EXPECT_EQ(Verdict.Kind, SharingKind::Mixed);
  EXPECT_NEAR(Verdict.sharedFraction(), 0.5, 0.01);
}

TEST(ClassifierTest, SharedFractionThresholdsSitAtPointThreeAndPointSeven) {
  // A hundred accesses on two words, Shared of them on a word both threads
  // touch: a shared fraction of at most 0.3 is false sharing, at least 0.7
  // true sharing, and anything between mixed.
  auto Classify = [](uint64_t Shared) {
    std::vector<WordStats> Words(2);
    Words[0].Writes = Shared;
    Words[0].MultiThread = true;
    Words[1].Writes = 100 - Shared;
    return classifySharing(Words, /*ThreadsOnLine=*/2).Kind;
  };
  EXPECT_EQ(Classify(30), SharingKind::FalseSharing);
  EXPECT_EQ(Classify(31), SharingKind::Mixed);
  EXPECT_EQ(Classify(69), SharingKind::Mixed);
  EXPECT_EQ(Classify(70), SharingKind::TrueSharing);
}

TEST(ClassifierTest, SharingKindNamesAreStable) {
  EXPECT_STREQ(sharingKindName(SharingKind::FalseSharing), "false-sharing");
  EXPECT_STREQ(sharingKindName(SharingKind::TrueSharing), "true-sharing");
  EXPECT_STREQ(sharingKindName(SharingKind::NotShared), "not-shared");
  EXPECT_STREQ(sharingKindName(SharingKind::Mixed), "mixed-sharing");
}

} // namespace
