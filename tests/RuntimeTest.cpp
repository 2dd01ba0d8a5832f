//===- tests/RuntimeTest.cpp - runtime layer tests -------------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Callsite.h"
#include "runtime/GlobalRegistry.h"
#include "runtime/HeapAllocator.h"
#include "runtime/PhaseTracker.h"
#include "runtime/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <set>

using namespace cheetah;
using namespace cheetah::runtime;

namespace {

//===----------------------------------------------------------------------===//
// CallsiteTable
//===----------------------------------------------------------------------===//

TEST(CallsiteTest, InterningDeduplicates) {
  CallsiteTable Table;
  CallsiteId A = Table.intern("foo.c", 10);
  CallsiteId B = Table.intern("foo.c", 10);
  CallsiteId C = Table.intern("foo.c", 11);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(Table.get(A).Frames, std::vector<std::string>{"foo.c:10"});
}

TEST(CallsiteTest, UnknownIdIsZero) {
  CallsiteTable Table;
  EXPECT_TRUE(Table.get(0).Frames.empty());
  EXPECT_NE(Table.intern("a.c", 1), 0u);
}

TEST(CallsiteTest, FramesTruncatedToFive) {
  CallsiteTable Table;
  Callsite Deep;
  for (int I = 0; I < 10; ++I)
    Deep.Frames.push_back("frame" + std::to_string(I));
  CallsiteId Id = Table.intern(Deep);
  EXPECT_EQ(Table.get(Id).Frames.size(), MaxCallsiteFrames);
  EXPECT_EQ(Table.get(Id).Frames.front(), "frame0");
}

//===----------------------------------------------------------------------===//
// HeapAllocator
//===----------------------------------------------------------------------===//

class HeapTest : public ::testing::Test {
protected:
  CacheGeometry Geometry{64};
  HeapAllocator Heap{0x40000000, 8 << 20, Geometry};
};

TEST_F(HeapTest, SizeClassesArePowersOfTwo) {
  EXPECT_EQ(HeapAllocator::sizeClassFor(1), 8u);
  EXPECT_EQ(HeapAllocator::sizeClassFor(8), 8u);
  EXPECT_EQ(HeapAllocator::sizeClassFor(9), 16u);
  EXPECT_EQ(HeapAllocator::sizeClassFor(640), 1024u);
  EXPECT_EQ(HeapAllocator::sizeClassFor(65536), 65536u);
}

TEST_F(HeapTest, AllocationReturnsDistinctRanges) {
  uint64_t A = Heap.allocate(100, 0, 0);
  uint64_t B = Heap.allocate(100, 0, 0);
  ASSERT_NE(A, 0u);
  ASSERT_NE(B, 0u);
  EXPECT_NE(A, B);
  EXPECT_TRUE(B >= A + 128 || A >= B + 128);
}

TEST_F(HeapTest, ObjectAtFindsContainingObject) {
  uint64_t A = Heap.allocate(100, 0, 3);
  const HeapObject *Object = Heap.objectAt(A + 57);
  ASSERT_NE(Object, nullptr);
  EXPECT_EQ(Object->Start, A);
  EXPECT_EQ(Object->RequestedSize, 100u);
  EXPECT_EQ(Object->Size, 128u);
  EXPECT_EQ(Object->Site, 3u);
  EXPECT_EQ(Heap.objectAt(A + 128), nullptr); // one past the size class
}

TEST_F(HeapTest, ObjectAtOutsideArenaIsNull) {
  Heap.allocate(64, 0, 0);
  EXPECT_EQ(Heap.objectAt(0x1000), nullptr);
  EXPECT_EQ(Heap.objectAt(0x40000000 + (8ull << 20)), nullptr);
}

TEST_F(HeapTest, DifferentThreadsNeverShareACacheLine) {
  // The Hoard property (paper Section 2.2): objects in one line belong to
  // one thread. Allocate many small objects from several threads and check
  // line ownership is unique.
  std::map<uint64_t, ThreadId> LineOwner;
  for (ThreadId Tid = 0; Tid < 8; ++Tid)
    for (int I = 0; I < 200; ++I) {
      uint64_t Address = Heap.allocate(16, Tid, 0);
      ASSERT_NE(Address, 0u);
      for (uint64_t Byte = 0; Byte < 16; Byte += 4) {
        uint64_t Line = Geometry.lineIndex(Address + Byte);
        auto [It, Inserted] = LineOwner.emplace(Line, Tid);
        EXPECT_EQ(It->second, Tid)
            << "line shared between threads " << It->second << " and " << Tid;
      }
    }
}

TEST_F(HeapTest, FreeListReusesWithinThreadAndClass) {
  uint64_t A = Heap.allocate(100, 2, 0);
  Heap.deallocate(A, 2);
  uint64_t B = Heap.allocate(90, 2, 0); // same 128-byte class
  EXPECT_EQ(A, B);
}

TEST_F(HeapTest, MetadataSurvivesFree) {
  uint64_t A = Heap.allocate(100, 0, 5);
  Heap.deallocate(A, 0);
  const HeapObject *Object = Heap.objectAt(A);
  ASSERT_NE(Object, nullptr);
  EXPECT_FALSE(Object->Live);
  EXPECT_EQ(Object->Site, 5u);
}

TEST_F(HeapTest, LargeAllocationsAreLineAligned) {
  uint64_t A = Heap.allocate(100000, 0, 0);
  ASSERT_NE(A, 0u);
  EXPECT_EQ(A % Geometry.lineSize(), 0u);
  const HeapObject *Object = Heap.objectAt(A + 99999);
  ASSERT_NE(Object, nullptr);
  EXPECT_EQ(Object->Start, A);
}

TEST_F(HeapTest, ExhaustionReturnsZero) {
  HeapAllocator Tiny(0x50000000, 128 * 1024, Geometry);
  uint64_t Total = 0;
  while (true) {
    uint64_t A = Tiny.allocate(4096, 0, 0);
    if (A == 0)
      break;
    Total += 4096;
  }
  EXPECT_LE(Total, 128u * 1024);
  EXPECT_GT(Total, 0u);
}

TEST_F(HeapTest, StatsTrackAllocations) {
  Heap.allocate(10, 0, 0);
  uint64_t B = Heap.allocate(20, 0, 0);
  Heap.deallocate(B, 0);
  EXPECT_EQ(Heap.stats().Allocations, 2u);
  EXPECT_EQ(Heap.stats().Deallocations, 1u);
  EXPECT_EQ(Heap.stats().BytesRequested, 30u);
  EXPECT_GT(Heap.stats().ArenaBytesUsed, 0u);
}

TEST_F(HeapTest, ZeroSizeAllocationIsValid) {
  uint64_t A = Heap.allocate(0, 0, 0);
  EXPECT_NE(A, 0u);
  EXPECT_EQ(Heap.objectAt(A)->Size, 8u);
}

//===----------------------------------------------------------------------===//
// GlobalRegistry
//===----------------------------------------------------------------------===//

TEST(GlobalRegistryTest, PacksAdjacentGlobals) {
  CacheGeometry Geometry(64);
  GlobalRegistry Registry(0x10000000, 1 << 20, Geometry);
  uint64_t A = Registry.define("alpha", 8);
  uint64_t B = Registry.define("beta", 8);
  EXPECT_EQ(B, A + 8); // adjacent: can falsely share a line
  EXPECT_TRUE(Geometry.sharesLine(A, B));
}

TEST(GlobalRegistryTest, AlignedGlobalsStartOnLineBoundaries) {
  CacheGeometry Geometry(64);
  GlobalRegistry Registry(0x10000000, 1 << 20, Geometry);
  Registry.define("pad", 4);
  uint64_t Aligned = Registry.defineAligned("aligned", 128);
  EXPECT_EQ(Aligned % 64, 0u);
}

TEST(GlobalRegistryTest, GlobalAtResolvesNames) {
  CacheGeometry Geometry(64);
  GlobalRegistry Registry(0x10000000, 1 << 20, Geometry);
  uint64_t A = Registry.define("counter_array", 256);
  const GlobalVariable *Var = Registry.globalAt(A + 100);
  ASSERT_NE(Var, nullptr);
  EXPECT_EQ(Var->Name, "counter_array");
  EXPECT_EQ(Registry.globalAt(A + 256), nullptr);
  EXPECT_EQ(Registry.globalAt(0x20000000), nullptr);
}

TEST(GlobalRegistryTest, SegmentExhaustionReturnsZero) {
  CacheGeometry Geometry(64);
  GlobalRegistry Registry(0x10000000, 1024, Geometry);
  EXPECT_NE(Registry.define("a", 1000), 0u);
  EXPECT_EQ(Registry.define("b", 1000), 0u);
}

//===----------------------------------------------------------------------===//
// ThreadRegistry
//===----------------------------------------------------------------------===//

TEST(ThreadRegistryTest, TracksLifecycleAndSamples) {
  ThreadRegistry Registry;
  Registry.threadStarted(0, true, 0);
  Registry.threadStarted(1, false, 100);
  Registry.recordSamples(1, 1, 50);
  Registry.recordSamples(1, 1, 70);
  Registry.threadFinished(1, 400);
  const ThreadProfile &Profile = Registry.profile(1);
  EXPECT_EQ(Profile.runtime(), 300u);
  EXPECT_EQ(Profile.SampledAccesses, 2u);
  EXPECT_EQ(Profile.SampledCycles, 120u);
  EXPECT_TRUE(Profile.Finished);
  EXPECT_TRUE(Registry.profile(0).IsMain);
}

TEST(ThreadRegistryTest, UnfinishedThreadHasZeroRuntimeNotWraparound) {
  // A thread that never detached still has EndTime 0; EndTime - StartTime
  // would wrap to ~2^64 and poison every EQ.2 prediction built on it.
  ThreadRegistry Registry;
  Registry.threadStarted(1, false, 5000);
  Registry.recordSamples(1, 1, 50);
  EXPECT_EQ(Registry.profile(1).runtime(), 0u);
  EXPECT_FALSE(Registry.profile(1).Finished);
  // Clock skew putting the end before the start is the same hazard.
  ThreadProfile Skewed;
  Skewed.StartTime = 1000;
  Skewed.EndTime = 900;
  EXPECT_EQ(Skewed.runtime(), 0u);
}

TEST(ThreadRegistryTest, KnownAndTotals) {
  ThreadRegistry Registry;
  EXPECT_FALSE(Registry.known(0));
  Registry.threadStarted(0, true, 0);
  EXPECT_TRUE(Registry.known(0));
  EXPECT_FALSE(Registry.known(5));
  Registry.recordSamples(0, 1, 10);
  EXPECT_EQ(Registry.totalSampledAccesses(), 1u);
  EXPECT_EQ(Registry.threads()[0].SampledCycles, 10u);
}

//===----------------------------------------------------------------------===//
// PhaseTracker
//===----------------------------------------------------------------------===//

TEST(PhaseTrackerTest, SingleForkJoinCycle) {
  PhaseTracker Tracker;
  Tracker.programBegin(0, 0);
  EXPECT_FALSE(Tracker.inParallelPhase());
  Tracker.threadCreated(1, 0, 100);
  Tracker.threadCreated(2, 0, 110);
  EXPECT_TRUE(Tracker.inParallelPhase());
  Tracker.threadFinished(1, 500);
  EXPECT_TRUE(Tracker.inParallelPhase());
  Tracker.threadFinished(2, 600);
  EXPECT_FALSE(Tracker.inParallelPhase());
  Tracker.programEnd(700);

  ASSERT_EQ(Tracker.phases().size(), 3u);
  EXPECT_FALSE(Tracker.phases()[0].Parallel);
  EXPECT_EQ(Tracker.phases()[0].span(), 100u);
  EXPECT_TRUE(Tracker.phases()[1].Parallel);
  EXPECT_EQ(Tracker.phases()[1].span(), 500u);
  EXPECT_EQ(Tracker.phases()[1].Members,
            (std::vector<ThreadId>{1, 2}));
  EXPECT_EQ(Tracker.phases()[2].span(), 100u);
  EXPECT_TRUE(Tracker.isForkJoin());
  uint64_t Serial = 0, Parallel = 0;
  for (const ExecutionPhase &Phase : Tracker.phases())
    (Phase.Parallel ? Parallel : Serial) += Phase.span();
  EXPECT_EQ(Serial, 200u);
  EXPECT_EQ(Parallel, 500u);
  EXPECT_EQ(Tracker.totalCycles(), 700u);
}

TEST(PhaseTrackerTest, MultiplePhases) {
  PhaseTracker Tracker;
  Tracker.programBegin(0, 0);
  for (int Phase = 0; Phase < 3; ++Phase) {
    uint64_t Base = 1000 * (Phase + 1);
    ThreadId First = static_cast<ThreadId>(10 * Phase + 1);
    Tracker.threadCreated(First, 0, Base);
    Tracker.threadCreated(First + 1, 0, Base + 10);
    Tracker.threadFinished(First, Base + 500);
    Tracker.threadFinished(First + 1, Base + 600);
  }
  Tracker.programEnd(5000);
  int ParallelCount = 0;
  for (const ExecutionPhase &Phase : Tracker.phases())
    ParallelCount += Phase.Parallel;
  EXPECT_EQ(ParallelCount, 3);
  EXPECT_TRUE(Tracker.isForkJoin());
  // Phases alternate serial/parallel: the second parallel one is fourth.
  EXPECT_EQ(Tracker.phases()[3].Members, (std::vector<ThreadId>{11, 12}));
}

TEST(PhaseTrackerTest, NestedCreationBreaksForkJoin) {
  PhaseTracker Tracker;
  Tracker.programBegin(0, 0);
  Tracker.threadCreated(1, 0, 100);
  Tracker.threadCreated(2, 1, 200); // child creates a thread
  Tracker.threadFinished(2, 300);
  Tracker.threadFinished(1, 400);
  Tracker.programEnd(500);
  EXPECT_FALSE(Tracker.isForkJoin());
}

TEST(PhaseTrackerTest, MainExitingWithLiveChildrenBreaksForkJoin) {
  PhaseTracker Tracker;
  Tracker.programBegin(0, 0);
  Tracker.threadCreated(1, 0, 100);
  Tracker.programEnd(200);
  EXPECT_FALSE(Tracker.isForkJoin());
}

TEST(PhaseTrackerTest, OpenPhaseSpansZeroNotWraparound) {
  // Same guard as ThreadProfile::runtime(): a phase still open at
  // assessment time (EndTime 0) spans zero cycles, it does not wrap.
  ExecutionPhase Phase;
  Phase.StartTime = 4000;
  EXPECT_EQ(Phase.span(), 0u);
}

TEST(PhaseTrackerTest, ThreadlessProgramIsOneSerialPhase) {
  PhaseTracker Tracker;
  Tracker.programBegin(0, 0);
  Tracker.programEnd(10);
  ASSERT_EQ(Tracker.phases().size(), 1u);
  EXPECT_FALSE(Tracker.phases()[0].Parallel);
  EXPECT_TRUE(Tracker.phases()[0].Members.empty());
  EXPECT_EQ(Tracker.phases()[0].span(), 10u);
}

} // namespace
