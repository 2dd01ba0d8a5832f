//===- tests/SimTest.cpp - geometry, coherence, simulator tests -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "sim/CoherenceModel.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::sim;

namespace {

//===----------------------------------------------------------------------===//
// CacheGeometry (parameterized over line sizes)
//===----------------------------------------------------------------------===//

class GeometryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeometryTest, LineIndexingRoundTrips) {
  CacheGeometry Geometry(GetParam());
  uint64_t Line = Geometry.lineSize();
  EXPECT_EQ(Geometry.lineIndex(0), 0u);
  EXPECT_EQ(Geometry.lineIndex(Line - 1), 0u);
  EXPECT_EQ(Geometry.lineIndex(Line), 1u);
  EXPECT_EQ(Geometry.lineBase(Line + 3), Line);
  EXPECT_EQ(Geometry.offsetInLine(Line + 3), 3u);
  EXPECT_EQ(uint64_t(1) << Geometry.lineShift(), Line);
  EXPECT_EQ(Geometry.wordsPerLine(), Line / 4);
}

TEST_P(GeometryTest, WordIndexing) {
  CacheGeometry Geometry(GetParam());
  EXPECT_EQ(Geometry.wordInLine(0), 0u);
  EXPECT_EQ(Geometry.wordInLine(4), 1u);
  EXPECT_EQ(Geometry.wordInLine(7), 1u);
  EXPECT_EQ(Geometry.wordInLine(GetParam() - 1), GetParam() / 4 - 1);
}

TEST_P(GeometryTest, SharesLine) {
  CacheGeometry Geometry(GetParam());
  EXPECT_TRUE(Geometry.sharesLine(0, GetParam() - 1));
  EXPECT_FALSE(Geometry.sharesLine(0, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(LineSizes, GeometryTest,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

TEST(MemoryAccessTest, Factories) {
  MemoryAccess Read = MemoryAccess::read(0x100, 8);
  EXPECT_FALSE(Read.isWrite());
  EXPECT_EQ(Read.Size, 8);
  MemoryAccess Write = MemoryAccess::write(0x104);
  EXPECT_TRUE(Write.isWrite());
  ThreadEvent Event = ThreadEvent::compute(9);
  EXPECT_FALSE(Event.isMemory());
  EXPECT_EQ(Event.ComputeInstructions, 9u);
  EXPECT_TRUE(ThreadEvent::write(4).isMemory());
}

//===----------------------------------------------------------------------===//
// CoherenceModel
//===----------------------------------------------------------------------===//

class CoherenceTest : public ::testing::Test {
protected:
  CacheGeometry Geometry{64};
  CoherenceModel Model{Geometry};
};

TEST_F(CoherenceTest, FirstTouchIsColdMiss) {
  CoherenceResult R = Model.access(0, MemoryAccess::read(0x1000), 0);
  EXPECT_EQ(R.Outcome, AccessOutcome::ColdMiss);
  EXPECT_EQ(R.LatencyCycles, LatencyModel::ColdMissCycles);
}

TEST_F(CoherenceTest, UncontendedOutcomesCostTheModelsCycles) {
  // The latency table of a mid-2010s Opteron: a DRAM fetch, a private
  // hit, and coherence traffic that also occupies the line's directory
  // slot for one 18-cycle service.
  EXPECT_EQ(Model.access(0, MemoryAccess::read(0x1000), 0).LatencyCycles,
            120u);
  EXPECT_EQ(Model.access(0, MemoryAccess::read(0x1000), 1000).LatencyCycles,
            3u);
  CoherenceResult Clean = Model.access(1, MemoryAccess::read(0x1000), 2000);
  EXPECT_EQ(Clean.Outcome, AccessOutcome::CleanTransfer);
  EXPECT_EQ(Clean.LatencyCycles, 40u + 18);
  CoherenceResult Upgrade = Model.access(0, MemoryAccess::write(0x1000), 3000);
  EXPECT_EQ(Upgrade.Outcome, AccessOutcome::Upgrade);
  EXPECT_EQ(Upgrade.LatencyCycles, 30u + 18);
  CoherenceResult Dirty = Model.access(1, MemoryAccess::read(0x1000), 4000);
  EXPECT_EQ(Dirty.Outcome, AccessOutcome::DirtyTransfer);
  EXPECT_EQ(Dirty.LatencyCycles, 50u + 18);
}

TEST_F(CoherenceTest, RepeatAccessHits) {
  Model.access(0, MemoryAccess::read(0x1000), 0);
  CoherenceResult R = Model.access(0, MemoryAccess::read(0x1008), 10);
  EXPECT_EQ(R.Outcome, AccessOutcome::LocalHit);
}

TEST_F(CoherenceTest, SecondReaderGetsCleanTransfer) {
  Model.access(0, MemoryAccess::read(0x1000), 0);
  CoherenceResult R = Model.access(1, MemoryAccess::read(0x1000), 10);
  EXPECT_EQ(R.Outcome, AccessOutcome::CleanTransfer);
}

TEST_F(CoherenceTest, ReadOfModifiedLineIsDirtyTransfer) {
  Model.access(0, MemoryAccess::write(0x1000), 0);
  CoherenceResult R = Model.access(1, MemoryAccess::read(0x1000), 500);
  EXPECT_EQ(R.Outcome, AccessOutcome::DirtyTransfer);
}

TEST_F(CoherenceTest, WriteInvalidatesAllOtherHolders) {
  Model.access(0, MemoryAccess::read(0x1000), 0);
  Model.access(1, MemoryAccess::read(0x1000), 10);
  Model.access(2, MemoryAccess::read(0x1000), 20);
  CoherenceResult R = Model.access(3, MemoryAccess::write(0x1000), 1000);
  EXPECT_EQ(R.Invalidated, 3u);
  EXPECT_EQ(Model.holdersOf(0x1000), (std::vector<ThreadId>{3}));
}

TEST_F(CoherenceTest, WriteBySharedHolderIsUpgrade) {
  Model.access(0, MemoryAccess::read(0x1000), 0);
  Model.access(1, MemoryAccess::read(0x1000), 10);
  CoherenceResult R = Model.access(0, MemoryAccess::write(0x1000), 1000);
  EXPECT_EQ(R.Outcome, AccessOutcome::Upgrade);
  EXPECT_EQ(R.Invalidated, 1u);
}

TEST_F(CoherenceTest, ExclusiveWriterHitsOnRewrite) {
  Model.access(0, MemoryAccess::write(0x1000), 0);
  CoherenceResult R = Model.access(0, MemoryAccess::write(0x1000), 10);
  EXPECT_EQ(R.Outcome, AccessOutcome::LocalHit);
  EXPECT_EQ(R.Invalidated, 0u);
}

TEST_F(CoherenceTest, PingPongWritesAreDirtyTransfers) {
  Model.access(0, MemoryAccess::write(0x1000), 0);
  uint64_t Now = 1000;
  for (int Round = 0; Round < 10; ++Round) {
    CoherenceResult R =
        Model.access(Round % 2 ? 0 : 1, MemoryAccess::write(0x1000), Now);
    EXPECT_EQ(R.Outcome, AccessOutcome::DirtyTransfer) << "round " << Round;
    Now += 1000;
  }
  EXPECT_EQ(Model.stats().DirtyTransfers, 10u);
}

TEST_F(CoherenceTest, DistinctLinesDoNotInterfere) {
  Model.access(0, MemoryAccess::write(0x1000), 0);
  CoherenceResult R = Model.access(1, MemoryAccess::write(0x1040), 10);
  EXPECT_EQ(R.Outcome, AccessOutcome::ColdMiss);
  EXPECT_EQ(Model.touchedLines(), 2u);
}

TEST_F(CoherenceTest, ContendedLineQueuesTransfers) {
  // Back-to-back transfers at the same instant must serialize: the second
  // requester's latency includes the first transfer's service time.
  Model.access(0, MemoryAccess::write(0x1000), 0);
  Model.access(1, MemoryAccess::read(0x2000), 0); // unrelated warmup
  CoherenceResult First = Model.access(1, MemoryAccess::write(0x1000), 1000);
  CoherenceResult Second = Model.access(2, MemoryAccess::write(0x1000), 1000);
  EXPECT_GT(Second.LatencyCycles, First.LatencyCycles);
}

TEST_F(CoherenceTest, QueueBacklogSaturates) {
  Model.access(0, MemoryAccess::write(0x1000), 0);
  uint64_t MaxSeen = 0;
  for (uint32_t T = 1; T < 32; ++T) {
    CoherenceResult R =
        Model.access(T, MemoryAccess::write(0x1000), 1000);
    MaxSeen = std::max(MaxSeen, R.LatencyCycles);
  }
  uint64_t Bound = LatencyModel::DirtyTransferCycles +
                   (LatencyModel::MaxQueuedServices + 1) *
                       LatencyModel::LineServiceCycles;
  EXPECT_LE(MaxSeen, Bound);
  // 31 writers at one instant reach the cap: a dirty transfer behind a
  // backlog of four 18-cycle services, plus its own.
  EXPECT_EQ(MaxSeen, 50u + 4 * 18 + 18);
}

TEST_F(CoherenceTest, HolderSetSpansTidsFromSixtyFourUp) {
  // Tids below 64 live in the entry's mask, the rest in its overflow list.
  uint64_t Now = 0;
  for (ThreadId Tid : {200u, 0u, 64u, 63u})
    Model.access(Tid, MemoryAccess::read(0x1000), Now += 1000);
  EXPECT_EQ(Model.holdersOf(0x1000), (std::vector<ThreadId>{0, 63, 64, 200}));

  CoherenceResult R =
      Model.access(64, MemoryAccess::write(0x1000), Now += 1000);
  EXPECT_EQ(R.Outcome, AccessOutcome::Upgrade);
  EXPECT_EQ(R.Invalidated, 3u);
  EXPECT_EQ(Model.holdersOf(0x1000), (std::vector<ThreadId>{64}));

  // A low tid's write empties the overflow list; a high tid's read refills
  // it.
  R = Model.access(5, MemoryAccess::write(0x1000), Now += 1000);
  EXPECT_EQ(R.Outcome, AccessOutcome::DirtyTransfer);
  EXPECT_EQ(R.Invalidated, 1u);
  EXPECT_EQ(Model.holdersOf(0x1000), (std::vector<ThreadId>{5}));
  R = Model.access(130, MemoryAccess::read(0x1000), Now += 1000);
  EXPECT_EQ(R.Outcome, AccessOutcome::DirtyTransfer);
  EXPECT_EQ(Model.holdersOf(0x1000), (std::vector<ThreadId>{5, 130}));
  EXPECT_EQ(Model.access(130, MemoryAccess::read(0x1000), Now += 1000).Outcome,
            AccessOutcome::LocalHit);
}

TEST_F(CoherenceTest, EveryLineSurvivesTableGrowth) {
  constexpr uint64_t Lines = 100000;
  for (uint64_t L = 0; L < Lines; ++L)
    Model.access(static_cast<ThreadId>(L % 3), MemoryAccess::write(L * 64), L);
  EXPECT_EQ(Model.touchedLines(), Lines);
  EXPECT_EQ(Model.stats().ColdMisses, Lines);
  for (uint64_t L = 0; L < Lines; L += 997)
    EXPECT_EQ(Model.holdersOf(L * 64),
              (std::vector<ThreadId>{static_cast<ThreadId>(L % 3)}));
  // Rewrites by the owner hit; nothing new is touched.
  for (uint64_t L = 0; L < Lines; ++L)
    Model.access(static_cast<ThreadId>(L % 3), MemoryAccess::write(L * 64),
                 Lines + L);
  EXPECT_EQ(Model.stats().LocalHits, Lines);
  EXPECT_EQ(Model.touchedLines(), Lines);
  EXPECT_TRUE(Model.holdersOf(Lines * 64).empty());
}

TEST_F(CoherenceTest, StatsAccumulate) {
  Model.access(0, MemoryAccess::read(0x1000), 0);
  Model.access(0, MemoryAccess::write(0x1000), 1);
  EXPECT_EQ(Model.stats().Accesses, 2u);
  EXPECT_GT(Model.stats().TotalLatency, 0u);
  EXPECT_EQ(Model.touchedLines(), 1u);
}

//===----------------------------------------------------------------------===//
// Simulator
//===----------------------------------------------------------------------===//

Generator<ThreadEvent> fixedWrites(uint64_t Base, uint64_t Count,
                                   uint64_t Stride) {
  for (uint64_t I = 0; I < Count; ++I)
    co_yield ThreadEvent::write(Base + (I % 4) * Stride, 8);
}

Generator<ThreadEvent> pureCompute(uint64_t Instructions) {
  co_yield ThreadEvent::compute(static_cast<uint32_t>(Instructions));
}

ForkJoinProgram makeTwoPhaseProgram(uint32_t ThreadsPerPhase) {
  ForkJoinProgram Program;
  Program.Name = "test";
  for (int P = 0; P < 2; ++P) {
    PhaseSpec &Phase = Program.addPhase("p" + std::to_string(P));
    Phase.SerialBody = []() { return fixedWrites(0x9000, 16, 8); };
    for (uint32_t T = 0; T < ThreadsPerPhase; ++T)
      Phase.ParallelBodies.push_back(
          [T]() { return fixedWrites(0x10000 + T * 0x1000, 32, 8); });
  }
  return Program;
}

TEST(SimulatorTest, RunsAllPhasesAndThreads) {
  CacheGeometry Geometry(64);
  LatencyModel Latency;
  Simulator Sim(Geometry, Latency);
  SimulationResult Result = Sim.run(makeTwoPhaseProgram(3));
  // 1 main + 2 phases x 3 children.
  EXPECT_EQ(Result.Threads.size(), 7u);
  // 2 serial + 2 parallel phases.
  ASSERT_EQ(Result.Phases.size(), 4u);
  EXPECT_FALSE(Result.Phases[0].Parallel);
  EXPECT_TRUE(Result.Phases[1].Parallel);
  EXPECT_EQ(Result.Phases[1].Members.size(), 3u);
  EXPECT_GT(Result.TotalCycles, 0u);
}

TEST(SimulatorTest, ThreadIdsAreSequentialAndMainIsZero) {
  CacheGeometry Geometry(64);
  LatencyModel Latency;
  Simulator Sim(Geometry, Latency);
  SimulationResult Result = Sim.run(makeTwoPhaseProgram(2));
  EXPECT_TRUE(Result.thread(0).IsMain);
  for (ThreadId T = 0; T < 5; ++T)
    EXPECT_EQ(Result.thread(T).Tid, T);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  CacheGeometry Geometry(64);
  LatencyModel Latency;
  Simulator SimA(Geometry, Latency), SimB(Geometry, Latency);
  SimulationResult A = SimA.run(makeTwoPhaseProgram(4));
  SimulationResult B = SimB.run(makeTwoPhaseProgram(4));
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  ASSERT_EQ(A.Threads.size(), B.Threads.size());
  for (size_t I = 0; I < A.Threads.size(); ++I) {
    EXPECT_EQ(A.Threads[I].MemoryCycles, B.Threads[I].MemoryCycles);
    EXPECT_EQ(A.Threads[I].runtime(), B.Threads[I].runtime());
  }
}

TEST(SimulatorTest, PhaseSpansCoverThreadRuntimes) {
  CacheGeometry Geometry(64);
  LatencyModel Latency;
  Simulator Sim(Geometry, Latency);
  SimulationResult Result = Sim.run(makeTwoPhaseProgram(3));
  for (const PhaseRecord &Phase : Result.Phases) {
    if (!Phase.Parallel)
      continue;
    for (ThreadId Member : Phase.Members) {
      const ThreadRecord &Thread = Result.thread(Member);
      EXPECT_GE(Thread.StartCycle, Phase.StartCycle);
      EXPECT_LE(Thread.EndCycle, Phase.EndCycle);
    }
  }
}

TEST(SimulatorTest, InstructionCountsAreExact) {
  ForkJoinProgram Program;
  PhaseSpec &Phase = Program.addPhase("p");
  Phase.SerialBody = []() { return pureCompute(100); };
  Phase.ParallelBodies.push_back([]() { return fixedWrites(0x5000, 10, 8); });
  CacheGeometry Geometry(64);
  LatencyModel Latency;
  Simulator Sim(Geometry, Latency);
  SimulationResult Result = Sim.run(Program);
  EXPECT_EQ(Result.thread(0).Instructions, 100u);
  EXPECT_EQ(Result.thread(1).Instructions, 10u);
  EXPECT_EQ(Result.thread(1).MemoryAccesses, 10u);
}

/// Observer that charges a fixed overhead per access and records calls.
class CountingObserver : public SimObserver {
public:
  uint64_t Starts = 0, Ends = 0, Accesses = 0, Instructions = 0;
  uint64_t PerAccessCost = 0;

  uint64_t onThreadStart(ThreadId, bool, uint64_t) override {
    ++Starts;
    return 0;
  }
  void onThreadEnd(const ThreadRecord &) override { ++Ends; }
  uint64_t onMemoryAccess(ThreadId, const MemoryAccess &,
                          const CoherenceResult &, uint64_t) override {
    ++Accesses;
    return PerAccessCost;
  }
  void onInstructions(ThreadId, uint64_t N) override { Instructions += N; }
};

TEST(SimulatorTest, ObserverSeesEveryEvent) {
  CacheGeometry Geometry(64);
  LatencyModel Latency;
  Simulator Sim(Geometry, Latency);
  CountingObserver Observer;
  Sim.addObserver(&Observer);
  SimulationResult Result = Sim.run(makeTwoPhaseProgram(2));
  EXPECT_EQ(Observer.Starts, 5u); // main + 4 children
  EXPECT_EQ(Observer.Ends, 5u);
  // Phases reach tools through the result, not the observer.
  EXPECT_EQ(Result.Phases.size(), 4u);
  // 2 serial bodies x 16 + 4 children x 32 writes.
  EXPECT_EQ(Observer.Accesses, 2 * 16 + 4 * 32u);
}

TEST(SimulatorTest, ObserverOverheadChargesThreads) {
  CacheGeometry Geometry(64);
  LatencyModel Latency;
  ForkJoinProgram Program = makeTwoPhaseProgram(2);

  Simulator Plain(Geometry, Latency);
  SimulationResult Baseline = Plain.run(Program);

  Simulator Instrumented(Geometry, Latency);
  CountingObserver Observer;
  Observer.PerAccessCost = 100;
  Instrumented.addObserver(&Observer);
  SimulationResult Slowed = Instrumented.run(Program);

  EXPECT_GT(Slowed.TotalCycles, Baseline.TotalCycles);
  // Each child executes 32 accesses at +100 cycles.
  EXPECT_GE(Slowed.thread(1).runtime(),
            Baseline.thread(1).runtime() + 32 * 100);
}

/// Computes for \p DelayCycles (one cycle per instruction), then writes
/// one word 1,000 times.
Generator<ThreadEvent> delayedHammer(uint32_t DelayCycles) {
  if (DelayCycles)
    co_yield ThreadEvent::compute(DelayCycles);
  for (int I = 0; I < 1000; ++I)
    co_yield ThreadEvent::write(0x7000, 4);
}

TEST(SimulatorTest, MinClockSchedulingInterleavesContendingWriters) {
  // Two threads hammering one line must alternate, producing dirty
  // transfers on nearly every write rather than running back-to-back.
  // The second child starts one spawn after the first, so the first
  // computes through that spawn and the writers overlap.
  ForkJoinProgram Program;
  PhaseSpec &Phase = Program.addPhase("contend");
  Phase.ParallelBodies.push_back(
      []() { return delayedHammer(LatencyModel::ThreadSpawnCycles); });
  Phase.ParallelBodies.push_back([]() { return delayedHammer(0); });
  Simulator Sim(CacheGeometry(64), LatencyModel{});
  SimulationResult Result = Sim.run(Program);
  EXPECT_GT(Result.Coherence.DirtyTransfers, 1500u);
}

TEST(SimulatorTest, SpawnAndJoinCostsAppearInSpan) {
  ForkJoinProgram Program;
  PhaseSpec &Phase = Program.addPhase("p");
  for (int T = 0; T < 4; ++T)
    Phase.ParallelBodies.push_back([]() { return pureCompute(1); });
  CacheGeometry Geometry(64);
  Simulator Sim(Geometry, LatencyModel{});
  SimulationResult Result = Sim.run(Program);
  // Four spawns of 8,000 cycles on the main thread, the last child's one
  // instruction, then four joins of 2,000.
  EXPECT_EQ(Result.TotalCycles, 4 * 8000u + 1 + 4 * 2000);
}

//===----------------------------------------------------------------------===//
// NUMA distance scaling
//===----------------------------------------------------------------------===//

/// Main thread (node 0) first-touches a page serially; a child (node 1)
/// then hammers it. \returns the extra interconnect cycles charged under
/// a 2-node topology whose remote distance is \p Distance.
uint64_t remoteExtraAtDistance(uint32_t Distance) {
  NumaTopologySpec Spec;
  Spec.Nodes = 2;
  Spec.Distances = {{0, Distance}, {Distance, 0}};
  NumaTopology Topology;
  std::string Error;
  EXPECT_TRUE(NumaTopology::fromSpec(Spec, Topology, Error)) << Error;

  ForkJoinProgram Program;
  PhaseSpec &Phase = Program.addPhase("p");
  Phase.SerialBody = []() { return fixedWrites(0x20000, 16, 8); };
  Phase.ParallelBodies.push_back([]() { return fixedWrites(0x20000, 64, 8); });

  Simulator Sim(CacheGeometry(64), LatencyModel{});
  Sim.setTopology(&Topology);
  SimulationResult Result = Sim.run(Program);
  EXPECT_GT(Result.RemoteNumaAccesses, 0u);
  return Result.RemoteNumaExtraCycles;
}

TEST(SimulatorTest, RemoteSurchargeScalesHopProportionally) {
  // The normalization contract end to end: a 2-node machine pays the base
  // surcharge whatever its (uniform) remote distance — distance only
  // matters *relative to the minimum remote distance* — so the default
  // matrix is bit-compatible with the pre-distance model...
  uint64_t BaseExtra = remoteExtraAtDistance(10);
  EXPECT_EQ(remoteExtraAtDistance(30), BaseExtra);

  // ...while on one machine with two different remote distances the far
  // pair pays proportionally more. Build a 3-node line: node 1 near the
  // home, node 2 three hops out.
  NumaTopologySpec Spec;
  Spec.Nodes = 3;
  Spec.Distances = {{0, 10, 30}, {10, 0, 20}, {30, 20, 0}};
  NumaTopology Topology;
  std::string Error;
  ASSERT_TRUE(NumaTopology::fromSpec(Spec, Topology, Error)) << Error;

  auto ExtraForChild = [&](uint32_t Node) {
    NumaTopologySpec Pinned = Spec;
    Pinned.ThreadPinning = {0, Node}; // main on node 0, child on Node
    NumaTopology T;
    std::string E;
    EXPECT_TRUE(NumaTopology::fromSpec(Pinned, T, E)) << E;
    ForkJoinProgram Program;
    PhaseSpec &Phase = Program.addPhase("p");
    Phase.SerialBody = []() { return fixedWrites(0x20000, 16, 8); };
    Phase.ParallelBodies.push_back(
        []() { return fixedWrites(0x20000, 64, 8); });
    Simulator Sim(CacheGeometry(64), LatencyModel{});
    Sim.setTopology(&T);
    return Sim.run(Program).RemoteNumaExtraCycles;
  };
  uint64_t Near = ExtraForChild(1); // distance 10 = the minimum remote
  uint64_t Far = ExtraForChild(2);  // distance 30 = 3 hops
  EXPECT_EQ(Near, BaseExtra);
  EXPECT_EQ(Far, 3 * Near);
}

/// A node-1 child's accesses to a page main homed on node 0, one per
/// surcharge kind.
Generator<ThreadEvent> remoteAccessMix() {
  co_yield ThreadEvent::read(0x20040, 8);  // cold miss: remote DRAM
  co_yield ThreadEvent::write(0x20000, 8); // dirty transfer from main
  co_yield ThreadEvent::write(0x20000, 8); // store hit, drains to the home
  co_yield ThreadEvent::read(0x20000, 8);  // read hit: stays local
}

TEST(SimulatorTest, RemoteSurchargesFollowTheAccessOutcome) {
  ForkJoinProgram Program;
  PhaseSpec &Phase = Program.addPhase("p");
  Phase.SerialBody = []() { return fixedWrites(0x20000, 1, 8); };
  Phase.ParallelBodies.push_back([]() { return remoteAccessMix(); });
  NumaTopology Topology(2);
  Simulator Sim(CacheGeometry(64), LatencyModel{});
  Sim.setTopology(&Topology);
  SimulationResult Result = Sim.run(Program);
  EXPECT_EQ(Result.RemoteNumaAccesses, 3u);
  EXPECT_EQ(Result.RemoteNumaExtraCycles, 90u + 30 + 20);
}

} // namespace
