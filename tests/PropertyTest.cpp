//===- tests/PropertyTest.cpp - randomized whole-pipeline invariants -------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzz-style property tests: random fork-join programs (random phase
/// counts, thread counts, object layouts, read/write mixes) are run through
/// the full simulator+profiler pipeline and checked against invariants that
/// must hold for *any* program:
///
///  - accounting conservation (events seen by observers == events retired;
///    per-thread sampled totals == per-object totals summed);
///  - phase structure partitions the execution and owns every child;
///  - detection gates (no detail without writes above threshold, no
///    invalidations without a multi-thread line);
///  - the coherence model against a brute-force holder-set oracle;
///  - determinism of the entire stack under a fixed seed;
///  - the packed page table against a sequential reference model on random
///    access sequences (the node-granularity mirror of the two-entry-table
///    equivalence the line layer already pins);
///  - the support/Json.h parser under fuzzed inputs: valid documents
///    round-trip exactly, malformed/truncated/mutated input errors without
///    ever crashing (the ASan CI job runs this suite);
///  - the page-assessment equations (EQ.1–EQ.4 with the clamped no-remote
///    baseline) on randomized profiles: prediction never exceeds the
///    measured runtime, never removes more than the measured on-object
///    cycles, improves (> 1) only when removable excess exists, and is
///    monotone in the remote fraction;
///  - the single-pass parseReport and parseRunDocument (reports and
///    cheetah-diff-v1 documents) against the tree-based readings they
///    replaced: pristine, truncated, mutated, re-laid-out and hostile
///    documents must give the same verdict, values and error string; plus
///    version mismatches;
///  - ReportHistory::parse (the cheetah-history-v1 store behind
///    cheetah-trend) under fuzz: truncated, mutated and hostile stores
///    fail loudly, never crash; re-laid-out stores read back unchanged;
///    version mismatches and duplicate-run-id injection are rejected;
///  - ReportHistory's stored point text and key index against the
///    whole-store encoder and matchFindings ledger they replaced
///    (tests/HistoryReference.h): random append sequences, some stores
///    re-parsed between appends, must serialize to the reference bytes
///    and record the reference counts;
///  - the single-pass TraceData::parse against a tree-based reference
///    reading: pristine, truncated and mutated traces, and traces with
///    reordered members, whitespace, repeated and unknown members, must
///    give the same acceptance, events and error string; and replay of
///    traces with duplicated, dropped, swapped and retimed thread
///    lifecycle events must either replay or be rejected, never abort;
///  - the batch pipeline's per-grain runs against the per-sample reference
///    (tests/PerSampleReference.h): batches drawn from a small hot address
///    pool, so most grains repeat within a chunk, must leave every line and
///    page grain, home, write counter and detector counter exactly as the
///    reference does;
///  - the batch pipeline's line decode (coverage, word, span clamped at the
///    line end) against the same reference: fuzzed geometries, regions,
///    addresses and access widths, plus an exhaustive sweep of every
///    address x access width over a small geometry where enumeration is
///    affordable.
///
//===----------------------------------------------------------------------===//

#include "baseline/ReferenceModel.h"
#include "core/Profiler.h"
#include "core/detect/PageInfo.h"
#include "core/detect/PageTable.h"
#include "core/report/ReportDiff.h"
#include "core/report/ReportHistory.h"
#include "core/report/ReportSink.h"
#include "driver/ProfileSession.h"
#include "mem/NumaTopology.h"
#include "pmu/SimPmu.h"
#include "pmu/TraceSource.h"
#include "sim/Simulator.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include "HistoryReference.h"
#include "PerSampleReference.h"
#include "ReportVersions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

using namespace cheetah;

namespace {

//===----------------------------------------------------------------------===//
// Random program construction
//===----------------------------------------------------------------------===//

struct FuzzSpec {
  uint64_t Seed = 1;
  uint32_t MaxPhases = 3;
  uint32_t MaxThreads = 6;
  uint32_t MaxObjects = 5;
  uint64_t EventsPerThread = 3000;
  double WriteFraction = 0.4;
  /// Probability a thread's accesses target a shared object rather than
  /// its private one.
  double SharedFraction = 0.3;
};

/// One random thread body: a mix of accesses to a private region and to
/// randomly chosen shared objects.
Generator<ThreadEvent> fuzzBody(uint64_t PrivateBase, uint64_t PrivateBytes,
                                std::vector<uint64_t> SharedBases,
                                uint64_t SharedBytes, uint64_t Events,
                                double WriteFraction, double SharedFraction,
                                uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (uint64_t I = 0; I < Events; ++I) {
    if (Rng.nextBool(0.2)) {
      co_yield ThreadEvent::compute(
          static_cast<uint32_t>(Rng.nextInRange(1, 12)));
      continue;
    }
    uint64_t Base, Span;
    if (!SharedBases.empty() && Rng.nextBool(SharedFraction)) {
      Base = SharedBases[Rng.nextBelow(SharedBases.size())];
      Span = SharedBytes;
    } else {
      Base = PrivateBase;
      Span = PrivateBytes;
    }
    uint64_t Address = Base + (Rng.nextBelow(Span / 4)) * 4;
    if (Rng.nextBool(WriteFraction))
      co_yield ThreadEvent::write(Address, 4);
    else
      co_yield ThreadEvent::read(Address, 4);
  }
}

/// Builds a random fork-join program against \p Profiler's heap.
sim::ForkJoinProgram buildFuzzProgram(core::Profiler &Profiler,
                                      const FuzzSpec &Spec,
                                      uint32_t &TotalChildren) {
  SplitMix64 Rng(Spec.Seed);
  sim::ForkJoinProgram Program;
  Program.Name = "fuzz";
  TotalChildren = 0;

  uint32_t Phases = static_cast<uint32_t>(Rng.nextInRange(1, Spec.MaxPhases));
  uint32_t Objects =
      static_cast<uint32_t>(Rng.nextInRange(1, Spec.MaxObjects));
  constexpr uint64_t SharedBytes = 512;

  std::vector<uint64_t> SharedBases;
  for (uint32_t O = 0; O < Objects; ++O)
    SharedBases.push_back(Profiler.heap().allocate(
        SharedBytes, 0, Profiler.internCallsite("fuzz.c", 100 + O)));

  for (uint32_t P = 0; P < Phases; ++P) {
    sim::PhaseSpec &Phase = Program.addPhase("fuzz" + std::to_string(P));
    uint64_t InitBase = SharedBases[P % SharedBases.size()];
    Phase.SerialBody = [=]() -> Generator<ThreadEvent> {
      for (uint64_t Offset = 0; Offset < SharedBytes; Offset += 8)
        co_yield ThreadEvent::write(InitBase + Offset, 8);
    };
    uint32_t Threads =
        static_cast<uint32_t>(Rng.nextInRange(1, Spec.MaxThreads));
    for (uint32_t T = 0; T < Threads; ++T) {
      uint64_t Private = Profiler.heap().allocate(
          4096, 0, Profiler.internCallsite("fuzz.c", 999));
      uint64_t BodySeed = Rng.next();
      Phase.ParallelBodies.push_back([=]() {
        return fuzzBody(Private, 4096, SharedBases, SharedBytes,
                        Spec.EventsPerThread, Spec.WriteFraction,
                        Spec.SharedFraction, BodySeed);
      });
      ++TotalChildren;
    }
  }
  return Program;
}

/// Observer recording exact totals for conservation checks.
class AccountingObserver : public sim::SimObserver {
public:
  uint64_t MemoryEvents = 0;
  uint64_t Instructions = 0;
  std::set<ThreadId> Started, Ended;

  uint64_t onThreadStart(ThreadId Tid, bool, uint64_t) override {
    Started.insert(Tid);
    return 0;
  }
  void onThreadEnd(const sim::ThreadRecord &Record) override {
    Ended.insert(Record.Tid);
  }
  uint64_t onMemoryAccess(ThreadId, const MemoryAccess &,
                          const sim::CoherenceResult &, uint64_t) override {
    ++MemoryEvents;
    ++Instructions;
    return 0;
  }
  void onInstructions(ThreadId, uint64_t N) override { Instructions += N; }
};

class FuzzPipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipelineTest, InvariantsHoldOnRandomPrograms) {
  FuzzSpec Spec;
  Spec.Seed = GetParam();

  core::ProfilerConfig Config;
  Config.Pmu = Config.Pmu.withScaledPeriod(64);
  core::Profiler Profiler(Config);
  uint32_t TotalChildren = 0;
  sim::ForkJoinProgram Program =
      buildFuzzProgram(Profiler, Spec, TotalChildren);

  AccountingObserver Accounting;
  pmu::SimPmu Pmu(Config.Pmu);
  Pmu.setSink(&Profiler);
  sim::Simulator Sim(Config.Geometry, sim::LatencyModel());
  Sim.addObserver(&Accounting);
  Sim.addObserver(Pmu.simObserver());
  sim::SimulationResult Run = Sim.run(Program);
  core::ProfileResult Result = Profiler.finish(Run);

  // --- Lifecycle conservation.
  EXPECT_EQ(Accounting.Started.size(), TotalChildren + 1u);
  EXPECT_EQ(Accounting.Started, Accounting.Ended);
  EXPECT_EQ(Run.Threads.size(), TotalChildren + 1u);

  // --- Event conservation: observer totals == exact thread records.
  uint64_t RecordedMemory = 0, RecordedInstructions = 0;
  for (const sim::ThreadRecord &Record : Run.Threads) {
    RecordedMemory += Record.MemoryAccesses;
    RecordedInstructions += Record.Instructions;
    EXPECT_LE(Record.StartCycle, Record.EndCycle);
  }
  EXPECT_EQ(Accounting.MemoryEvents, RecordedMemory);
  EXPECT_EQ(Accounting.Instructions, RecordedInstructions);
  EXPECT_EQ(Run.Coherence.Accesses, RecordedMemory);

  // --- Phase structure: phases tile [begin, end] without overlap and own
  // every child exactly once.
  const auto &Phases = Profiler.phases().phases();
  ASSERT_FALSE(Phases.empty());
  std::set<ThreadId> Owned;
  uint64_t Cursor = Phases.front().StartTime;
  for (const runtime::ExecutionPhase &Phase : Phases) {
    EXPECT_EQ(Phase.StartTime, Cursor);
    EXPECT_GE(Phase.EndTime, Phase.StartTime);
    Cursor = Phase.EndTime;
    for (ThreadId Member : Phase.Members) {
      EXPECT_TRUE(Owned.insert(Member).second)
          << "thread in two phases: " << Member;
    }
  }
  EXPECT_EQ(Owned.size(), TotalChildren);
  EXPECT_TRUE(Result.ForkJoinVerified);

  // --- Sampling conservation: detector saw what the PMU delivered; the
  // registry's totals cover every delivered sample.
  EXPECT_EQ(Result.Detection.SamplesSeen, Result.SamplesDelivered);
  EXPECT_EQ(Profiler.threadRegistry().totalSampledAccesses(),
            Result.SamplesDelivered);

  // --- Detection gates: detail only on lines with enough writes; the
  // object aggregates are consistent with themselves.
  Profiler.shadow().forEachDetail(
      [&](uint64_t LineBase, const core::CacheLineInfo &Info) {
        EXPECT_GT(Profiler.shadow().writeCount(LineBase),
                  Config.Detect.WriteThreshold);
        EXPECT_LE(Info.invalidations(), Info.writes());
        uint64_t WordAccesses = 0;
        for (const core::WordStats &Word : Info.words())
          WordAccesses += Word.accesses();
        EXPECT_EQ(WordAccesses, Info.accesses());
        uint64_t ThreadAccesses = 0;
        for (const core::ThreadLineStats &Stats : Info.threads())
          ThreadAccesses += Stats.Accesses;
        EXPECT_EQ(ThreadAccesses, Info.accesses());
        if (Info.invalidations() > 1) {
          EXPECT_GE(Info.threadCount(), 1u);
        }
      });

  // --- Every report's numbers are self-consistent and its assessment sane.
  for (const core::FalseSharingReport &Report : Result.Findings) {
    EXPECT_GE(Report.SampledAccesses, Report.SampledWrites);
    EXPECT_GE(Report.LatencyCycles, Report.SampledAccesses); // >=1 cycle
    EXPECT_GT(Report.Impact.PredictedAppRuntime, 0.0);
    EXPECT_GT(Report.Impact.ImprovementFactor, 0.0);
    EXPECT_LT(Report.Impact.ImprovementFactor, 1000.0);
    uint64_t PerThreadAccesses = 0;
    for (const core::ThreadPrediction &P : Report.Impact.Threads)
      PerThreadAccesses += P.AccessesOnObject;
    EXPECT_EQ(PerThreadAccesses, Report.SampledAccesses);
  }

  // --- Full determinism: the identical seed reproduces the run bit for
  // bit (heap layout, interleaving, sampling, reports).
  core::Profiler Profiler2(Config);
  uint32_t TotalChildren2 = 0;
  sim::ForkJoinProgram Program2 =
      buildFuzzProgram(Profiler2, Spec, TotalChildren2);
  pmu::SimPmu Pmu2(Config.Pmu);
  Pmu2.setSink(&Profiler2);
  sim::Simulator Sim2(Config.Geometry, sim::LatencyModel());
  Sim2.addObserver(Pmu2.simObserver());
  sim::SimulationResult Run2 = Sim2.run(Program2);
  core::ProfileResult Result2 = Profiler2.finish(Run2);
  EXPECT_EQ(Run.TotalCycles, Run2.TotalCycles);
  EXPECT_EQ(Result.SamplesDelivered, Result2.SamplesDelivered);
  ASSERT_EQ(Result.Findings.size(), Result2.Findings.size());
  for (size_t I = 0; I < Result.Findings.size(); ++I) {
    EXPECT_EQ(Result.Findings[I].Object.Start,
              Result2.Findings[I].Object.Start);
    EXPECT_EQ(Result.Findings[I].Invalidations,
              Result2.Findings[I].Invalidations);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipelineTest,
                         ::testing::Range<uint64_t>(1, 17));

//===----------------------------------------------------------------------===//
// Coherence model vs brute-force holder-set oracle
//===----------------------------------------------------------------------===//

struct OracleParams {
  uint32_t Threads;
  uint32_t Lines;
  double WriteFraction;
  uint64_t Seed;
};

class CoherenceOracleTest : public ::testing::TestWithParam<OracleParams> {};

TEST_P(CoherenceOracleTest, MatchesHolderSetOracle) {
  const OracleParams &Params = GetParam();
  CacheGeometry Geometry(64);
  sim::LatencyModel Latency;
  sim::CoherenceModel Model(Geometry, Latency);

  // Oracle: per line, the set of holders and a dirty bit, maintained by
  // the textbook invalidation protocol.
  struct OracleLine {
    std::set<ThreadId> Holders;
    bool Dirty = false;
    bool Touched = false;
  };
  std::map<uint64_t, OracleLine> Oracle;

  SplitMix64 Rng(Params.Seed);
  uint64_t Now = 0;
  for (int I = 0; I < 30000; ++I) {
    ThreadId Tid = static_cast<ThreadId>(Rng.nextBelow(Params.Threads));
    uint64_t Line = Rng.nextBelow(Params.Lines);
    uint64_t Address = 0x100000 + Line * 64 + Rng.nextBelow(16) * 4;
    bool IsWrite = Rng.nextBool(Params.WriteFraction);
    MemoryAccess Access = IsWrite ? MemoryAccess::write(Address)
                                  : MemoryAccess::read(Address);

    OracleLine &Ref = Oracle[Line];
    bool Held = Ref.Holders.count(Tid) > 0;
    uint32_t ExpectedVictims =
        IsWrite ? static_cast<uint32_t>(Ref.Holders.size()) - (Held ? 1 : 0)
                : 0;
    bool ExpectedHit =
        Held && (!IsWrite || (Ref.Holders.size() == 1 && Ref.Dirty));
    bool ExpectedCold = !Ref.Touched;

    sim::CoherenceResult Result = Model.access(Tid, Access, Now);
    Now += Result.LatencyCycles + 1;

    EXPECT_EQ(Result.Invalidated, ExpectedVictims) << "step " << I;
    if (ExpectedCold) {
      EXPECT_EQ(Result.Outcome, sim::AccessOutcome::ColdMiss) << "step " << I;
    }
    if (ExpectedHit && !ExpectedCold && !IsWrite) {
      EXPECT_EQ(Result.Outcome, sim::AccessOutcome::LocalHit) << "step " << I;
    }

    // Advance the oracle.
    Ref.Touched = true;
    if (IsWrite) {
      Ref.Holders.clear();
      Ref.Holders.insert(Tid);
      Ref.Dirty = true;
    } else {
      Ref.Holders.insert(Tid);
      if (!Held && Ref.Dirty)
        Ref.Dirty = false; // dirty supplier downgraded
    }
    // Cross-check the model's holder view.
    std::vector<ThreadId> Holders = Model.holdersOf(Address);
    std::set<ThreadId> ModelHolders(Holders.begin(), Holders.end());
    EXPECT_EQ(ModelHolders, Ref.Holders) << "step " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CoherenceOracleTest,
    ::testing::Values(OracleParams{2, 1, 0.5, 21}, OracleParams{2, 8, 0.3, 22},
                      OracleParams{4, 2, 0.7, 23}, OracleParams{8, 4, 0.5, 24},
                      OracleParams{8, 16, 0.1, 25},
                      OracleParams{16, 8, 0.9, 26},
                      OracleParams{32, 32, 0.5, 27},
                      OracleParams{3, 1, 1.0, 28}));

//===----------------------------------------------------------------------===//
// Geometry sweep: detection is line-size aware end to end
//===----------------------------------------------------------------------===//

class GeometrySweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeometrySweepTest, PaddingToTheConfiguredLineSizeSilencesReports) {
  // A two-thread program writing slots padded exactly to the configured
  // line size must never be reported, at any geometry; halving the padding
  // must be reported (slots share lines again).
  uint64_t LineSize = GetParam();
  for (bool Padded : {true, false}) {
    core::ProfilerConfig Config;
    Config.Geometry = CacheGeometry(LineSize);
    Config.Pmu = Config.Pmu.withScaledPeriod(32);
    core::Profiler Profiler(Config);
    uint64_t Stride = Padded ? LineSize : LineSize / 2;
    uint64_t Slots = Profiler.globals().defineAligned("slots", 2 * Stride);

    sim::ForkJoinProgram Program;
    sim::PhaseSpec &Phase = Program.addPhase("p");
    for (uint32_t T = 0; T < 2; ++T) {
      uint64_t Slot = Slots + T * Stride;
      Phase.ParallelBodies.push_back([=]() -> Generator<ThreadEvent> {
        for (int I = 0; I < 20000; ++I)
          co_yield ThreadEvent::write(Slot, 4);
      });
    }
    pmu::SimPmu Pmu(Config.Pmu);
    Pmu.setSink(&Profiler);
    sim::Simulator Sim(Config.Geometry, sim::LatencyModel());
    Sim.addObserver(Pmu.simObserver());
    core::ProfileResult Result = Profiler.finish(Sim.run(Program));
    if (Padded)
      EXPECT_TRUE(significant(Result.Findings).empty())
          << "line size " << LineSize;
    else
      EXPECT_FALSE(significant(Result.Findings).empty())
          << "line size " << LineSize;
  }
}

INSTANTIATE_TEST_SUITE_P(LineSizes, GeometrySweepTest,
                         ::testing::Values(16, 32, 64, 128, 256));

//===----------------------------------------------------------------------===//
// Packed page table vs sequential reference model
//===----------------------------------------------------------------------===//

/// Sequential reference for one page: the unbounded accessor-set rule with
/// node actors (ReferenceLineModel reused with node ids) plus plain-integer
/// mirrors of every counter PageInfo maintains.
struct ReferencePageModel {
  baseline::ReferenceLineModel Table;
  uint64_t Accesses = 0, Writes = 0, Cycles = 0;
  uint64_t RemoteAccesses = 0, RemoteCycles = 0;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> LineReadsWrites;
  std::set<NodeId> Nodes;
  std::set<uint64_t> MultiNodeLines;
  std::map<uint64_t, NodeId> LineFirstNode;

  bool record(NodeId Node, AccessKind Kind, uint64_t Line, uint64_t Latency,
              bool Remote) {
    ++Accesses;
    Cycles += Latency;
    if (Kind == AccessKind::Write)
      ++Writes;
    if (Remote) {
      ++RemoteAccesses;
      RemoteCycles += Latency;
    }
    if (Kind == AccessKind::Read)
      ++LineReadsWrites[Line].first;
    else
      ++LineReadsWrites[Line].second;
    Nodes.insert(Node);
    auto [It, Fresh] = LineFirstNode.try_emplace(Line, Node);
    if (!Fresh && It->second != Node)
      MultiNodeLines.insert(Line);
    return Table.recordAccess(Node, Kind);
  }
};

struct PageFuzzParams {
  uint32_t Nodes;
  uint64_t Events;
  double WriteFraction;
  uint64_t Seed;
};

class PagePropertyTest : public ::testing::TestWithParam<PageFuzzParams> {};

TEST_P(PagePropertyTest, PackedPageTableMatchesSequentialReference) {
  const PageFuzzParams &Params = GetParam();
  constexpr uint64_t LinesPerPage = 64;
  core::PageInfo Info(LinesPerPage);
  ReferencePageModel Reference;
  NodeId Home = 0;

  SplitMix64 Rng(Params.Seed);
  for (uint64_t I = 0; I < Params.Events; ++I) {
    NodeId Node = static_cast<NodeId>(Rng.nextBelow(Params.Nodes));
    AccessKind Kind =
        Rng.nextBool(Params.WriteFraction) ? AccessKind::Write
                                           : AccessKind::Read;
    uint64_t Line = Rng.nextBelow(LinesPerPage);
    uint64_t Latency = 1 + Rng.nextBelow(100);
    bool Remote = Node != Home;

    bool Got = Info.recordAccess(Node, Node, Kind, Line, Latency, Remote);
    bool Want = Reference.record(Node, Kind, Line, Latency, Remote);
    // Invalidation-for-invalidation equivalence with the unbounded set
    // model — the "two entries suffice" claim at node granularity.
    ASSERT_EQ(Got, Want) << "event " << I;
  }

  EXPECT_EQ(Info.invalidations(), Reference.Table.invalidations());
  EXPECT_EQ(Info.accesses(), Reference.Accesses);
  EXPECT_EQ(Info.writes(), Reference.Writes);
  EXPECT_EQ(Info.cycles(), Reference.Cycles);
  EXPECT_EQ(Info.remoteAccesses(), Reference.RemoteAccesses);
  EXPECT_EQ(Info.remoteCycles(), Reference.RemoteCycles);
  EXPECT_EQ(Info.nodeCount(), Reference.Nodes.size());

  std::vector<core::WordStats> Lines = Info.lines();
  for (uint64_t L = 0; L < LinesPerPage; ++L) {
    auto It = Reference.LineReadsWrites.find(L);
    uint64_t WantReads = It == Reference.LineReadsWrites.end()
                             ? 0
                             : It->second.first;
    uint64_t WantWrites = It == Reference.LineReadsWrites.end()
                              ? 0
                              : It->second.second;
    EXPECT_EQ(Lines[L].Reads, WantReads) << "line " << L;
    EXPECT_EQ(Lines[L].Writes, WantWrites) << "line " << L;
    EXPECT_EQ(Lines[L].MultiThread, Reference.MultiNodeLines.count(L) > 0)
        << "line " << L;
    if (WantReads + WantWrites) {
      EXPECT_EQ(Lines[L].FirstThread, Reference.LineFirstNode.at(L));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, PagePropertyTest,
    ::testing::Values(PageFuzzParams{2, 20000, 0.5, 41},
                      PageFuzzParams{2, 20000, 0.9, 42},
                      PageFuzzParams{3, 15000, 0.3, 43},
                      PageFuzzParams{4, 15000, 0.6, 44},
                      PageFuzzParams{8, 10000, 0.5, 45},
                      PageFuzzParams{16, 10000, 1.0, 46},
                      PageFuzzParams{2, 5000, 0.05, 47}));

/// Delivers one parallel-phase sample as a batch of one.
void deliver(core::Detector &D, const pmu::Sample &S) {
  D.handleBatch(&S, 1, /*InParallelPhase=*/true);
}

TEST(PagePropertyTest, ConcurrentHammerMatchesSequentialTotalsPerPage) {
  // The detector's page stage over disjoint page partitions must be
  // indistinguishable from a serial run of the same per-page streams —
  // the page-layer mirror of DisjointLinePartitionsMatchSerialReference
  // in ThreadedIngestTest, checked here in its sequential form so the
  // property suite stays single-threaded (TSan covers the parallel one).
  constexpr uint64_t PageSizeBytes = 4096;
  constexpr uint64_t Pages = 32;
  NumaTopology Topology(4, PageSizeBytes);
  CacheGeometry Geometry(64);
  constexpr uint64_t Base = 0x4000'0000;

  core::ShadowMemory Shadow(Geometry, {{Base, Pages * PageSizeBytes}});
  core::PageTable Table(Topology, Geometry, {{Base, Pages * PageSizeBytes}});
  core::DetectorConfig Config;
  Config.TrackPages = true;
  Config.PageWriteThreshold = 0;
  core::Detector Detect(Geometry, Shadow, Config);
  Detect.attachPageTable(Table, Topology);

  std::map<uint64_t, ReferencePageModel> References;
  std::map<uint64_t, NodeId> Homes;
  std::map<uint64_t, uint64_t> PageWrites;
  SplitMix64 Rng(0x9A6E5);
  for (int I = 0; I < 60000; ++I) {
    uint64_t Page = Rng.nextBelow(Pages);
    uint64_t Offset = Rng.nextBelow(PageSizeBytes / 4) * 4;
    pmu::Sample Sample;
    Sample.Address = Base + Page * PageSizeBytes + Offset;
    Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(8));
    Sample.IsWrite = Rng.nextBool(0.5);
    Sample.LatencyCycles = 10 + static_cast<uint32_t>(Rng.nextBelow(40));
    deliver(Detect, Sample);

    NodeId Node = Topology.nodeOf(Sample.Tid);
    auto [Home, Fresh] = Homes.try_emplace(Page, Node);
    (void)Fresh;
    if (Sample.IsWrite)
      ++PageWrites[Page];
    // Mirror the stage-1 gate (threshold 0): reads before a page's first
    // sampled write are filtered, writes always reach detail.
    if (Sample.IsWrite || PageWrites[Page] > 0)
      References[Page].record(Node,
                              Sample.IsWrite ? AccessKind::Write
                                             : AccessKind::Read,
                              Offset / 64, Sample.LatencyCycles,
                              Node != Home->second);
  }

  EXPECT_EQ(Table.materializedPages(), References.size());
  for (const auto &[Page, Reference] : References) {
    uint64_t Address = Base + Page * PageSizeBytes;
    EXPECT_EQ(Table.homeNode(Address), Homes.at(Page));
    const core::PageInfo *Info = Table.detail(Address);
    ASSERT_NE(Info, nullptr);
    EXPECT_EQ(Info->invalidations(), Reference.Table.invalidations());
    EXPECT_EQ(Info->accesses(), Reference.Accesses);
    EXPECT_EQ(Info->remoteAccesses(), Reference.RemoteAccesses);
  }
}

//===----------------------------------------------------------------------===//
// support/Json.h under fuzz: round-trips and hostile input
//===----------------------------------------------------------------------===//

/// Emits a random JSON value of bounded depth through the production
/// writer, mirroring it into an expectation tree via the parser contract.
void writeRandomValue(JsonWriter &Writer, SplitMix64 &Rng, unsigned Depth) {
  switch (Depth == 0 ? Rng.nextBelow(4) : Rng.nextBelow(6)) {
  case 0:
    Writer.value(static_cast<uint64_t>(Rng.next() >> 12));
    break;
  case 1: {
    // Doubles from a fixed grid so equality comparison is exact.
    Writer.value(static_cast<double>(static_cast<int64_t>(Rng.nextBelow(
                     1000000))) /
                 64.0);
    break;
  }
  case 2: {
    std::string Text;
    size_t Len = Rng.nextBelow(12);
    for (size_t I = 0; I < Len; ++I)
      Text += static_cast<char>(Rng.nextBelow(256));
    Writer.value(Text);
    break;
  }
  case 3:
    if (Rng.nextBool(0.5))
      Writer.value(Rng.nextBool(0.5));
    else
      Writer.null();
    break;
  case 4: {
    Writer.beginArray();
    size_t N = Rng.nextBelow(5);
    for (size_t I = 0; I < N; ++I)
      writeRandomValue(Writer, Rng, Depth - 1);
    Writer.endArray();
    break;
  }
  default: {
    Writer.beginObject();
    size_t N = Rng.nextBelow(5);
    for (size_t I = 0; I < N; ++I) {
      std::string Key = "k";
      Key += std::to_string(I);
      Writer.key(Key);
      writeRandomValue(Writer, Rng, Depth - 1);
    }
    Writer.endObject();
    break;
  }
  }
}

/// Structural equality of two parsed documents.
bool jsonEquals(const JsonValue &A, const JsonValue &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case JsonValue::Kind::Null:
    return true;
  case JsonValue::Kind::Bool:
    return A.asBool() == B.asBool();
  case JsonValue::Kind::Number:
    return A.asNumber() == B.asNumber();
  case JsonValue::Kind::String:
    return A.asString() == B.asString();
  case JsonValue::Kind::Array: {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (!jsonEquals(A.elements()[I], B.elements()[I]))
        return false;
    return true;
  }
  case JsonValue::Kind::Object: {
    if (A.size() != B.size())
      return false;
    // Writer-produced keys are k0..kN in document order.
    for (size_t I = 0; I < A.size(); ++I) {
      std::string Key = "k" + std::to_string(I);
      const JsonValue *MA = A.find(Key);
      const JsonValue *MB = B.find(Key);
      if (!MA || !MB || !jsonEquals(*MA, *MB))
        return false;
    }
    return true;
  }
  }
  return false;
}

class JsonFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzzTest, RandomDocumentsRoundTripThroughWriterAndParser) {
  SplitMix64 Rng(GetParam());
  for (int Doc = 0; Doc < 50; ++Doc) {
    std::string Text;
    JsonWriter Writer(Text);
    writeRandomValue(Writer, Rng, 4);

    JsonValue First;
    std::string Error;
    ASSERT_TRUE(JsonValue::parse(Text, First, Error))
        << Error << "\ninput: " << Text;

    // Parsing the same bytes twice yields structurally identical trees
    // (parser determinism), and re-encoding scalar content survives.
    JsonValue Second;
    ASSERT_TRUE(JsonValue::parse(Text, Second, Error)) << Error;
    EXPECT_TRUE(jsonEquals(First, Second));
  }
}

TEST_P(JsonFuzzTest, MutatedDocumentsNeverCrashTheParser) {
  SplitMix64 Rng(GetParam() ^ 0xF00D);
  for (int Doc = 0; Doc < 30; ++Doc) {
    std::string Text;
    JsonWriter Writer(Text);
    writeRandomValue(Writer, Rng, 3);

    // Truncations at every prefix length (bounded), byte flips, and
    // garbage insertions: parse must return true or false — under ASan
    // this is the "malformed input must error, never crash" contract.
    for (size_t Cut = 0; Cut < Text.size() && Cut < 64; ++Cut) {
      JsonValue Result;
      std::string Error;
      bool Ok = JsonValue::parse(Text.substr(0, Cut), Result, Error);
      if (!Ok) {
        EXPECT_FALSE(Error.empty());
      }
    }
    for (int Mutation = 0; Mutation < 40; ++Mutation) {
      std::string Mutated = Text;
      switch (Rng.nextBelow(3)) {
      case 0:
        if (!Mutated.empty())
          Mutated[Rng.nextBelow(Mutated.size())] =
              static_cast<char>(Rng.nextBelow(256));
        break;
      case 1:
        Mutated.insert(Rng.nextBelow(Mutated.size() + 1),
                       1, static_cast<char>(Rng.nextBelow(256)));
        break;
      default:
        if (!Mutated.empty())
          Mutated.erase(Rng.nextBelow(Mutated.size()), 1);
        break;
      }
      JsonValue Result;
      std::string Error;
      bool Ok = JsonValue::parse(Mutated, Result, Error);
      if (!Ok) {
        EXPECT_FALSE(Error.empty());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

//===----------------------------------------------------------------------===//
// Page assessment (EQ.1-EQ.4, clamped) invariants on random profiles
//===----------------------------------------------------------------------===//

class PageAssessPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageAssessPropertyTest, ClampedEquationInvariantsHold) {
  SplitMix64 Rng(GetParam());
  for (int Iter = 0; Iter < 25; ++Iter) {
    uint32_t Workers = 1 + static_cast<uint32_t>(Rng.nextBelow(8));
    runtime::ThreadRegistry Registry;
    runtime::PhaseTracker Phases;
    Registry.threadStarted(0, true, 0);
    Phases.programBegin(0, 0);

    core::ObjectAccessProfile Profile;
    uint64_t MaxRuntime = 0;
    for (uint32_t T = 1; T <= Workers; ++T) {
      Registry.threadStarted(T, false, 1000);
      Phases.threadCreated(T, 0, 1000);

      uint64_t OnObject = 4 + Rng.nextBelow(100);
      uint64_t OffObject = Rng.nextBelow(100);
      uint64_t ObjectCycles = 0, RemoteAccesses = 0, RemoteCycles = 0;
      for (uint64_t A = 0; A < OnObject; ++A) {
        // Local latency 2..20; a random subset is remote and pays a
        // 1..60-cycle surcharge on top.
        uint64_t Latency = 2 + Rng.nextBelow(19);
        bool Remote = Rng.nextBool(0.4);
        if (Remote) {
          Latency += 1 + Rng.nextBelow(60);
          ++RemoteAccesses;
          RemoteCycles += Latency;
        }
        ObjectCycles += Latency;
        Registry.recordSamples(T, 1, Latency);
      }
      for (uint64_t A = 0; A < OffObject; ++A)
        Registry.recordSamples(T, 1, 2 + Rng.nextBelow(19));

      Profile.SampledAccesses += OnObject;
      Profile.SampledCycles += ObjectCycles;
      Profile.RemoteAccesses += RemoteAccesses;
      Profile.RemoteCycles += RemoteCycles;
      Profile.PerThread.push_back({T, OnObject, ObjectCycles});
    }
    // Lifecycle timestamps must be monotone: finish the workers in time
    // order, whatever the tid order of their random runtimes.
    std::vector<std::pair<uint64_t, ThreadId>> Finishes;
    for (uint32_t T = 1; T <= Workers; ++T) {
      uint64_t Runtime = 10000 + Rng.nextBelow(90000);
      MaxRuntime = std::max(MaxRuntime, Runtime);
      Finishes.push_back({1000 + Runtime, T});
    }
    std::sort(Finishes.begin(), Finishes.end());
    for (const auto &[End, T] : Finishes) {
      Registry.threadFinished(T, End);
      Phases.threadFinished(T, End);
    }
    uint64_t AppRuntime = 2000 + MaxRuntime;
    Registry.threadFinished(0, AppRuntime);
    Phases.programEnd(AppRuntime);

    core::Assessor Assess(Registry, Phases);
    Assess.setLocalLatencyTotals(1000, 1000 * (2 + Rng.nextBelow(10)));
    core::Assessment Result = Assess.assessPage(Profile, AppRuntime);

    // Clamp contract: the prediction never exceeds the measured runtime,
    // so the improvement factor is at least 1.
    EXPECT_GE(Result.ImprovementFactor, 1.0 - 1e-9);
    EXPECT_LE(Result.PredictedAppRuntime,
              static_cast<double>(AppRuntime) + 1e-6);

    // Per thread: removed cycles never exceed the measured on-object
    // cycles ("prediction never exceeds measured cycles removed").
    double TotalExcess = 0.0;
    for (const core::ThreadPrediction &P : Result.Threads) {
      EXPECT_GE(P.PredictedCycles + 1e-9,
                static_cast<double>(P.SampledCycles) -
                    static_cast<double>(P.CyclesOnObject));
      EXPECT_LE(P.PredictedRuntime,
                static_cast<double>(P.RealRuntime) + 1e-9);
      TotalExcess += std::max(
          0.0, static_cast<double>(P.CyclesOnObject) -
                   Result.AverageNoFsLatency *
                       static_cast<double>(P.AccessesOnObject));
    }

    // Improvement strictly above 1 requires removable excess somewhere;
    // zero excess pins the prediction at exactly the measured runtime.
    if (Result.ImprovementFactor > 1.0 + 1e-9) {
      EXPECT_GT(TotalExcess, 0.0);
    }
    if (TotalExcess == 0.0) {
      EXPECT_NEAR(Result.ImprovementFactor, 1.0, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageAssessPropertyTest,
                         ::testing::Range<uint64_t>(101, 113));

TEST(PageAssessPropertyTest, ImprovementMonotoneInRemoteFraction) {
  // Two workers on one page; worker 2's remote share sweeps 0 -> 100%.
  // More remote surcharge means more removable excess, so the predicted
  // improvement must never decrease along the sweep.
  double Previous = 0.0;
  for (uint64_t Remote = 0; Remote <= 50; Remote += 5) {
    runtime::ThreadRegistry Registry;
    runtime::PhaseTracker Phases;
    Registry.threadStarted(0, true, 0);
    Phases.programBegin(0, 0);
    for (ThreadId T : {1u, 2u}) {
      Registry.threadStarted(T, false, 1000);
      Phases.threadCreated(T, 0, 1000);
    }
    core::ObjectAccessProfile Profile;
    // Worker 1: 50 local object accesses at 10 cycles (pins the local
    // baseline at exactly 10), 50 off-object samples.
    for (int A = 0; A < 50; ++A)
      Registry.recordSamples(1, 1, 10);
    for (int A = 0; A < 50; ++A)
      Registry.recordSamples(1, 1, 10);
    Profile.PerThread.push_back({1, 50, 500});
    // Worker 2: 50 object accesses, `Remote` of them at 30 cycles.
    uint64_t Cycles2 = 0;
    for (uint64_t A = 0; A < 50; ++A) {
      uint64_t Latency = A < Remote ? 30 : 10;
      Cycles2 += Latency;
      Registry.recordSamples(2, 1, Latency);
    }
    for (int A = 0; A < 50; ++A)
      Registry.recordSamples(2, 1, 10);
    Profile.PerThread.push_back({2, 50, Cycles2});
    Profile.SampledAccesses = 100;
    Profile.SampledCycles = 500 + Cycles2;
    Profile.RemoteAccesses = Remote;
    Profile.RemoteCycles = Remote * 30;

    // Worker 1 finishes early so the remote-paying worker 2 owns the
    // phase's critical path (otherwise EQ.4's max pins improvement at 1).
    Registry.threadFinished(1, 51000);
    Phases.threadFinished(1, 51000);
    Registry.threadFinished(2, 101000);
    Phases.threadFinished(2, 101000);
    Registry.threadFinished(0, 102000);
    Phases.programEnd(102000);

    core::Assessor Assess(Registry, Phases);
    core::Assessment Result = Assess.assessPage(Profile, 102000);
    EXPECT_DOUBLE_EQ(Result.AverageNoFsLatency, 10.0);
    EXPECT_GE(Result.ImprovementFactor, Previous - 1e-12)
        << "remote=" << Remote;
    Previous = Result.ImprovementFactor;
  }
  EXPECT_GT(Previous, 1.0);
}

//===----------------------------------------------------------------------===//
// Tree-based references for the single-pass document decoders
//===----------------------------------------------------------------------===//

// The readings parseReport and parseRunDocument replaced: the whole document into a JsonValue, then each field through
// the kind-checked jsonField* accessors. They are the oracles for the
// decoders — same accepted documents, same values, same error string.
// (One message differs from the replaced code: a missing 'summary' object
// no longer appends whatever the caller's error string held before.)

/// Optional improvement factor: v3 findings carry `predictedImprovement`;
/// v2 line findings fall back to `assessment.improvement_factor`; v2 page
/// findings have neither.
void referenceImprovement(const JsonValue &Finding, core::DiffFinding &Out) {
  const JsonValue *Factor = Finding.find("predictedImprovement");
  if (!Factor || Factor->kind() != JsonValue::Kind::Number) {
    const JsonValue *Impact = Finding.find("assessment");
    if (Impact && Impact->isObject())
      Factor = Impact->find("improvement_factor");
  }
  if (Factor && Factor->kind() == JsonValue::Kind::Number) {
    Out.Improvement = Factor->asNumber();
    Out.HasImprovement = true;
  }
}

bool referenceBuckets(const JsonValue &Node,
                      std::vector<RemoteDistanceStats> &Out,
                      std::string &Error) {
  const JsonValue *Buckets = Node.find("remote_by_distance");
  if (!Buckets)
    return true;
  if (!Buckets->isArray()) {
    Error = "'remote_by_distance' is not an array";
    return false;
  }
  for (size_t I = 0; I < Buckets->size(); ++I) {
    const JsonValue &Entry = Buckets->elements()[I];
    if (!Entry.isObject()) {
      Error = formatString("remote_by_distance[%zu] is not an object", I);
      return false;
    }
    RemoteDistanceStats Bucket;
    uint64_t Distance = 0;
    if (!jsonFieldUint(Entry, "distance", Distance, Error) ||
        !jsonFieldUint(Entry, "accesses", Bucket.Accesses, Error) ||
        !jsonFieldUint(Entry, "cycles", Bucket.Cycles, Error)) {
      Error = formatString("remote_by_distance[%zu]: ", I) + Error;
      return false;
    }
    if (Distance > UINT32_MAX) {
      Error = formatString(
          "remote_by_distance[%zu]: field 'distance' is out of range", I);
      return false;
    }
    Bucket.Distance = static_cast<uint32_t>(Distance);
    Out.push_back(Bucket);
  }
  return true;
}

bool referenceLineFinding(const JsonValue &Node, core::DiffFinding &Out,
                          std::string &Error) {
  if (!Node.isObject()) {
    Error = "finding is not an object";
    return false;
  }
  const JsonValue *Object = Node.find("object");
  if (!Object || !Object->isObject()) {
    Error = "finding without an 'object' member";
    return false;
  }
  std::string Kind, Name;
  if (!jsonFieldString(*Object, "kind", Kind, Error) ||
      !jsonFieldString(*Object, "name", Name, Error))
    return false;
  if (Name.empty()) {
    uint64_t Start = 0;
    if (!jsonFieldUint(*Object, "start", Start, Error))
      return false;
    Name = formatString("@0x%llx", static_cast<unsigned long long>(Start));
  }
  Out.Key = "line:" + Kind + ":" + Name;
  Out.IsPage = false;
  if (!jsonFieldString(Node, "sharing", Out.Sharing, Error) ||
      !jsonFieldBool(Node, "significant", Out.Significant, Error) ||
      !jsonFieldUint(Node, "accesses", Out.Accesses, Error) ||
      !jsonFieldUint(Node, "invalidations", Out.Invalidations, Error))
    return false;
  referenceImprovement(Node, Out);
  return true;
}

bool referencePageFinding(const JsonValue &Node, core::DiffFinding &Out,
                          std::string &Error) {
  if (!Node.isObject()) {
    Error = "page finding is not an object";
    return false;
  }
  const JsonValue *Objects = Node.find("objects");
  if (!Objects || !Objects->isArray()) {
    Error = "page finding without an 'objects' array";
    return false;
  }
  std::string Site;
  for (const JsonValue &Name : Objects->elements()) {
    if (Name.kind() != JsonValue::Kind::String) {
      Error = "page finding 'objects' entry is not a string";
      return false;
    }
    if (!Site.empty())
      Site += "+";
    Site += Name.asString();
  }
  if (Site.empty()) {
    uint64_t Page = 0;
    if (!jsonFieldUint(Node, "page", Page, Error))
      return false;
    Site = formatString("@0x%llx", static_cast<unsigned long long>(Page));
  }
  Out.Key = "page:" + Site;
  Out.IsPage = true;
  if (!jsonFieldString(Node, "sharing", Out.Sharing, Error) ||
      !jsonFieldBool(Node, "significant", Out.Significant, Error) ||
      !jsonFieldUint(Node, "accesses", Out.Accesses, Error) ||
      !jsonFieldUint(Node, "invalidations", Out.Invalidations, Error) ||
      !jsonFieldUint(Node, "remote_accesses", Out.RemoteAccesses, Error) ||
      !referenceBuckets(Node, Out.RemoteByDistance, Error))
    return false;
  referenceImprovement(Node, Out);
  return true;
}

bool referenceParseReport(const std::string &Text, core::ParsedReport &Out,
                          std::string &Error) {
  Out = core::ParsedReport();
  JsonValue Document;
  if (!JsonValue::parse(Text, Document, Error)) {
    Error = "invalid JSON: " + Error;
    return false;
  }
  if (!Document.isObject()) {
    Error = "report is not a JSON object";
    return false;
  }
  if (!jsonFieldString(Document, "schema", Out.Schema, Error))
    return false;
  if (Out.Schema != "cheetah-report-v2" &&
      Out.Schema != "cheetah-report-v3" &&
      Out.Schema != "cheetah-report-v4" &&
      Out.Schema != "cheetah-report-v5" &&
      Out.Schema != "cheetah-report-v6") {
    Error = formatString(
        "unsupported schema '%s' (cheetah-diff reads cheetah-report-v2, "
        "cheetah-report-v3, cheetah-report-v4, cheetah-report-v5, and "
        "cheetah-report-v6)",
        Out.Schema.c_str());
    return false;
  }
  const JsonValue *Run = Document.find("run");
  if (!Run || !Run->isObject()) {
    Error = "report without a 'run' object";
    return false;
  }
  if (!jsonFieldString(*Run, "workload", Out.Workload, Error) ||
      !jsonFieldUint(*Run, "threads", Out.Threads, Error) ||
      !jsonFieldBool(*Run, "fix_applied", Out.FixApplied, Error) ||
      !jsonFieldString(*Run, "granularity", Out.Granularity, Error))
    return false;
  const JsonValue *Summary = Document.find("summary");
  if (!Summary || !Summary->isObject()) {
    Error = "report without a usable 'summary' object";
    return false;
  }
  if (!jsonFieldUint(*Summary, "app_runtime_cycles", Out.AppRuntimeCycles,
                     Error)) {
    Error = "report without a usable 'summary' object: " + Error;
    return false;
  }
  const JsonValue *Findings = Document.find("findings");
  if (!Findings || !Findings->isArray()) {
    Error = "report without a 'findings' array";
    return false;
  }
  for (size_t I = 0; I < Findings->size(); ++I) {
    core::DiffFinding Finding;
    if (!referenceLineFinding(Findings->elements()[I], Finding, Error)) {
      Error = formatString("findings[%zu]: ", I) + Error;
      return false;
    }
    Out.Findings.push_back(std::move(Finding));
  }
  const JsonValue *Pages = Document.find("pageFindings");
  if (!Pages || !Pages->isArray()) {
    Error = "report without a 'pageFindings' array";
    return false;
  }
  for (size_t I = 0; I < Pages->size(); ++I) {
    core::DiffFinding Finding;
    if (!referencePageFinding(Pages->elements()[I], Finding, Error)) {
      Error = formatString("pageFindings[%zu]: ", I) + Error;
      return false;
    }
    Out.PageFindings.push_back(std::move(Finding));
  }
  core::disambiguateKeys(Out.Findings);
  core::disambiguateKeys(Out.PageFindings);
  return true;
}

bool referenceDiffSection(const JsonValue &Document, const char *Name,
                          bool IsPage, std::vector<core::DiffFinding> &Out,
                          std::string &Error) {
  const JsonValue *Section = Document.find(Name);
  if (!Section || !Section->isObject()) {
    Error = formatString("diff without a '%s' section", Name);
    return false;
  }
  const JsonValue *Added = Section->find("added");
  const JsonValue *Matched = Section->find("matched");
  if (!Added || !Added->isArray() || !Matched || !Matched->isArray()) {
    Error = formatString("'%s' section without added/matched arrays", Name);
    return false;
  }
  for (size_t I = 0; I < Added->size(); ++I) {
    const JsonValue &Node = Added->elements()[I];
    core::DiffFinding Finding;
    Finding.IsPage = IsPage;
    bool Ok =
        Node.isObject() && jsonFieldString(Node, "key", Finding.Key, Error) &&
        jsonFieldString(Node, "sharing", Finding.Sharing, Error) &&
        jsonFieldBool(Node, "significant", Finding.Significant, Error) &&
        jsonFieldUint(Node, "accesses", Finding.Accesses, Error) &&
        jsonFieldUint(Node, "invalidations", Finding.Invalidations, Error);
    if (Ok && IsPage)
      Ok = jsonFieldUint(Node, "remote_accesses", Finding.RemoteAccesses,
                         Error);
    if (!Ok) {
      if (!Node.isObject())
        Error = "entry is not an object";
      Error = formatString("%s.added[%zu]: ", Name, I) + Error;
      return false;
    }
    if (const JsonValue *Factor = Node.find("predictedImprovement")) {
      if (Factor->kind() != JsonValue::Kind::Number) {
        Error = formatString(
            "%s.added[%zu]: 'predictedImprovement' is not a number", Name, I);
        return false;
      }
      Finding.Improvement = Factor->asNumber();
      Finding.HasImprovement = true;
    }
    Out.push_back(std::move(Finding));
  }
  for (size_t I = 0; I < Matched->size(); ++I) {
    const JsonValue &Node = Matched->elements()[I];
    core::DiffFinding Finding;
    Finding.IsPage = IsPage;
    bool Ok = Node.isObject() &&
              jsonFieldString(Node, "key", Finding.Key, Error) &&
              jsonFieldBool(Node, "new_significant", Finding.Significant,
                            Error);
    if (!Ok) {
      if (!Node.isObject())
        Error = "entry is not an object";
      Error = formatString("%s.matched[%zu]: ", Name, I) + Error;
      return false;
    }
    if (const JsonValue *Factor = Node.find("new_improvement")) {
      if (Factor->kind() != JsonValue::Kind::Number) {
        Error = formatString(
            "%s.matched[%zu]: 'new_improvement' is not a number", Name, I);
        return false;
      }
      Finding.Improvement = Factor->asNumber();
      Finding.HasImprovement = true;
    }
    Out.push_back(std::move(Finding));
  }
  return true;
}

bool referenceParseRunDocument(const std::string &Text,
                               core::ParsedReport &Out, std::string &Error) {
  JsonValue Document;
  if (!JsonValue::parse(Text, Document, Error)) {
    Error = "invalid JSON: " + Error;
    return false;
  }
  const JsonValue *Schema = Document.find("schema");
  if (!Schema || Schema->kind() != JsonValue::Kind::String ||
      Schema->asString() != "cheetah-diff-v1")
    return referenceParseReport(Text, Out, Error);

  Out = core::ParsedReport();
  Out.Schema = "cheetah-diff-v1";
  const JsonValue *New = Document.find("new");
  if (!New || !New->isObject()) {
    Error = "diff without a 'new' run object";
    return false;
  }
  if (!jsonFieldString(*New, "workload", Out.Workload, Error) ||
      !jsonFieldUint(*New, "threads", Out.Threads, Error) ||
      !jsonFieldBool(*New, "fix_applied", Out.FixApplied, Error) ||
      !jsonFieldString(*New, "granularity", Out.Granularity, Error) ||
      !jsonFieldUint(*New, "app_runtime_cycles", Out.AppRuntimeCycles,
                     Error)) {
    Error = "diff 'new' run: " + Error;
    return false;
  }
  return referenceDiffSection(Document, "findings", /*IsPage=*/false,
                              Out.Findings, Error) &&
         referenceDiffSection(Document, "pageFindings", /*IsPage=*/true,
                              Out.PageFindings, Error);
}

/// Every decoded value, doubles bit-exactly, as one comparable string.
std::string describeBuckets(const std::vector<RemoteDistanceStats> &Buckets) {
  std::string Out;
  for (const RemoteDistanceStats &B : Buckets)
    Out += formatString(" [%u %llu %llu]", B.Distance,
                        static_cast<unsigned long long>(B.Accesses),
                        static_cast<unsigned long long>(B.Cycles));
  return Out;
}

std::string describe(const core::ParsedReport &Report) {
  std::string Out = formatString(
      "%s|%s|%llu|%d|%s|%llu\n", Report.Schema.c_str(),
      Report.Workload.c_str(), static_cast<unsigned long long>(Report.Threads),
      Report.FixApplied, Report.Granularity.c_str(),
      static_cast<unsigned long long>(Report.AppRuntimeCycles));
  for (const auto *List : {&Report.Findings, &Report.PageFindings})
    for (const core::DiffFinding &F : *List)
      Out += formatString("%s|%s|%d|%d|%a|%d|%llu|%llu|%llu|", F.Key.c_str(),
                          F.Sharing.c_str(), F.IsPage, F.Significant,
                          F.Improvement, F.HasImprovement,
                          static_cast<unsigned long long>(F.Accesses),
                          static_cast<unsigned long long>(F.Invalidations),
                          static_cast<unsigned long long>(F.RemoteAccesses)) +
             describeBuckets(F.RemoteByDistance) + "\n";
  return Out;
}

/// Expects a decoder and its reference to agree on \p Text: the same
/// verdict, the same error string and, when both accept, the same
/// described values. \returns whether the decoder accepted.
bool verdictsAgree(const std::string &Text, bool FastOk,
                   const std::string &FastError, const std::string &FastValues,
                   bool ReferenceOk, const std::string &ReferenceError,
                   const std::string &ReferenceValues) {
  EXPECT_EQ(FastOk, ReferenceOk) << "document: " << Text.substr(0, 600);
  EXPECT_EQ(FastError, ReferenceError) << "document: " << Text.substr(0, 600);
  if (FastOk && ReferenceOk) {
    EXPECT_EQ(FastValues, ReferenceValues);
  }
  if (!FastOk) {
    EXPECT_FALSE(FastError.empty());
  }
  return FastOk;
}

bool reportParsersAgree(const std::string &Text) {
  core::ParsedReport Fast, Reference;
  std::string FastError, ReferenceError;
  bool FastOk = core::parseReport(Text, Fast, FastError);
  bool ReferenceOk = referenceParseReport(Text, Reference, ReferenceError);
  return verdictsAgree(Text, FastOk, FastError, describe(Fast), ReferenceOk,
                       ReferenceError, describe(Reference));
}

bool runDocumentParsersAgree(const std::string &Text) {
  core::ParsedReport Fast, Reference;
  std::string FastError, ReferenceError;
  bool FastOk = core::parseRunDocument(Text, Fast, FastError);
  bool ReferenceOk =
      referenceParseRunDocument(Text, Reference, ReferenceError);
  return verdictsAgree(Text, FastOk, FastError, describe(Fast), ReferenceOk,
                       ReferenceError, describe(Reference));
}

/// Random byte edits (flip/insert/erase) of \p Text.
std::string mutate(std::string Text, SplitMix64 &Rng) {
  switch (Rng.nextBelow(3)) {
  case 0:
    if (!Text.empty())
      Text[Rng.nextBelow(Text.size())] = static_cast<char>(Rng.nextBelow(256));
    break;
  case 1:
    Text.insert(Rng.nextBelow(Text.size() + 1), 1,
                static_cast<char>(Rng.nextBelow(256)));
    break;
  default:
    if (!Text.empty())
      Text.erase(Rng.nextBelow(Text.size()), 1);
    break;
  }
  return Text;
}

/// Rewrites a valid JSON document the way some other writer might: members
/// in random order, whitespace between tokens, keys with their first
/// letter as a \u escape, integers spelled with a fraction or an exponent,
/// members repeated after their first occurrence (which must win), and
/// members no reader knows (which must be ignored). Every reader must read
/// the rewrite as the original. A hostile writer also drops members and
/// replaces values with junk, so readers fail — and must fail alike.
class JsonVariantWriter {
public:
  JsonVariantWriter(SplitMix64 &Rng, bool Hostile = false)
      : Rng(Rng), Hostile(Hostile) {}

  std::string write(const std::string &Document) {
    JsonReader Reader(Document);
    std::string Out = value(Reader, Reader.next());
    EXPECT_EQ(Reader.next(), JsonReader::Token::End) << Reader.error();
    return space() + Out + space();
  }

private:
  using Token = JsonReader::Token;
  using Members = std::vector<std::pair<std::string, std::string>>;

  std::string value(JsonReader &Reader, Token T) {
    switch (T) {
    case Token::BeginObject: {
      Members Fields;
      for (Token K = Reader.next(); K == Token::Key; K = Reader.next()) {
        std::string Name(Reader.string());
        std::string Value = value(Reader, Reader.next());
        if (Hostile && Rng.nextBool(0.03))
          continue; // dropped
        if (Hostile && Rng.nextBool(0.03))
          Value = junk();
        Fields.push_back({std::move(Name), std::move(Value)});
      }
      return object(std::move(Fields));
    }
    case Token::BeginArray: {
      std::string Out = "[";
      size_t I = 0;
      for (Token E = Reader.next(); E != Token::EndArray && E != Token::Error;
           E = Reader.next()) {
        std::string Element = value(Reader, E);
        if (Hostile && Rng.nextBool(0.02))
          Element = junk();
        Out += (I++ ? "," : "") + space() + Element + space();
      }
      return Out + "]";
    }
    case Token::String:
      return "\"" + jsonEscape(Reader.string()) + "\"";
    case Token::Number:
      return number(Reader.number());
    case Token::Bool:
      return Reader.boolean() ? "true" : "false";
    default:
      return "null";
    }
  }

  /// \p Fields shuffled, with repeats placed after the original and
  /// unknown members anywhere.
  std::string object(Members Fields) {
    for (size_t I = Fields.size(); I > 1; --I)
      std::swap(Fields[I - 1], Fields[Rng.nextBelow(I)]);
    for (size_t I = 0, Originals = Fields.size(); I < Originals; ++I) {
      if (!Rng.nextBool(0.1))
        continue;
      std::string Name = Fields[I].first;
      size_t First = std::find_if(Fields.begin(), Fields.end(),
                                  [&](const auto &F) { return F.first == Name; }) -
                     Fields.begin();
      size_t At = First + 1 + Rng.nextBelow(Fields.size() - First);
      Fields.insert(Fields.begin() + At, {Name, junk()});
    }
    if (Rng.nextBool(0.3))
      Fields.insert(Fields.begin() + Rng.nextBelow(Fields.size() + 1),
                    {Rng.nextBool(0.5) ? "x" : "extra_v2", junk()});
    std::string Out = "{";
    for (size_t I = 0; I < Fields.size(); ++I)
      Out += (I ? "," : "") + space() + "\"" + key(Fields[I].first) + "\"" +
             space() + ":" + space() + Fields[I].second + space();
    return Out + "}";
  }

  /// \p Name escaped, sometimes with its first letter as a \u escape.
  std::string key(const std::string &Name) {
    std::string Escaped = jsonEscape(Name);
    if (Name.empty() || Escaped[0] == '\\' || !Rng.nextBool(0.05))
      return Escaped;
    char Escape[7];
    std::snprintf(Escape, sizeof(Escape), "\\u%04x",
                  static_cast<unsigned char>(Name[0]));
    return Escape + Escaped.substr(1);
  }

  /// \p Value in its shortest exact spelling; an integer sometimes with a
  /// fraction or an exponent.
  std::string number(double Value) {
    char Buffer[32];
    auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
    std::string Digits(Buffer, End);
    if (Digits.find_first_of(".eE") != std::string::npos)
      return Digits;
    switch (Rng.nextBelow(8)) {
    case 0:
      return Digits + ".0";
    case 1:
      return Digits + "e0";
    case 2:
      return Digits + "E+00";
    default:
      return Digits;
    }
  }

  std::string space() {
    static const char *Spaces[] = {"", "", "", " ", "\n", "\t", "\r\n  "};
    return Spaces[Rng.nextBelow(std::size(Spaces))];
  }

  std::string junk() {
    static const char *Values[] = {
        "\"ts\"", "-1",   "1e20",         "1e999",      "0.5",
        "true",   "null", "[1,{\"k\":\"s\"}]", "{\"a\":[]}", "\"\\u0041\"",
        "4294967296", "\"\"", "[]", "{}", "18446744073709551616"};
    return Values[Rng.nextBelow(std::size(Values))];
  }

  SplitMix64 &Rng;
  bool Hostile;
};

//===----------------------------------------------------------------------===//
// ReportDiff::parseReport under fuzz: loud errors, never a crash
//===----------------------------------------------------------------------===//

/// A small but real report document through the production JSON sink.
std::string renderFuzzReport(SplitMix64 &Rng) {
  std::string Out;
  core::JsonReportSink Sink(Out);
  core::ReportRunInfo Info;
  Info.Tool = "cheetah";
  Info.Workload = "fuzz";
  Info.Threads = 4;
  Info.Granularity = "both";
  Sink.beginRun(Info);
  size_t Findings = Rng.nextBelow(3);
  for (size_t I = 0; I < Findings; ++I) {
    core::FalseSharingReport Report;
    // Mostly named globals; sometimes an anonymous range, whose identity
    // is its start address.
    Report.Object.IsHeap = Rng.nextBool(0.2);
    Report.Object.GlobalName = "g" + std::to_string(Rng.nextBelow(3));
    Report.Object.Start = 0x1000 * (1 + Rng.nextBelow(64));
    Report.Object.Size = 64 + Rng.nextBelow(512);
    Report.SampledAccesses = Rng.nextBelow(10000);
    Report.Invalidations = Rng.nextBelow(500);
    Report.Impact.ImprovementFactor =
        1.0 + static_cast<double>(Rng.nextBelow(300)) / 100.0;
    // A few kept word rows and their uncut total, which every reading
    // skips.
    for (size_t W = Rng.nextBelow(3); W > 0; --W)
      Report.Words.push_back({4 * W, Rng.nextBelow(100), Rng.nextBelow(100),
                              Rng.nextBelow(5000), 1, Rng.nextBool(0.5)});
    Report.WordsTotal = Report.Words.size() + Rng.nextBelow(40);
    Sink.finding(Report, Rng.nextBool(0.5));
  }
  size_t Pages = Rng.nextBelow(3);
  for (size_t I = 0; I < Pages; ++I) {
    core::PageSharingReport Report;
    Report.PageBase = 0x1000 * (1 + Rng.nextBelow(64));
    Report.PageSize = 4096;
    Report.SampledAccesses = Rng.nextBelow(10000);
    Report.RemoteAccesses = Rng.nextBelow(5000);
    Report.Invalidations = Rng.nextBelow(500);
    Report.Impact.ImprovementFactor =
        1.0 + static_cast<double>(Rng.nextBelow(300)) / 100.0;
    for (size_t O = Rng.nextBelow(3); O > 0; --O) {
      Report.Objects.emplace_back("o");
      Report.Objects.back() += std::to_string(Rng.nextBelow(3));
    }
    // v4 distance buckets, sometimes, so the fuzz exercises the new
    // remote_by_distance parsing too.
    size_t Buckets = Rng.nextBelow(3);
    for (size_t B = 0; B < Buckets; ++B)
      Report.RemoteByDistance.push_back(
          {static_cast<uint32_t>(10 + 10 * B), Rng.nextBelow(1000),
           Rng.nextBelow(50000)});
    for (size_t L = Rng.nextBelow(3); L > 0; --L)
      Report.Lines.push_back({64 * L, Rng.nextBelow(100), Rng.nextBelow(100),
                              Rng.nextBelow(5000), 0, Rng.nextBool(0.5)});
    Report.LinesTotal = Report.Lines.size() + Rng.nextBelow(40);
    Sink.pageFinding(Report, Rng.nextBool(0.5));
  }
  core::ReportRunStats Stats;
  Stats.AppRuntime = Rng.nextBelow(1000000);
  Sink.endRun(Stats);
  return Out;
}

/// A cheetah-diff-v1 document between two fuzz reports.
std::string renderFuzzDiff(SplitMix64 &Rng) {
  core::ParsedReport Old, New;
  std::string Error;
  EXPECT_TRUE(core::parseReport(renderFuzzReport(Rng), Old, Error)) << Error;
  EXPECT_TRUE(core::parseReport(renderFuzzReport(Rng), New, Error)) << Error;
  return core::formatDiffJson(core::diffReports(Old, New),
                              Rng.nextBool(0.5) ? 1.5 : 0.0);
}

/// Feeds \p Text, its bounded truncations, random byte mutations of it,
/// and layout variants — benign and hostile — of it to \p Agree, which
/// runs one decoder against its reference. Benign variants must read back
/// exactly as \p Text does.
template <typename AgreeFn>
void checkAgainstReference(const std::string &Text, SplitMix64 &Rng,
                           AgreeFn &&Agree) {
  EXPECT_TRUE(Agree(Text));
  for (size_t Cut = 0; Cut < Text.size(); Cut += 7)
    Agree(Text.substr(0, Cut));
  for (int Mutation = 0; Mutation < 40; ++Mutation)
    Agree(mutate(Text, Rng));
  JsonVariantWriter Benign(Rng), Hostile(Rng, /*Hostile=*/true);
  for (int Variant = 0; Variant < 3; ++Variant) {
    std::string Layout = Benign.write(Text);
    EXPECT_TRUE(Agree(Layout)) << Layout.substr(0, 600);
    for (int Mutation = 0; Mutation < 20; ++Mutation)
      Agree(mutate(Layout, Rng));
    for (int Attack = 0; Attack < 10; ++Attack)
      Agree(Hostile.write(Text));
  }
}

class ReportDiffFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReportDiffFuzzTest, HostileReportInputNeverCrashes) {
  SplitMix64 Rng(GetParam() ^ 0xD1FF);
  for (int Doc = 0; Doc < 10; ++Doc) {
    // Documents cycle through v6, v5 and v4, so every reading stays under
    // the fuzz.
    std::string Text = renderFuzzReport(Rng);
    const char *Schema = "cheetah-report-v6";
    if (Doc % 3 == 1) {
      Text = test::downgradeToV5(Text);
      Schema = "cheetah-report-v5";
    } else if (Doc % 3 == 2) {
      Text = test::downgradeToV4(Text);
      Schema = "cheetah-report-v4";
    }

    // The pristine document parses; truncated, mutated and re-laid-out
    // ones get the reference's verdict, values and error string, through
    // both entry points.
    core::ParsedReport Report;
    std::string Error;
    ASSERT_TRUE(core::parseReport(Text, Report, Error)) << Error;
    EXPECT_EQ(Report.Schema, Schema);
    checkAgainstReference(Text, Rng, reportParsersAgree);
    checkAgainstReference(Text, Rng, runDocumentParsersAgree);

    // Version mismatches, either side of the accepted range, fail loudly
    // by name.
    for (const char *Other : {"cheetah-report-v1", "cheetah-report-v7"}) {
      std::string Mismatched = test::relabelSchema(Text, Schema, Other);
      EXPECT_FALSE(reportParsersAgree(Mismatched));
      core::ParsedReport Rejected;
      EXPECT_FALSE(core::parseReport(Mismatched, Rejected, Error));
      EXPECT_NE(Error.find("unsupported schema"), std::string::npos);
    }
  }
}

TEST_P(ReportDiffFuzzTest, DiffDocumentsMatchTheTreeReference) {
  SplitMix64 Rng(GetParam() ^ 0xD1FD);
  for (int Doc = 0; Doc < 6; ++Doc) {
    std::string Text = renderFuzzDiff(Rng);
    core::ParsedReport Run;
    std::string Error;
    ASSERT_TRUE(core::parseRunDocument(Text, Run, Error)) << Error;
    EXPECT_EQ(Run.Schema, "cheetah-diff-v1");
    checkAgainstReference(Text, Rng, runDocumentParsersAgree);
    // parseReport reads no diff: it rejects one by its schema.
    EXPECT_FALSE(reportParsersAgree(Text));
  }
}

TEST(ReportDiffFuzzTest, ParsersMatchTheTreeReferenceOnHandWrittenCases) {
  const std::string Head =
      R"({"schema":"cheetah-report-v4","run":{"workload":"w","threads":2,)"
      R"("fix_applied":false,"granularity":"line"},)"
      R"("summary":{"app_runtime_cycles":9},)";
  const std::string V5Head =
      R"({"schema":"cheetah-report-v5","run":{"workload":"w","threads":2,)"
      R"("fix_applied":false,"granularity":"both"},)"
      R"("summary":{"app_runtime_cycles":9},)";
  const std::string V6Head =
      R"({"schema":"cheetah-report-v6","run":{"workload":"w","threads":2,)"
      R"("fix_applied":false,"granularity":"both"},)"
      R"("summary":{"app_runtime_cycles":9},)";
  const std::string Line =
      R"({"object":{"kind":"global","name":"g"},"sharing":"false-sharing",)"
      R"("significant":true,"accesses":5,"invalidations":1})";
  const std::string Page =
      R"({"objects":["a","b"],"sharing":"true-sharing","significant":false,)"
      R"("accesses":5,"invalidations":1,"remote_accesses":2})";
  const std::string DiffHead =
      R"({"schema":"cheetah-diff-v1","new":{"workload":"w","threads":2,)"
      R"("fix_applied":true,"granularity":"page","app_runtime_cycles":3},)";
  const std::string Cases[] = {
      "", "[]", "5", "{}", "{} x", "[1,}", R"({"schema":1})",
      R"({"schema":"cheetah-report-v4"})",
      R"({"schema":"cheetah-report-v7"})",
      // Semantic errors lose to a syntax error later in the document.
      R"({"schema":"cheetah-report-v1","findings":[} )",
      // The schema outranks everything, wherever it sits.
      R"({"findings":[5],"pageFindings":{},"schema":"cheetah-report-v3"})",
      Head + R"("findings":[],"pageFindings":[]})",
      Head + R"("findings":[],"pageFindings":[],"summary":5})",
      R"({"schema":"cheetah-report-v4","run":{"workload":"w","threads":2,)"
      R"("fix_applied":false,"granularity":"line"},"findings":[],)"
      R"("pageFindings":[]})",
      R"({"schema":"cheetah-report-v4","run":{"workload":"w","threads":2,)"
      R"("fix_applied":false,"granularity":"line"},"summary":{},)"
      R"("findings":[],"pageFindings":[]})",
      R"({"schema":"cheetah-report-v4","run":{"workload":"w","threads":1e20,)"
      R"("fix_applied":false,"granularity":"line"}})",
      Head + R"("findings":{},"pageFindings":[]})",
      Head + R"("findings":[],"findings":5,"pageFindings":[]})",
      Head + R"("findings":[1,{}],"pageFindings":[]})",
      Head + R"("findings":[)" + Line + "," + Line + R"(],"pageFindings":[]})",
      // v5 tables and their totals, well-formed or not, are read past.
      V5Head + R"("findings":[{"object":{"kind":"global","name":"g"},)"
               R"("sharing":"s","significant":true,"accesses":5,)"
               R"("invalidations":1,"words_total":40,"words":[{"offset":0,)"
               R"("reads":1,"writes":2}]}],"pageFindings":[{"objects":["a"],)"
               R"("sharing":"s","significant":true,"accesses":1,)"
               R"("invalidations":0,"remote_accesses":0,"lines_total":"x",)"
               R"("lines":5}]})",
      // v6 tables of insignificant findings are empty beside their totals.
      V6Head + R"("findings":[{"object":{"kind":"global","name":"g"},)"
               R"("sharing":"s","significant":false,"accesses":5,)"
               R"("invalidations":1,"words_total":40,"words":[]}],)"
               R"("pageFindings":[{"objects":["a"],"sharing":"s",)"
               R"("significant":false,"accesses":1,"invalidations":0,)"
               R"("remote_accesses":0,"lines_total":3,"lines":[]}]})",
      Head + R"("findings":[{"object":{"kind":"range","name":""},)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0}],"pageFindings":[]})",
      Head + R"("findings":[{"object":{"kind":"range","name":"","start":4096},)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0,"predictedImprovement":"x",)"
             R"("assessment":{"improvement_factor":1.25}}],"pageFindings":[]})",
      Head + R"("findings":[{"object":{"kind":"heap","name":"f:1"},)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0,"assessment":{"improvement_factor":"y"}}],)"
             R"("pageFindings":[]})",
      Head + R"("findings":[)" + Line + R"(],"pageFindings":[)" + Page + "," +
          Page + "]}",
      Head + R"("findings":[],"pageFindings":[{"objects":[],"page":1e999,)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0,"remote_accesses":0}]})",
      Head + R"("findings":[],"pageFindings":[{"objects":["",""],"page":64,)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0,"remote_accesses":0}]})",
      Head + R"("findings":[],"pageFindings":[{"objects":["a",7],)"
             R"("sharing":"s"}]})",
      Head + R"("findings":[],"pageFindings":[{"objects":["a"],)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0,"remote_accesses":0,)"
             R"("remote_by_distance":{}}]})",
      Head + R"("findings":[],"pageFindings":[{"objects":["a"],)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0,"remote_accesses":0,"remote_by_distance":)"
             R"([{"distance":20,"accesses":1,"cycles":2},5,)"
             R"({"distance":4294967296,"accesses":1,"cycles":2}]}]})",
      Head + R"("findings":[],"pageFindings":[{"objects":["a"],)"
             R"("sharing":"s","significant":true,"accesses":1,)"
             R"("invalidations":0,"remote_accesses":0,"remote_by_distance":)"
             R"([{"distance":4294967296,"accesses":1,"cycles":2}]}]})",
      DiffHead + R"("findings":{"added":[],"matched":[]},)"
                 R"("pageFindings":{"added":[],"matched":[]}})",
      DiffHead + R"("findings":[],"pageFindings":{"added":[],"matched":[]}})",
      DiffHead + R"("findings":{"added":[]},"pageFindings":{}})",
      R"({"schema":"cheetah-diff-v1","new":{"workload":"w"}})",
      R"({"schema":"cheetah-diff-v1","new":[]})",
      DiffHead + R"("findings":{"added":[{"key":"k","sharing":"s",)"
                 R"("significant":true,"accesses":1,"invalidations":2,)"
                 R"("predictedImprovement":"z"}],"matched":[5]},)"
                 R"("pageFindings":{"added":[],"matched":[]}})",
      DiffHead + R"("findings":{"added":[],"matched":[{"key":"k",)"
                 R"("new_significant":true,"new_improvement":2.5},)"
                 R"({"key":"q","new_significant":false,"new_improvement":[]}]},)"
                 R"("pageFindings":{"added":[],"matched":[]}})",
      DiffHead + R"("findings":{"added":[],"matched":[]},)"
                 R"("pageFindings":{"added":[{"key":"p","sharing":"s",)"
                 R"("significant":true,"accesses":1,"invalidations":2}],)"
                 R"("matched":[]}})",
  };
  for (const std::string &Text : Cases) {
    reportParsersAgree(Text);
    runDocumentParsersAgree(Text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReportDiffFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

//===----------------------------------------------------------------------===//
// ReportHistory::parse under fuzz: loud errors, never a crash
//===----------------------------------------------------------------------===//

/// A small but real multi-run history store: 2-4 fuzz reports appended
/// in sequence through the production append path.
std::string renderFuzzHistory(SplitMix64 &Rng) {
  core::ReportHistory History;
  size_t Runs = 2 + Rng.nextBelow(3);
  for (size_t I = 0; I < Runs; ++I) {
    std::string Text = renderFuzzReport(Rng);
    core::ParsedReport Report;
    std::string Error;
    EXPECT_TRUE(core::parseReport(Text, Report, Error)) << Error;
    EXPECT_TRUE(
        History.appendRun(Report, "run-" + std::to_string(I), Error))
        << Error;
  }
  return History.serialize();
}

class HistoryStoreFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoryStoreFuzzTest, HostileStoreInputNeverCrashes) {
  SplitMix64 Rng(GetParam() ^ 0x4157);
  for (int Doc = 0; Doc < 6; ++Doc) {
    std::string Text = renderFuzzHistory(Rng);

    // The pristine store parses and re-serializes byte-identically.
    core::ReportHistory Store;
    std::string Error;
    ASSERT_TRUE(core::ReportHistory::parse(Text, Store, Error)) << Error;
    EXPECT_EQ(Store.serialize(), Text);

    // Truncated, mutated and hostile stores: error or parse, never a
    // crash, and a failure always says why.
    auto Parse = [&](const std::string &Variant) {
      core::ReportHistory Parsed;
      bool Ok = core::ReportHistory::parse(Variant, Parsed, Error);
      if (!Ok) {
        EXPECT_FALSE(Error.empty());
        EXPECT_TRUE(Parsed.runs().empty() && Parsed.series().empty());
      }
      return Ok;
    };
    for (size_t Cut = 0; Cut < Text.size(); Cut += 7)
      Parse(Text.substr(0, Cut));
    for (int Mutation = 0; Mutation < 60; ++Mutation)
      Parse(mutate(Text, Rng));
    // Another writer's layout of the same store reads back as the store.
    JsonVariantWriter Benign(Rng), Hostile(Rng, /*Hostile=*/true);
    for (int Variant = 0; Variant < 3; ++Variant) {
      std::string Layout = Benign.write(Text);
      core::ReportHistory Relaid;
      ASSERT_TRUE(core::ReportHistory::parse(Layout, Relaid, Error))
          << Error << "\n" << Layout.substr(0, 600);
      EXPECT_EQ(Relaid.serialize(), Text);
      for (int Attack = 0; Attack < 10; ++Attack)
        Parse(Hostile.write(Text));
    }

    // Version mismatches fail loudly by name.
    for (const char *Schema : {"cheetah-history-v0", "cheetah-report-v4"}) {
      std::string Mismatched = Text;
      size_t Pos = Mismatched.find("cheetah-history-v1");
      ASSERT_NE(Pos, std::string::npos);
      Mismatched.replace(Pos, 18, Schema);
      core::ReportHistory Rejected;
      EXPECT_FALSE(core::ReportHistory::parse(Mismatched, Rejected, Error));
      EXPECT_NE(Error.find("unsupported schema"), std::string::npos);
    }

    // Duplicate run ids injected into an otherwise valid store.
    size_t Id = Text.find("\"id\":\"run-1\"");
    ASSERT_NE(Id, std::string::npos);
    std::string Duplicated = Text;
    Duplicated.replace(Id, std::string("\"id\":\"run-1\"").size(),
                       "\"id\":\"run-0\"");
    core::ReportHistory Rejected;
    EXPECT_FALSE(core::ReportHistory::parse(Duplicated, Rejected, Error));
    EXPECT_NE(Error.find("duplicate run id"), std::string::npos);
  }
}

/// Run \p RunIndex of a random history sequence, built as parseRunDocument
/// would leave it: each key of a fixed pool of eight line and eight page
/// sites appears with its own probability, so some series persist, some
/// come and go, and two leave for good after run 3. Page findings
/// sometimes carry distance buckets; some findings carry no sharing
/// string, as a diff's matched entries do.
core::ParsedReport randomHistoryRun(SplitMix64 &Rng, size_t RunIndex) {
  core::ParsedReport Run;
  Run.Schema = "cheetah-report-v6";
  Run.Workload = "fuzz";
  Run.Threads = 4;
  Run.Granularity = "both";
  Run.AppRuntimeCycles = Rng.nextBelow(1000000);
  for (size_t Site = 0; Site < 16; ++Site) {
    bool IsPage = Site >= 8;
    double Presence = Site % 8 == 0 ? (RunIndex < 3 ? 0.9 : 0.0)
                                    : 0.2 + 0.1 * static_cast<double>(Site % 8);
    if (!Rng.nextBool(Presence))
      continue;
    core::DiffFinding Finding;
    Finding.Key = std::string(IsPage ? "page:o" : "line:global:g") +
                  std::to_string(Site % 8) + "#0";
    Finding.IsPage = IsPage;
    Finding.Sharing = Rng.nextBool(0.2) ? "" : "false-sharing";
    Finding.Significant = Rng.nextBool(0.5);
    Finding.HasImprovement = Rng.nextBool(0.9);
    if (Finding.HasImprovement)
      Finding.Improvement = 1.0 + Rng.nextDouble();
    Finding.Accesses = Rng.nextBelow(100000);
    Finding.Invalidations = Rng.nextBelow(5000);
    if (IsPage) {
      Finding.RemoteAccesses = Rng.nextBelow(50000);
      for (size_t B = Rng.nextBelow(3); B > 0; --B)
        Finding.RemoteByDistance.push_back(
            {static_cast<uint32_t>(10 * B + 10), Rng.nextBelow(1000),
             Rng.nextBelow(50000)});
    }
    (IsPage ? Run.PageFindings : Run.Findings).push_back(std::move(Finding));
  }
  return Run;
}

TEST_P(HistoryStoreFuzzTest, AppendsAndReloadsMatchTheWholeStoreReference) {
  SplitMix64 Rng(GetParam() ^ 0x7E87);
  std::string Error;
  for (int Sequence = 0; Sequence < 8; ++Sequence) {
    // Live is never reloaded. Resumed is re-parsed from its own bytes now
    // and then, as a restarted daemon or one cheetah-trend process per run
    // would: its series keep no point text until an append touches them.
    core::ReportHistory Live, Resumed;
    size_t Runs = 2 + Rng.nextBelow(14);
    for (size_t I = 0; I < Runs; ++I) {
      if (I > 0 && Rng.nextBool(0.4)) {
        std::string Text = Resumed.serialize();
        ASSERT_TRUE(core::ReportHistory::parse(Text, Resumed, Error))
            << Error;
        EXPECT_EQ(Resumed.serialize(), Text);
      }
      core::ParsedReport Run = randomHistoryRun(Rng, I);
      test::LedgerCounts Expected = test::referenceLedger(Live, Run);
      std::string Id = "run-" + std::to_string(I);
      ASSERT_TRUE(Live.appendRun(Run, Id, Error)) << Error;
      ASSERT_TRUE(Resumed.appendRun(Run, Id, Error)) << Error;
      EXPECT_EQ(test::ledgerOf(Live.runs().back()), Expected) << Id;
      std::string Text = Live.serialize();
      EXPECT_EQ(Text, test::referenceSerialize(Live)) << Id;
      EXPECT_EQ(Resumed.serialize(), Text) << Id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryStoreFuzzTest,
                         ::testing::Range<uint64_t>(1, 5));

//===----------------------------------------------------------------------===//
// TraceData::parse under fuzz, against a tree-based reference
//===----------------------------------------------------------------------===//

/// The tree-based reading of a cheetah-trace-v1 document that the
/// single-pass decoder replaced: the whole document into a JsonValue, then
/// each field through the kind-checked jsonField* accessors. It is the
/// oracle for TraceData::parse — same accepted documents, same values,
/// same error string.
bool referenceTraceParse(const std::string &Text, pmu::TraceData &Out,
                         std::string &Error) {
  JsonValue Root;
  if (!JsonValue::parse(Text, Root, Error))
    return false;
  if (!Root.isObject()) {
    Error = "trace document is not a JSON object";
    return false;
  }

  std::string Schema;
  if (!jsonFieldString(Root, "schema", Schema, Error))
    return false;
  if (Schema != "cheetah-trace-v1") {
    Error = "unsupported schema '" + Schema + "' (expected cheetah-trace-v1)";
    return false;
  }

  pmu::TraceData Parsed;
  if (!jsonFieldUint(Root, "sampling_period", Parsed.SamplingPeriod, Error) ||
      !jsonFieldUint(Root, "run_cycles", Parsed.RunCycles, Error))
    return false;
  if (Parsed.SamplingPeriod < 1) {
    Error = "sampling_period must be at least 1";
    return false;
  }

  const JsonValue *Events = Root.find("events");
  if (!Events || !Events->isArray()) {
    Error = "missing or non-array 'events'";
    return false;
  }

  for (size_t I = 0; I < Events->elements().size(); ++I) {
    const JsonValue &Node = Events->elements()[I];
    std::string At = "event " + std::to_string(I) + ": ";
    if (!Node.isObject()) {
      Error = At + "not a JSON object";
      return false;
    }
    std::string Kind;
    if (!jsonFieldString(Node, "k", Kind, Error)) {
      Error = At + Error;
      return false;
    }

    pmu::TraceEvent Event;
    uint64_t Tid = 0, Time = 0;
    if (Kind == "ts" || Kind == "te") {
      Event.K = Kind == "ts" ? pmu::TraceEvent::Kind::ThreadStart
                             : pmu::TraceEvent::Kind::ThreadEnd;
      if (!jsonFieldUint(Node, "tid", Tid, Error) ||
          !jsonFieldBool(Node, "main", Event.IsMain, Error) ||
          !jsonFieldUint(Node, "t", Time, Error)) {
        Error = At + Error;
        return false;
      }
    } else if (Kind == "s") {
      Event.K = pmu::TraceEvent::Kind::SamplePoint;
      uint64_t Latency = 0;
      if (!jsonFieldUint(Node, "a", Event.Address, Error) ||
          !jsonFieldUint(Node, "tid", Tid, Error) ||
          !jsonFieldBool(Node, "w", Event.IsWrite, Error) ||
          !jsonFieldUint(Node, "l", Latency, Error) ||
          !jsonFieldUint(Node, "t", Time, Error)) {
        Error = At + Error;
        return false;
      }
      if (Latency > UINT32_MAX) {
        Error = At + "latency exceeds 32 bits";
        return false;
      }
      Event.LatencyCycles = static_cast<uint32_t>(Latency);
    } else {
      Error = At + "unknown event kind '" + Kind + "'";
      return false;
    }
    if (Tid > UINT32_MAX) {
      Error = At + "tid exceeds 32 bits";
      return false;
    }
    Event.Tid = static_cast<ThreadId>(Tid);
    Event.Time = Time;
    Parsed.Events.push_back(Event);
  }

  Out = std::move(Parsed);
  return true;
}

/// Parses \p Text with TraceData::parse and the reference, and expects the
/// two to agree on acceptance, on every decoded field and on the error
/// string. \returns whether TraceData::parse accepted it.
bool parsersAgree(const std::string &Text) {
  pmu::TraceData Fast, Reference;
  std::string FastError, ReferenceError;
  bool FastOk = pmu::TraceData::parse(Text, Fast, FastError);
  bool ReferenceOk = referenceTraceParse(Text, Reference, ReferenceError);
  EXPECT_EQ(FastOk, ReferenceOk) << "document: " << Text.substr(0, 400);
  EXPECT_EQ(FastError, ReferenceError) << "document: " << Text.substr(0, 400);
  EXPECT_EQ(Fast.SamplingPeriod, Reference.SamplingPeriod);
  EXPECT_EQ(Fast.RunCycles, Reference.RunCycles);
  EXPECT_TRUE(Fast.Events == Reference.Events)
      << "document: " << Text.substr(0, 400);
  if (!FastOk) {
    EXPECT_FALSE(FastError.empty());
  }
  return FastOk;
}

/// A small but real trace: a main-thread lifecycle bracketing a random
/// mix of child lifecycles and sample points.
pmu::TraceData makeFuzzTrace(SplitMix64 &Rng) {
  pmu::TraceData Data;
  Data.SamplingPeriod = 1 + Rng.nextBelow(1 << 16);
  Data.RunCycles = Rng.nextBelow(1 << 30);
  pmu::TraceEvent Main;
  Main.K = pmu::TraceEvent::Kind::ThreadStart;
  Main.IsMain = true;
  Data.Events.push_back(Main);
  size_t Events = 1 + Rng.nextBelow(40);
  for (size_t I = 0; I < Events; ++I) {
    pmu::TraceEvent Event;
    Event.Tid = static_cast<ThreadId>(Rng.nextBelow(16));
    Event.Time = Rng.nextBelow(1 << 30);
    switch (Rng.nextBelow(4)) {
    case 0:
      Event.K = pmu::TraceEvent::Kind::ThreadStart;
      break;
    case 1:
      Event.K = pmu::TraceEvent::Kind::ThreadEnd;
      break;
    default:
      Event.K = pmu::TraceEvent::Kind::SamplePoint;
      Event.Address = 0x100000 + Rng.nextBelow(1 << 20);
      Event.IsWrite = Rng.nextBool(0.5);
      Event.LatencyCycles = static_cast<uint32_t>(Rng.nextBelow(500));
      break;
    }
    Data.Events.push_back(Event);
  }
  pmu::TraceEvent End;
  End.K = pmu::TraceEvent::Kind::ThreadEnd;
  End.IsMain = true;
  End.Time = Data.RunCycles;
  Data.Events.push_back(End);
  return Data;
}

class TraceFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceFuzzTest, HostileTraceInputNeverCrashes) {
  SplitMix64 Rng(GetParam() ^ 0x7ACE);
  for (int Doc = 0; Doc < 8; ++Doc) {
    pmu::TraceData Data = makeFuzzTrace(Rng);
    std::string Text = Data.serialize();

    // The pristine trace parses and re-serializes byte-identically.
    pmu::TraceData Trace;
    std::string Error;
    ASSERT_TRUE(pmu::TraceData::parse(Text, Trace, Error)) << Error;
    EXPECT_EQ(Trace.serialize(), Text);
    EXPECT_TRUE(parsersAgree(Text));

    // Truncations at every bounded prefix: error, never crash.
    for (size_t Cut = 0; Cut < Text.size(); Cut += 7)
      parsersAgree(Text.substr(0, Cut));
    // Random byte mutations: error or parse, never a crash.
    for (int Mutation = 0; Mutation < 60; ++Mutation)
      parsersAgree(mutate(Text, Rng));

    // Version mismatches fail loudly by name.
    for (const char *Schema : {"cheetah-trace-v0", "cheetah-report-v4"}) {
      std::string Mismatched = Text;
      size_t Pos = Mismatched.find("cheetah-trace-v1");
      ASSERT_NE(Pos, std::string::npos);
      Mismatched.replace(Pos, 16, Schema);
      EXPECT_FALSE(parsersAgree(Mismatched));
      pmu::TraceData Rejected;
      EXPECT_FALSE(pmu::TraceData::parse(Mismatched, Rejected, Error));
      EXPECT_NE(Error.find("unsupported schema"), std::string::npos);
    }
  }
}

TEST_P(TraceFuzzTest, ParserMatchesTheTreeReferenceOnAnyLayout) {
  SplitMix64 Rng(GetParam() ^ 0x1A70);
  JsonVariantWriter Writer(Rng), Hostile(Rng, /*Hostile=*/true);
  for (int Doc = 0; Doc < 8; ++Doc) {
    pmu::TraceData Data = makeFuzzTrace(Rng);
    // Dropped members and junk values (fractions, 1e20, 2^64...) must
    // fail, or read, alike.
    for (int Attack = 0; Attack < 10; ++Attack)
      parsersAgree(Hostile.write(Data.serialize()));
    for (int Variant = 0; Variant < 4; ++Variant) {
      std::string Text = Writer.write(Data.serialize());
      // Layout does not matter: the variant reads back as the data.
      pmu::TraceData Parsed;
      std::string Error;
      ASSERT_TRUE(pmu::TraceData::parse(Text, Parsed, Error))
          << Error << "\ndocument: " << Text.substr(0, 400);
      EXPECT_EQ(Parsed.SamplingPeriod, Data.SamplingPeriod);
      EXPECT_EQ(Parsed.RunCycles, Data.RunCycles);
      EXPECT_TRUE(Parsed.Events == Data.Events);
      EXPECT_EQ(Parsed.serialize(), Data.serialize());
      EXPECT_TRUE(parsersAgree(Text));

      for (size_t Cut = 0; Cut < Text.size(); Cut += 11)
        parsersAgree(Text.substr(0, Cut));
      for (int Mutation = 0; Mutation < 40; ++Mutation) {
        std::string Mutated = mutate(Text, Rng);
        for (int More = Rng.nextBelow(3); More > 0; --More)
          Mutated = mutate(Mutated, Rng);
        parsersAgree(Mutated);
      }
    }
  }
}

TEST(TraceFuzzTest, ParserMatchesTheTreeReferenceOnHandWrittenCases) {
  const std::string Head =
      R"({"schema":"cheetah-trace-v1","sampling_period":64,"run_cycles":9,)";
  const std::string Cases[] = {
      "", "[]", "5", "\"x\"", "{}", "{} x", "[1,}",
      R"({"schema":1})",
      R"({"schema":"cheetah-trace-v1"})",
      R"({"events":[],"schema":"cheetah-trace-v1","sampling_period":1})",
      R"({"schema":"cheetah-trace-v1","sampling_period":-1,"run_cycles":1})",
      R"({"schema":"cheetah-trace-v1","sampling_period":1e20,"run_cycles":1})",
      R"({"schema":"cheetah-trace-v1","sampling_period":1,"run_cycles":1e999})",
      R"({"schema":"cheetah-trace-v1","sampling_period":0.5,"run_cycles":1,"events":[]})",
      // Semantic errors lose to a syntax error later in the document.
      R"({"schema":"cheetah-trace-v2","sampling_period":1,"run_cycles":1,"events":[} )",
      // The header outranks a bad event, wherever the header sits.
      R"({"events":[{"k":"zz"}],"schema":"cheetah-trace-v1","run_cycles":1})",
      Head + R"("events":{}})",
      Head + R"("events":[],"events":5})",
      Head + R"("events":5,"events":[]})",
      Head + R"("events":[1]})",
      Head + R"("events":[{"k":"zz"},{"k":"s"}]})",
      Head + R"("events":[{"k":5}]})",
      Head + R"("events":[{"k":"s","k":"ts","a":1,"tid":2,"w":true,"l":3,"t":4}]})",
      Head + R"("events":[{"k":"ts","k":"s","tid":2,"main":false,"t":4}]})",
      Head + R"("events":[{"k":"ts","tid":2,"main":1,"t":4}]})",
      Head + R"("events":[{"k":"s","a":-0,"tid":2,"w":true,"l":3,"t":4.9}]})",
      Head + R"("events":[{"k":"s","a":1,"tid":1e20,"w":true,"l":3,"t":4}]})",
      Head + R"("events":[{"k":"s","a":1,"tid":2,"w":true,"l":3,"t":1e999}]})",
      Head + R"("events":[{"k":"s","a":18446744073709551615,"tid":2,"w":true,"l":3,"t":4}]})",
      Head + R"("events":[{"k":"s","a":18446744073709549568,"tid":2,"w":true,"l":3,"t":4}]})",
      Head + R"("events":[{"k":"s","a":1,"tid":4294967296,"w":true,"l":3,"t":4}]})",
      Head + R"("events":[{"k":"s","a":1,"tid":2,"w":true,"l":4294967296,"t":4}]})",
      Head + R"("events":[{"k":"s","a":1,"tid":2,"w":true,"l":-3,"t":4}]})",
      Head + R"("events":[{"k":"te","tid":1,"main":true,"t":2,"a":"junk"}]})",
      Head + R"("events":[{"k":"s","a":1,"tid":2,"w":true,"l":3,"t":4}],"x":[}]})",
      Head + R"("events":[{"k":"q\u00e9","a":1}]})",
  };
  for (const std::string &Text : Cases)
    parsersAgree(Text);
}

/// A trace whose lifecycle replay accepts: the main thread starts first,
/// children start in tid order and end in a random order, the main thread
/// ends last, and samples from started threads fall in between.
pmu::TraceData makeLifecycleTrace(SplitMix64 &Rng, uint64_t HeapBase) {
  pmu::TraceData Data;
  Data.SamplingPeriod = 64;
  uint64_t Now = 0;
  auto Lifecycle = [&](pmu::TraceEvent::Kind K, ThreadId Tid) {
    pmu::TraceEvent Event;
    Event.K = K;
    Event.Tid = Tid;
    Event.IsMain = Tid == 0;
    Event.Time = Now += 1 + Rng.nextBelow(1000);
    Data.Events.push_back(Event);
  };
  auto Samples = [&](ThreadId Threads) {
    for (uint64_t N = Rng.nextBelow(6); N > 0; --N) {
      pmu::TraceEvent Event;
      Event.K = pmu::TraceEvent::Kind::SamplePoint;
      Event.Tid = static_cast<ThreadId>(Rng.nextBelow(Threads));
      Event.Time = Now;
      Event.Address = HeapBase + Rng.nextBelow(4096);
      Event.IsWrite = Rng.nextBool(0.5);
      Event.LatencyCycles = static_cast<uint32_t>(Rng.nextBelow(500));
      Data.Events.push_back(Event);
    }
  };
  ThreadId Children = static_cast<ThreadId>(1 + Rng.nextBelow(4));
  Lifecycle(pmu::TraceEvent::Kind::ThreadStart, 0);
  Samples(1);
  for (ThreadId Tid = 1; Tid <= Children; ++Tid)
    Lifecycle(pmu::TraceEvent::Kind::ThreadStart, Tid);
  Samples(Children + 1);
  std::vector<ThreadId> Ends;
  for (ThreadId Tid = 1; Tid <= Children; ++Tid)
    Ends.insert(Ends.begin() + Rng.nextBelow(Ends.size() + 1), Tid);
  for (ThreadId Tid : Ends) {
    Lifecycle(pmu::TraceEvent::Kind::ThreadEnd, Tid);
    Samples(Children + 1);
  }
  Lifecycle(pmu::TraceEvent::Kind::ThreadEnd, 0);
  Data.RunCycles = Now;
  return Data;
}

/// One lifecycle mutation: duplicate, drop, swap with any event, or
/// retime a thread start or end.
void mutateLifecycle(pmu::TraceData &Data, SplitMix64 &Rng) {
  std::vector<size_t> Edges;
  for (size_t I = 0; I < Data.Events.size(); ++I)
    if (Data.Events[I].K != pmu::TraceEvent::Kind::SamplePoint)
      Edges.push_back(I);
  if (Edges.empty())
    return;
  size_t Edge = Edges[Rng.nextBelow(Edges.size())];
  std::vector<pmu::TraceEvent> &Events = Data.Events;
  switch (Rng.nextBelow(4)) {
  case 0:
    Events.insert(Events.begin() + Rng.nextBelow(Events.size() + 1),
                  Events[Edge]);
    break;
  case 1:
    Events.erase(Events.begin() + Edge);
    break;
  case 2:
    std::swap(Events[Edge], Events[Rng.nextBelow(Events.size())]);
    break;
  default:
    Events[Edge].Time = Rng.nextBelow(Data.RunCycles + 1);
    break;
  }
}

TEST_P(TraceFuzzTest, HostileLifecycleIsRejectedOrReplayedNeverAborts) {
  SplitMix64 Rng(GetParam() ^ 0x11FE);
  auto Workload = workloads::createWorkload("histogram");
  ASSERT_NE(Workload, nullptr);
  driver::SessionConfig Config;
  Config.Workload.Threads = 2;
  Config.Backend = driver::SampleBackend::TraceReplay;
  Config.ReplayTracePath =
      ::testing::TempDir() + "lifecycle_fuzz_" +
      std::to_string(GetParam()) + ".trace";
  size_t Rejected = 0, Replayed = 0;
  for (int Doc = 0; Doc < 24; ++Doc) {
    pmu::TraceData Data = makeLifecycleTrace(Rng, core::HeapArenaBase);
    // The pristine trace first, then one to three mutations of it.
    int Mutations = Doc % 4;
    for (int M = 0; M < Mutations; ++M)
      mutateLifecycle(Data, Rng);
    std::string Error;
    ASSERT_TRUE(writeFile(Config.ReplayTracePath, Data.serialize(), Error))
        << Error;
    // An abort here takes the whole binary down: the verdict is only ever
    // "replayed" or "rejected with the offending event named".
    driver::SessionResult Result;
    if (driver::runSession(*Workload, Config, nullptr, Result, Error)) {
      ++Replayed;
      continue;
    }
    ++Rejected;
    EXPECT_NE(Mutations, 0) << "a pristine trace was rejected: " << Error;
    EXPECT_TRUE(Error.find("': event ") != std::string::npos ||
                Error.find("no main-thread start") != std::string::npos)
        << Error;
  }
  // Both verdicts must occur, or the mutations test nothing.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzzTest,
                         ::testing::Range<uint64_t>(1, 5));

//===----------------------------------------------------------------------===//
// Batched per-grain runs vs the per-sample reference, on a hot address pool
//===----------------------------------------------------------------------===//

void expectGrainsMatch(const core::GrainSnapshot &Got,
                       const core::GrainSnapshot &Want,
                       const std::string &Grain) {
  EXPECT_EQ(Got.Accesses, Want.Accesses) << Grain;
  EXPECT_EQ(Got.Writes, Want.Writes) << Grain;
  EXPECT_EQ(Got.Cycles, Want.Cycles) << Grain;
  EXPECT_EQ(Got.Invalidations, Want.Invalidations) << Grain;
  ASSERT_EQ(Got.Buckets.size(), Want.Buckets.size()) << Grain;
  for (size_t B = 0; B < Want.Buckets.size(); ++B) {
    const core::WordStats &G = Got.Buckets[B], &W = Want.Buckets[B];
    EXPECT_EQ(G.Reads, W.Reads) << Grain << " bucket " << B;
    EXPECT_EQ(G.Writes, W.Writes) << Grain << " bucket " << B;
    EXPECT_EQ(G.Cycles, W.Cycles) << Grain << " bucket " << B;
    EXPECT_EQ(G.FirstThread, W.FirstThread) << Grain << " bucket " << B;
    EXPECT_EQ(G.MultiThread, W.MultiThread) << Grain << " bucket " << B;
  }
  ASSERT_EQ(Got.Threads.size(), Want.Threads.size()) << Grain;
  for (size_t T = 0; T < Want.Threads.size(); ++T) {
    EXPECT_EQ(Got.Threads[T].Tid, Want.Threads[T].Tid) << Grain;
    EXPECT_EQ(Got.Threads[T].Accesses, Want.Threads[T].Accesses) << Grain;
    EXPECT_EQ(Got.Threads[T].Cycles, Want.Threads[T].Cycles) << Grain;
  }
}

class GrainRunFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GrainRunFuzzTest, HandleBatchMatchesPerSampleReferenceOnAHotPool) {
  // Batches drawn mostly from a small pool of hot addresses, so most
  // grains repeat within a chunk and take the batch pipeline's per-grain
  // run path; the rest are cold singletons, uncovered samples, and serial
  // batches that only count writes and publish homes. Default thresholds
  // make grains materialize mid-chunk, several tids per batch span all
  // four nodes of an asymmetric topology (remote samples at three
  // distances), and access widths up to 32 bytes mark several words. The
  // batch detector must end field for field where the per-sample
  // reference fed the same stream ends.
  constexpr uint64_t PageBytes = 4096;
  constexpr uint64_t Pages = 8;
  constexpr uint64_t Base = 0x4000'0000;
  NumaTopologySpec Spec;
  Spec.Nodes = 4;
  Spec.Distances = {{0, 16, 32, 48}, {16, 0, 48, 32}, {32, 48, 0, 16},
                    {48, 32, 16, 0}};
  NumaTopology Topology;
  std::string Error;
  ASSERT_TRUE(NumaTopology::fromSpec(Spec, Topology, Error)) << Error;
  CacheGeometry Geometry(64);
  core::DetectorConfig Config;
  Config.TrackPages = true;

  struct Tables {
    core::ShadowMemory Shadow;
    core::PageTable Table;
    Tables(const CacheGeometry &Geometry, const NumaTopology &Topology)
        : Shadow(Geometry, {{Base, Pages * PageBytes}}),
          Table(Topology, Geometry, {{Base, Pages * PageBytes}}) {}
  };
  Tables Want(Geometry, Topology), Got(Geometry, Topology);
  test::PerSampleReference Reference(Want.Shadow, Config);
  Reference.attachPageTable(Want.Table, Topology);
  core::Detector Detect(Geometry, Got.Shadow, Config);
  Detect.attachPageTable(Got.Table, Topology);

  SplitMix64 Rng(GetParam() ^ 0x6A41);
  std::vector<uint64_t> Pool(4 + Rng.nextBelow(12));
  for (uint64_t &Address : Pool)
    Address = Base + Rng.nextBelow(Pages * PageBytes);
  const uint8_t Widths[] = {1, 4, 8, 16, 32};
  for (int Round = 0; Round < 40; ++Round) {
    bool Parallel = Round >= 3 && !Rng.nextBool(0.1);
    uint8_t AccessBytes = Widths[Rng.nextBelow(5)];
    std::vector<pmu::Sample> Batch(1 + Rng.nextBelow(600));
    for (pmu::Sample &Sample : Batch) {
      double Draw = Rng.nextDouble();
      Sample.Address = Draw < 0.75   ? Pool[Rng.nextBelow(Pool.size())]
                       : Draw < 0.95 ? Base + Rng.nextBelow(Pages * PageBytes)
                                     : Rng.nextBelow(Base);
      Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(8));
      Sample.IsWrite = Rng.nextBool(0.5);
      Sample.LatencyCycles = 5 + static_cast<uint32_t>(Rng.nextBelow(100));
    }
    for (const pmu::Sample &Sample : Batch)
      Reference.handleSample(Sample, Parallel, AccessBytes);
    Detect.handleBatch(Batch.data(), Batch.size(), Parallel, AccessBytes);
    core::DetectorStats WantSoFar = Reference.stats();
    core::DetectorStats GotSoFar = Detect.stats();
    EXPECT_EQ(GotSoFar.SamplesRecorded, WantSoFar.SamplesRecorded)
        << "round " << Round;
    EXPECT_EQ(GotSoFar.PageSamplesRecorded, WantSoFar.PageSamplesRecorded)
        << "round " << Round;
  }

  core::DetectorStats WantStats = Reference.stats();
  core::DetectorStats GotStats = Detect.stats();
  EXPECT_GT(WantStats.Invalidations, 0u);
  EXPECT_GT(WantStats.RemoteSamples, 0u);
  EXPECT_EQ(GotStats.SamplesSeen, WantStats.SamplesSeen);
  EXPECT_EQ(GotStats.SamplesFiltered, WantStats.SamplesFiltered);
  EXPECT_EQ(GotStats.SamplesRecorded, WantStats.SamplesRecorded);
  EXPECT_EQ(GotStats.Invalidations, WantStats.Invalidations);
  EXPECT_EQ(GotStats.PageSamplesRecorded, WantStats.PageSamplesRecorded);
  EXPECT_EQ(GotStats.PageInvalidations, WantStats.PageInvalidations);
  EXPECT_EQ(GotStats.RemoteSamples, WantStats.RemoteSamples);
  EXPECT_EQ(Got.Shadow.materializedLines(), Want.Shadow.materializedLines());
  EXPECT_EQ(Got.Table.materializedPages(), Want.Table.materializedPages());

  for (uint64_t Line = Base; Line < Base + Pages * PageBytes; Line += 64) {
    std::string Where = "line +" + std::to_string(Line - Base);
    EXPECT_EQ(Got.Shadow.writeCount(Line), Want.Shadow.writeCount(Line))
        << Where;
    const core::CacheLineInfo *W = Want.Shadow.detail(Line);
    const core::CacheLineInfo *G = Got.Shadow.detail(Line);
    ASSERT_EQ(G != nullptr, W != nullptr) << Where;
    if (W)
      expectGrainsMatch(G->snapshot(Line), W->snapshot(Line), Where);
  }
  for (uint64_t Page = Base; Page < Base + Pages * PageBytes;
       Page += PageBytes) {
    std::string Where = "page +" + std::to_string(Page - Base);
    EXPECT_EQ(Got.Table.homeNode(Page), Want.Table.homeNode(Page)) << Where;
    EXPECT_EQ(Got.Table.writeCount(Page), Want.Table.writeCount(Page))
        << Where;
    const core::PageInfo *W = Want.Table.detail(Page);
    const core::PageInfo *G = Got.Table.detail(Page);
    ASSERT_EQ(G != nullptr, W != nullptr) << Where;
    if (!W)
      continue;
    expectGrainsMatch(G->snapshot(Page), W->snapshot(Page), Where);
    core::PageNumaEvidence GotNuma = G->numaEvidence();
    core::PageNumaEvidence WantNuma = W->numaEvidence();
    EXPECT_EQ(GotNuma.RemoteAccesses, WantNuma.RemoteAccesses) << Where;
    EXPECT_EQ(GotNuma.RemoteCycles, WantNuma.RemoteCycles) << Where;
    EXPECT_EQ(GotNuma.NodesObserved, WantNuma.NodesObserved) << Where;
    ASSERT_EQ(GotNuma.RemoteByDistance.size(),
              WantNuma.RemoteByDistance.size())
        << Where;
    for (size_t D = 0; D < WantNuma.RemoteByDistance.size(); ++D) {
      const RemoteDistanceStats &G = GotNuma.RemoteByDistance[D];
      const RemoteDistanceStats &W = WantNuma.RemoteByDistance[D];
      EXPECT_EQ(G.Distance, W.Distance) << Where;
      EXPECT_EQ(G.Accesses, W.Accesses) << Where;
      EXPECT_EQ(G.Cycles, W.Cycles) << Where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrainRunFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

//===----------------------------------------------------------------------===//
// Line decode through handleBatch vs the per-sample reference
//===----------------------------------------------------------------------===//

/// A line-only batch detector and the per-sample reference over twin
/// shadow tables. Threshold 0 materializes a line on its first sampled
/// write, so every covered write is recorded and its decoded word and span
/// show in the line's word histogram.
struct LineDecodeTwins {
  core::DetectorConfig Config;
  core::ShadowMemory GotShadow, WantShadow;
  core::Detector Detect;
  test::PerSampleReference Reference;

  LineDecodeTwins(const CacheGeometry &Geometry,
                  const std::vector<core::ShadowRegion> &Regions)
      : Config(zeroThreshold()), GotShadow(Geometry, Regions),
        WantShadow(Geometry, Regions), Detect(Geometry, GotShadow, Config),
        Reference(WantShadow, Config) {}

  static core::DetectorConfig zeroThreshold() {
    core::DetectorConfig Config;
    Config.WriteThreshold = 0;
    return Config;
  }

  /// Delivers \p Count samples to the detector as one batch and to the
  /// reference one by one, then expects equal counters and equal lines.
  void deliver(const pmu::Sample *Samples, size_t Count, uint8_t AccessBytes,
               const std::string &Where) {
    for (size_t I = 0; I < Count; ++I)
      Reference.handleSample(Samples[I], /*InParallelPhase=*/true,
                             AccessBytes);
    Detect.handleBatch(Samples, Count, /*InParallelPhase=*/true, AccessBytes);
    core::DetectorStats Got = Detect.stats(), Want = Reference.stats();
    ASSERT_EQ(Got.SamplesFiltered, Want.SamplesFiltered) << Where;
    ASSERT_EQ(Got.SamplesRecorded, Want.SamplesRecorded) << Where;
    ASSERT_EQ(Got.Invalidations, Want.Invalidations) << Where;
    ASSERT_EQ(GotShadow.materializedLines(), WantShadow.materializedLines())
        << Where;
    WantShadow.forEachDetail(
        [&](uint64_t Line, const core::CacheLineInfo &WantInfo) {
          const core::CacheLineInfo *GotInfo = GotShadow.detail(Line);
          ASSERT_NE(GotInfo, nullptr) << Where << " line " << Line;
          expectGrainsMatch(GotInfo->snapshot(Line), WantInfo.snapshot(Line),
                            Where + " line " + std::to_string(Line));
        });
  }
};

class BatchDecodeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDecodeFuzzTest, HandleBatchDecodesLikeTheReference) {
  SplitMix64 Rng(GetParam() ^ 0xDECDE);
  for (int Round = 0; Round < 40; ++Round) {
    uint64_t LineSize = 8ull << Rng.nextBelow(6); // 8..256
    CacheGeometry Geometry(LineSize);
    // One or two random regions, line-aligned, small enough that random
    // addresses land inside, at the edges, and far outside.
    std::vector<core::ShadowRegion> Regions;
    uint64_t Base = (1 + Rng.nextBelow(1 << 20)) * LineSize;
    Regions.push_back({Base, (1 + Rng.nextBelow(256)) * LineSize});
    if (Rng.nextBool(0.5)) {
      uint64_t Base2 = Base + Regions[0].Size + Rng.nextBelow(64) * LineSize;
      Regions.push_back({Base2, (1 + Rng.nextBelow(64)) * LineSize});
    }
    LineDecodeTwins Twins(Geometry, Regions);

    std::vector<pmu::Sample> Samples(1 + Rng.nextBelow(300));
    for (pmu::Sample &Sample : Samples) {
      const core::ShadowRegion &Region = Regions[Rng.nextBelow(Regions.size())];
      switch (Rng.nextBelow(4)) {
      case 0: // uniformly inside a region
        Sample.Address = Region.Base + Rng.nextBelow(Region.Size);
        break;
      case 1: // hugging a region boundary from either side
        Sample.Address = Region.Base + (Rng.nextBool(0.5) ? Region.Size : 0) -
                         8 + Rng.nextBelow(16);
        break;
      case 2: // anywhere in the low 44 bits
        Sample.Address = Rng.nextBelow(1ull << 44);
        break;
      default: // full-width addresses, up to next to 2^64
        Sample.Address = Rng.next();
        break;
      }
      Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(4));
      Sample.IsWrite = Rng.nextBool(0.75);
      Sample.LatencyCycles = 1 + static_cast<uint32_t>(Rng.nextBelow(100));
    }
    uint8_t AccessBytes = static_cast<uint8_t>(Rng.nextBelow(33));
    Twins.deliver(Samples.data(), Samples.size(), AccessBytes,
                  "round " + std::to_string(Round) + " line " +
                      std::to_string(LineSize) + " bytes " +
                      std::to_string(AccessBytes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDecodeFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(BatchDecodeFuzzTest, ExhaustiveSmallGeometrySweep) {
  // The smallest legal geometry (8-byte lines, two words) over a 4-line
  // region makes full enumeration affordable: every address in a window
  // straddling the region boundaries x every access width 0..16, written
  // in batches of 5 and checked against the reference after each batch.
  CacheGeometry Geometry(8);
  constexpr uint64_t Base = 64;
  constexpr uint64_t Size = 4 * 8;
  for (unsigned Bytes = 0; Bytes <= 16; ++Bytes) {
    LineDecodeTwins Twins(Geometry, {{Base, Size}});
    for (uint64_t Address = Base - 16; Address < Base + Size + 16;
         Address += 5) {
      pmu::Sample Samples[5];
      for (uint64_t J = 0; J < 5; ++J) {
        Samples[J].Address = Address + J;
        Samples[J].Tid = static_cast<ThreadId>(J % 2);
        Samples[J].IsWrite = true;
        Samples[J].LatencyCycles = 10;
      }
      Twins.deliver(Samples, 5, static_cast<uint8_t>(Bytes),
                    "address " + std::to_string(Address) + " bytes " +
                        std::to_string(Bytes));
    }
  }
}

TEST(JsonFuzzTest, HostileHandWrittenInputsErrorCleanly) {
  // Inputs chosen to hit every parser failure edge, including the
  // recursion guard (deep nesting must error, not smash the stack).
  const std::string Cases[] = {
      "", " ", "{", "[", "\"", "{\"a\"", "{\"a\":}", "[1,]", "{,}",
      "tru", "falsey", "nul", "+1", "1e", "-", "0x10", "1.2.3",
      "\"\\u12", "\"\\u12zz\"", "\"\\q\"", "[1 2]", "{\"a\" 1}",
      "{\"a\":1,}", "[]extra", "\x01\x02\x03",
      std::string(100000, '['), std::string(100000, '{'),
      std::string(200, '[') + "1" + std::string(200, ']'),
  };
  for (const std::string &Input : Cases) {
    JsonValue Result;
    std::string Error;
    EXPECT_FALSE(JsonValue::parse(Input, Result, Error))
        << "accepted: " << Input.substr(0, 40);
    EXPECT_FALSE(Error.empty());
  }
  // Nesting within the depth limit still parses.
  std::string Shallow = std::string(64, '[') + "1" + std::string(64, ']');
  JsonValue Result;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(Shallow, Result, Error)) << Error;
}

} // namespace
