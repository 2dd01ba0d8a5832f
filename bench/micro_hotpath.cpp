//===- bench/micro_hotpath.cpp - Hot-path micro-costs ----------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-costs of the operations on Cheetah's sample hot
/// path (shadow lookup, two-entry table update, detailed line record,
/// heap allocation, coherence step). These bound the constant behind the
/// "handling of each sampled memory access" overhead the paper discusses in
/// Section 4.1. BM_SimulatorRun times one whole unobserved simulation: the
/// per-event cost every simulated run pays before any profiler runs.
/// BM_ProfilerConstruct times building and tearing down a default profiler.
///
/// The *_ThreadedIngest benchmarks drive the same lock-free detection hot
/// path from 1..8 concurrent threads; compare their aggregate
/// items_per_second to see the multi-threaded ingestion scaling.
///
/// `micro_hotpath --emit-ingest-json=PATH` skips google-benchmark and runs
/// the dedicated ingest sweep instead at 1..4 threads: batched ingestion
/// (the staged handleBatch pipeline) over per-thread slices, batched-hot
/// (the same batches, with a share of every thread's samples on a two-line
/// hot set all threads write — the contended case per-grain runs exist
/// for), and the single-threaded trace-replay delivery row (BM_TraceReplay's
/// sweep counterpart), written as the machine-readable `BENCH_ingest.json`
/// (samples/sec/core) that tracks the ingestion-throughput trajectory
/// across PRs.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/CacheLineTable.h"
#include "core/detect/Detector.h"
#include "core/detect/PageInfo.h"
#include "core/detect/PageTable.h"
#include "core/detect/ShadowMemory.h"
#include "core/report/ReportHistory.h"
#include "driver/ProfileSession.h"
#include "interpose/Preload.h"
#include "mem/NumaTopology.h"
#include "pmu/TraceSource.h"
#include "runtime/HeapAllocator.h"
#include "sim/CoherenceModel.h"
#include "sim/Simulator.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cheetah;

namespace {

void BM_TwoEntryTableUpdate(benchmark::State &State) {
  core::CacheLineTable Table;
  SplitMix64 Rng(1);
  for (auto _ : State) {
    bool Invalidation = Table.recordAccess(
        static_cast<ThreadId>(Rng.nextBelow(8)),
        Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read);
    benchmark::DoNotOptimize(Invalidation);
  }
}
BENCHMARK(BM_TwoEntryTableUpdate);

/// The packed table's CAS loop under genuine contention: every benchmark
/// thread hammers one shared table with a ping-pong write mix, the
/// worst case for the single-word compare-and-swap.
void BM_TwoEntryTableContended(benchmark::State &State) {
  static core::CacheLineTable *Table = nullptr;
  if (State.thread_index() == 0)
    Table = new core::CacheLineTable();

  SplitMix64 Rng(40 + State.thread_index());
  ThreadId Tid = static_cast<ThreadId>(State.thread_index());
  for (auto _ : State) {
    bool Invalidation = Table->recordAccess(
        Tid, Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read);
    benchmark::DoNotOptimize(Invalidation);
  }
  State.SetItemsProcessed(State.iterations());

  if (State.thread_index() == 0) {
    delete Table;
    Table = nullptr;
  }
}
BENCHMARK(BM_TwoEntryTableContended)->ThreadRange(1, 8)->UseRealTime();

void BM_ShadowWriteCount(benchmark::State &State) {
  CacheGeometry Geometry(64);
  core::ShadowMemory Shadow(Geometry, {{0x40000000, 16 << 20}});
  SplitMix64 Rng(2);
  for (auto _ : State) {
    uint64_t Address = 0x40000000 + Rng.nextBelow(16 << 20);
    benchmark::DoNotOptimize(Shadow.noteWrite(Address));
  }
}
BENCHMARK(BM_ShadowWriteCount);

/// The detection hot path through the staged batch pipeline — coverage
/// pass, prefetched stage-1 sweep, branchless filter, prefetched detail
/// lookups — over full 256-sample chunks.
void BM_DetectorHandleBatch(benchmark::State &State) {
  CacheGeometry Geometry(64);
  core::ShadowMemory Shadow(Geometry, {{0x40000000, 1 << 20}});
  core::DetectorConfig Config;
  core::Detector Detect(Geometry, Shadow, Config);
  SplitMix64 Rng(3);
  std::vector<pmu::Sample> Batch(256);
  for (auto _ : State) {
    for (pmu::Sample &Sample : Batch) {
      Sample.Address = 0x40000000 + (Rng.nextBelow(256) * 8);
      Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(16));
      Sample.IsWrite = Rng.nextBool(0.7);
      Sample.LatencyCycles = 40;
    }
    Detect.handleBatch(Batch.data(), Batch.size(), true);
  }
  State.SetItemsProcessed(State.iterations() * Batch.size());
}
BENCHMARK(BM_DetectorHandleBatch);

/// The live working set of the epoch-boundary benchmarks: 1024 grains
/// spread evenly over a line table of State.range(0) MiB, one write each
/// (threshold 0 materializes on the first). A walk over every slot instead
/// of the live ones shows up as time growing with the region.
constexpr size_t LiveGrainsPerEpoch = 1024;
constexpr uint64_t EpochRegionBase = 0x40000000;

uint64_t epochRegionBytes(const benchmark::State &State) {
  return static_cast<uint64_t>(State.range(0)) << 20;
}

void materializeLiveSet(core::Detector &Detect, uint64_t RegionBytes,
                        SplitMix64 &Rng) {
  uint64_t Stride = RegionBytes / LiveGrainsPerEpoch;
  std::vector<pmu::Sample> Samples(LiveGrainsPerEpoch);
  for (size_t I = 0; I < LiveGrainsPerEpoch; ++I) {
    Samples[I].Address = EpochRegionBase + I * Stride;
    Samples[I].Tid = static_cast<ThreadId>(Rng.nextBelow(8));
    Samples[I].IsWrite = true;
    Samples[I].LatencyCycles = 40;
  }
  Detect.handleBatch(Samples.data(), Samples.size(), true);
}

/// One continuous-profiling epoch boundary under a byte budget: rank
/// every materialized grain coldest-first, evict down to the budget,
/// reclaim, then re-materialize a fresh working set for the next
/// iteration. This is the daemon's per-epoch maintenance cost — the price
/// of bounded memory, paid outside the ingest hot path. The epoch-write
/// roll still visits every slot, so this grows with the region.
void BM_EvictionEpochBoundary(benchmark::State &State) {
  CacheGeometry Geometry(64);
  core::ShadowMemory Shadow(Geometry,
                            {{EpochRegionBase, epochRegionBytes(State)}});
  core::DetectorConfig Config;
  Config.WriteThreshold = 0;
  core::Detector Detect(Geometry, Shadow, Config);
  Shadow.setByteBudget(1); // below the slab floor: every epoch evicts all
  SplitMix64 Rng(11);
  for (auto _ : State) {
    State.PauseTiming();
    materializeLiveSet(Detect, epochRegionBytes(State), Rng);
    State.ResumeTiming();
    benchmark::DoNotOptimize(Shadow.enforceBudget());
  }
  State.SetItemsProcessed(State.iterations() * LiveGrainsPerEpoch);
}
BENCHMARK(BM_EvictionEpochBoundary)
    ->ArgName("region_mib")
    ->Arg(1)
    ->Arg(16)
    ->Arg(64);

/// The report side of an epoch boundary over the same live set: every
/// detail record enumerated (what buildReport does), then shadowBytes()
/// and footprintBytes() (what runStats does). These walks follow the
/// live-grain bitmap, so the region size adds only the scan of its words
/// (one per 64 slots), not a visit to every slot.
void BM_ReportWalk(benchmark::State &State) {
  CacheGeometry Geometry(64);
  core::ShadowMemory Shadow(Geometry,
                            {{EpochRegionBase, epochRegionBytes(State)}});
  core::DetectorConfig Config;
  Config.WriteThreshold = 0;
  core::Detector Detect(Geometry, Shadow, Config);
  SplitMix64 Rng(11);
  materializeLiveSet(Detect, epochRegionBytes(State), Rng);
  for (auto _ : State) {
    uint64_t Accesses = 0;
    Shadow.forEachDetail([&](uint64_t, const core::CacheLineInfo &Info) {
      Accesses += Info.accesses();
    });
    benchmark::DoNotOptimize(Accesses);
    benchmark::DoNotOptimize(Shadow.shadowBytes());
    benchmark::DoNotOptimize(Shadow.footprintBytes());
  }
  State.SetItemsProcessed(State.iterations() * LiveGrainsPerEpoch);
}
BENCHMARK(BM_ReportWalk)->ArgName("region_mib")->Arg(1)->Arg(16)->Arg(64);

/// Constructing and destroying a default profiler, at line granularity and
/// with the page table too: the fixed cost every `cheetah-profile` session,
/// `--native`/`--verify` rerun and daemon pays before its first sample.
/// The line table alone reserves 15 MiB of slab slots over the heap arena
/// and the global segment; the slabs are mapped, not written, so this does
/// not grow with them.
void BM_ProfilerConstruct(benchmark::State &State, bool TrackPages) {
  core::ProfilerConfig Config;
  Config.Detect.TrackPages = TrackPages;
  for (auto _ : State) {
    core::Profiler Prof(Config);
    benchmark::DoNotOptimize(&Prof);
  }
}
BENCHMARK_CAPTURE(BM_ProfilerConstruct, line, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ProfilerConstruct, both, true)
    ->Unit(benchmark::kMicrosecond);

void BM_HeapAllocateFree(benchmark::State &State) {
  CacheGeometry Geometry(64);
  runtime::HeapAllocator Heap(0x40000000, 256 << 20, Geometry);
  for (auto _ : State) {
    uint64_t Address = Heap.allocate(64, 0, 0);
    benchmark::DoNotOptimize(Address);
    Heap.deallocate(Address, 0);
  }
}
BENCHMARK(BM_HeapAllocateFree);

void BM_HeapObjectLookup(benchmark::State &State) {
  CacheGeometry Geometry(64);
  runtime::HeapAllocator Heap(0x40000000, 64 << 20, Geometry);
  std::vector<uint64_t> Objects;
  for (int I = 0; I < 4096; ++I)
    Objects.push_back(Heap.allocate(64, 0, 0));
  SplitMix64 Rng(4);
  for (auto _ : State) {
    uint64_t Address = Objects[Rng.nextBelow(Objects.size())] + 13;
    benchmark::DoNotOptimize(Heap.objectAt(Address));
  }
}
BENCHMARK(BM_HeapObjectLookup);

/// Random reads and writes by 8 threads over range(0) lines. 64 lines fit
/// in L1 whatever the directory's layout; 65,536 show what reaching a
/// line's entry costs.
void BM_CoherenceAccess(benchmark::State &State) {
  CacheGeometry Geometry(64);
  sim::CoherenceModel Model(Geometry);
  SplitMix64 Rng(5);
  uint64_t Lines = static_cast<uint64_t>(State.range(0));
  uint64_t Now = 0;
  for (auto _ : State) {
    MemoryAccess Access =
        Rng.nextBool(0.5)
            ? MemoryAccess::write(0x1000 + Rng.nextBelow(Lines) * 64)
            : MemoryAccess::read(0x1000 + Rng.nextBelow(Lines) * 64);
    benchmark::DoNotOptimize(
        Model.access(static_cast<ThreadId>(Rng.nextBelow(8)), Access, Now));
    Now += 7;
  }
}
BENCHMARK(BM_CoherenceAccess)->ArgName("lines")->Arg(64)->Arg(65536);

/// Counts the events a simulation retires: the simulator makes one
/// onInstructions call per compute event and one onMemoryAccess call per
/// memory event.
class EventCounter : public sim::SimObserver {
public:
  uint64_t onMemoryAccess(ThreadId, const MemoryAccess &,
                          const sim::CoherenceResult &, uint64_t) override {
    ++Events;
    return 0;
  }
  void onInstructions(ThreadId, uint64_t) override { ++Events; }

  uint64_t Events = 0;
};

/// One Simulator::run of streamcluster at 3 threads and scale 2 (the
/// program `bench/e2e`'s `oneshot` workload profiles) with no observer:
/// the per-event cost of the workload coroutines, the min-clock scheduler
/// and the coherence directory. items_per_second counts events.
void BM_SimulatorRun(benchmark::State &State) {
  driver::SessionConfig Config;
  Config.Workload.Threads = 3;
  Config.Workload.Scale = 2;
  std::unique_ptr<workloads::Workload> Streamcluster =
      workloads::createWorkload("streamcluster");
  core::Profiler Heap(Config.Profiler);
  sim::ForkJoinProgram Program =
      driver::buildProgram(*Streamcluster, Heap, Config);

  sim::Simulator Counted(Config.Profiler.Geometry, Config.Latency);
  EventCounter Counter;
  Counted.addObserver(&Counter);
  Counted.run(Program);

  sim::Simulator Unobserved(Config.Profiler.Geometry, Config.Latency);
  for (auto _ : State)
    benchmark::DoNotOptimize(Unobserved.run(Program));
  State.SetItemsProcessed(State.iterations() * Counter.Events);
}
BENCHMARK(BM_SimulatorRun)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Multi-threaded ingestion scaling
//===----------------------------------------------------------------------===//

/// Shared detection state for the threaded benchmarks, set up by thread 0
/// (google-benchmark synchronizes all threads on the iteration barrier
/// before the timed loop and after it, so this is race-free).
struct IngestHarness {
  CacheGeometry Geometry{64};
  core::ShadowMemory Shadow;
  core::Detector Detect;

  explicit IngestHarness(uint64_t Lines)
      : Shadow(Geometry, {{0x4000'0000, Lines * 64}}),
        Detect(Geometry, Shadow, core::DetectorConfig{}) {}
};

constexpr uint64_t LinesPerIngestThread = 4096;

/// Fills \p Batch with samples over the ingesting thread's own slice of
/// the monitored region, issued by four simulated threads per ingester.
void fillSliceBatch(std::vector<pmu::Sample> &Batch, uint64_t SliceBase,
                    unsigned Ingester, SplitMix64 &Rng) {
  for (pmu::Sample &Sample : Batch) {
    Sample.Address = SliceBase + Rng.nextBelow(LinesPerIngestThread) * 64 +
                     Rng.nextBelow(16) * 4;
    Sample.Tid = static_cast<ThreadId>(Ingester * 4 + Rng.nextBelow(4));
    Sample.IsWrite = Rng.nextBool(0.7);
    Sample.LatencyCycles = 40;
  }
}

/// Aggregate sample-ingest throughput: each thread feeds the shared
/// detector full batches over its own slice of the monitored region (the
/// realistic deployment shape — application threads mostly touch their own
/// data, while all profiler metadata stays shared).
void BM_ThreadedIngest(benchmark::State &State) {
  static IngestHarness *Harness = nullptr;
  if (State.thread_index() == 0)
    Harness = new IngestHarness(LinesPerIngestThread * State.threads());

  uint64_t SliceBase =
      0x4000'0000 +
      uint64_t(State.thread_index()) * LinesPerIngestThread * 64;
  SplitMix64 Rng(100 + State.thread_index());
  std::vector<pmu::Sample> Batch(pmu::SampleBatchCapacity);
  for (auto _ : State) {
    fillSliceBatch(Batch, SliceBase, State.thread_index(), Rng);
    Harness->Detect.handleBatch(Batch.data(), Batch.size(), true);
  }
  State.SetItemsProcessed(State.iterations() * Batch.size());

  if (State.thread_index() == 0) {
    delete Harness;
    Harness = nullptr;
  }
}
BENCHMARK(BM_ThreadedIngest)->ThreadRange(1, 8)->UseRealTime();

//===----------------------------------------------------------------------===//
// Page-granularity (NUMA) hot path
//===----------------------------------------------------------------------===//

/// Single-thread cost of one page-stage detail record (packed node table
/// CAS + per-line histogram + per-node accumulators).
void BM_PageInfoRecord(benchmark::State &State) {
  core::PageInfo Info(4096 / 64);
  SplitMix64 Rng(6);
  for (auto _ : State) {
    NodeId Node = static_cast<NodeId>(Rng.nextBelow(2));
    bool Invalidation = Info.recordAccess(
        Node, Node, Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read,
        Rng.nextBelow(64), 40, Node != 0);
    benchmark::DoNotOptimize(Invalidation);
  }
}
BENCHMARK(BM_PageInfoRecord);

/// The packed node table under genuine contention: every benchmark thread
/// hammers one shared PageInfo from its own simulated node — the worst
/// case for the page layer's single-word CAS, mirroring
/// BM_TwoEntryTableContended one level up.
void BM_PageInfoContended(benchmark::State &State) {
  static core::PageInfo *Info = nullptr;
  if (State.thread_index() == 0)
    Info = new core::PageInfo(4096 / 64);

  SplitMix64 Rng(60 + State.thread_index());
  NodeId Node = static_cast<NodeId>(State.thread_index() % 2);
  for (auto _ : State) {
    bool Invalidation = Info->recordAccess(
        static_cast<ThreadId>(State.thread_index()), Node,
        Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read,
        Rng.nextBelow(64), 40, Node != 0);
    benchmark::DoNotOptimize(Invalidation);
  }
  State.SetItemsProcessed(State.iterations());

  if (State.thread_index() == 0) {
    delete Info;
    Info = nullptr;
  }
}
BENCHMARK(BM_PageInfoContended)->ThreadRange(1, 8)->UseRealTime();

/// Aggregate ingest throughput with the page stage on (line + page): the
/// page-mode counterpart of BM_ThreadedIngest, comparable row-for-row to
/// measure what the second granularity costs.
void BM_ThreadedIngestPageMode(benchmark::State &State) {
  struct PageHarness {
    NumaTopology Topology{2, 4096};
    CacheGeometry Geometry{64};
    core::ShadowMemory Shadow;
    core::PageTable Pages;
    core::Detector Detect;

    explicit PageHarness(uint64_t Lines)
        : Shadow(Geometry, {{0x4000'0000, Lines * 64}}),
          Pages(Topology, Geometry, {{0x4000'0000, Lines * 64}}),
          Detect(Geometry, Shadow, [] {
            core::DetectorConfig Config;
            Config.TrackPages = true;
            return Config;
          }()) {
      Detect.attachPageTable(Pages, Topology);
    }
  };
  static PageHarness *Harness = nullptr;
  if (State.thread_index() == 0)
    Harness = new PageHarness(LinesPerIngestThread * State.threads());

  uint64_t SliceBase =
      0x4000'0000 +
      uint64_t(State.thread_index()) * LinesPerIngestThread * 64;
  SplitMix64 Rng(500 + State.thread_index());
  std::vector<pmu::Sample> Batch(pmu::SampleBatchCapacity);
  for (auto _ : State) {
    fillSliceBatch(Batch, SliceBase, State.thread_index(), Rng);
    Harness->Detect.handleBatch(Batch.data(), Batch.size(), true);
  }
  State.SetItemsProcessed(State.iterations() * Batch.size());

  if (State.thread_index() == 0) {
    delete Harness;
    Harness = nullptr;
  }
}
BENCHMARK(BM_ThreadedIngestPageMode)->ThreadRange(1, 8)->UseRealTime();

/// Same scaling through the profiler's batched ingest API, including the
/// per-batch registry/phase bookkeeping the per-thread buffers amortize.
void BM_ProfilerBatchedIngest(benchmark::State &State) {
  constexpr unsigned BatchSize = 256;
  static core::Profiler *Prof = nullptr;
  if (State.thread_index() == 0) {
    core::ProfilerConfig Config;
    Prof = new core::Profiler(Config);
    Prof->threadStarted(0, /*IsMain=*/true, 0);
    for (int T = 1; T <= State.threads(); ++T)
      Prof->threadStarted(static_cast<ThreadId>(T), /*IsMain=*/false, 10);
  }

  SplitMix64 Rng(200 + State.thread_index());
  ThreadId Tid = static_cast<ThreadId>(State.thread_index() + 1);
  uint64_t SliceBase =
      0x4000'0000 +
      uint64_t(State.thread_index()) * LinesPerIngestThread * 64;
  std::vector<pmu::Sample> Batch(BatchSize);
  for (auto _ : State) {
    for (pmu::Sample &Sample : Batch) {
      Sample.Address = SliceBase + Rng.nextBelow(LinesPerIngestThread) * 64 +
                       Rng.nextBelow(16) * 4;
      Sample.Tid = Tid;
      Sample.IsWrite = Rng.nextBool(0.7);
      Sample.LatencyCycles = 40;
    }
    Prof->ingestBatch(Batch.data(), Batch.size());
  }
  State.SetItemsProcessed(State.iterations() * BatchSize);

  if (State.thread_index() == 0) {
    delete Prof;
    Prof = nullptr;
  }
}
BENCHMARK(BM_ProfilerBatchedIngest)->ThreadRange(1, 8)->UseRealTime();

//===----------------------------------------------------------------------===//
// Interpose capture
//===----------------------------------------------------------------------===//

/// Samples BM_InterposeRecordSample's sink received.
std::atomic<uint64_t> InterposeSinkSamples{0};

/// Capture cost of the interpose runtime: every thread appends one sample
/// per iteration to its own staging buffer through interpose::recordSample,
/// and each 256-sample batch goes to a sink that only counts it, so the
/// rows time the append and the per-batch claim, not detection.
void BM_InterposeRecordSample(benchmark::State &State) {
  if (State.thread_index() == 0)
    interpose::setSampleSink([](const pmu::Sample *, size_t Count) {
      InterposeSinkSamples.fetch_add(Count, std::memory_order_relaxed);
    });

  uint64_t SliceBase =
      0x4000'0000 +
      uint64_t(State.thread_index()) * LinesPerIngestThread * 64;
  pmu::Sample Sample;
  Sample.Tid = static_cast<ThreadId>(State.thread_index() + 1);
  Sample.IsWrite = true;
  Sample.LatencyCycles = 40;
  uint64_t Word = 0;
  for (auto _ : State) {
    Sample.Address = SliceBase + (Word++ % (LinesPerIngestThread * 16)) * 4;
    interpose::recordSample(Sample);
    benchmark::ClobberMemory();
  }
  interpose::flushThreadSamples();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_InterposeRecordSample)->ThreadRange(1, 4)->UseRealTime();

//===----------------------------------------------------------------------===//
// Trace replay delivery
//===----------------------------------------------------------------------===//

/// Minimal inner backend so a record-mode TraceSource can be built without
/// a simulator behind it.
struct NullSource : pmu::SampleSource {
  pmu::SourceStatus start() override { return {true, ""}; }
  pmu::SourceStatus stop() override { return {true, ""}; }
};

/// Buffers a deterministic recorded stream into \p Tee's in-memory trace:
/// a main-thread lifecycle bracketing \p SampleCount samples over the
/// ingest harness's address slice (same generator as the ingest sweeps).
void recordSyntheticTrace(pmu::TraceSource &Tee, uint64_t SampleCount) {
  Tee.threadStarted(0, /*IsMain=*/true, 0);
  SplitMix64 Rng(1500);
  pmu::Sample Sample;
  for (uint64_t I = 0; I < SampleCount; ++I) {
    Sample.Address = 0x4000'0000 + Rng.nextBelow(LinesPerIngestThread) * 64 +
                     Rng.nextBelow(16) * 4;
    Sample.Tid = 0;
    Sample.IsWrite = Rng.nextBool(0.7);
    Sample.LatencyCycles = 40;
    Sample.Timestamp = I;
    Tee.ingestBatch(&Sample, 1);
  }
  Tee.threadFinished(0, /*IsMain=*/true, SampleCount);
}

/// Detector-backed sink: replayed samples land on the real detection hot
/// path, so replay throughput compares row-for-row with the live ingest
/// modes.
struct DetectorSink : pmu::SampleSink {
  core::Detector &Detect;
  explicit DetectorSink(core::Detector &Detect) : Detect(Detect) {}
  void threadStarted(ThreadId, bool, uint64_t) override {}
  void threadFinished(ThreadId, bool, uint64_t) override {}
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override {
    Detect.handleBatch(Samples, Count, true);
  }
};

/// Replay delivery cost: one pass of an in-memory `cheetah-trace-v1`
/// event stream through the SampleSink shape into the detector — batches
/// in recorded order, exactly what `--backend=trace:FILE` pays on top of
/// the detection work itself.
void BM_TraceReplay(benchmark::State &State) {
  constexpr uint64_t SampleCount = 4096;
  pmu::TraceSource Tee(std::make_unique<NullSource>(), /*Path=*/"",
                       /*SamplingPeriod=*/64);
  recordSyntheticTrace(Tee, SampleCount);
  IngestHarness Harness(LinesPerIngestThread);
  DetectorSink Sink(Harness.Detect);
  for (auto _ : State)
    benchmark::DoNotOptimize(Tee.replayInto(Sink));
  State.SetItemsProcessed(State.iterations() * SampleCount);
}
BENCHMARK(BM_TraceReplay);

/// The codec benchmarks' input: a 100,000-sample synthetic recording.
const pmu::TraceData &codecTrace() {
  static const pmu::TraceData Data = [] {
    pmu::TraceSource Tee(std::make_unique<NullSource>(), /*Path=*/"",
                         /*SamplingPeriod=*/64);
    recordSyntheticTrace(Tee, 100'000);
    return Tee.data();
  }();
  return Data;
}

/// Writing a recording as `cheetah-trace-v1` text (what `--record-trace`
/// pays at stop()), in bytes written per second.
void BM_TraceSerialize(benchmark::State &State) {
  const pmu::TraceData &Data = codecTrace();
  size_t Bytes = 0;
  for (auto _ : State) {
    std::string Text = Data.serialize();
    Bytes = Text.size();
    benchmark::DoNotOptimize(Text.data());
    benchmark::ClobberMemory();
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations() * Bytes));
}
BENCHMARK(BM_TraceSerialize)->Unit(benchmark::kMillisecond);

/// Loading `cheetah-trace-v1` text (what `--backend=trace:FILE` pays at
/// start()), in bytes read per second: `canonical` is serialize()'s own
/// layout, which the canonical reader takes; `relaid` has a space after
/// every comma, so the canonical reader gives up at the first one and the
/// token decoder reads the whole document.
void BM_TraceParse(benchmark::State &State, bool Relaid) {
  std::string Text = codecTrace().serialize();
  if (Relaid) {
    std::string Spaced;
    for (char C : Text) {
      Spaced += C;
      if (C == ',')
        Spaced += ' ';
    }
    Text = std::move(Spaced);
  }
  for (auto _ : State) {
    pmu::TraceData Parsed;
    std::string Error;
    if (!pmu::TraceData::parse(Text, Parsed, Error)) {
      State.SkipWithError(Error.c_str());
      break;
    }
    benchmark::DoNotOptimize(Parsed.Events.data());
  }
  State.SetBytesProcessed(
      static_cast<int64_t>(State.iterations() * Text.size()));
}
BENCHMARK_CAPTURE(BM_TraceParse, canonical, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TraceParse, relaid, true)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// History store update
//===----------------------------------------------------------------------===//

/// One epoch of the canneal daemon workload as parseRunDocument leaves it:
/// one line finding and 780 page findings of one heap object, each page
/// with one distance bucket (the shape of cold_evict's 781 findings).
core::ParsedReport historyEpochRun(SplitMix64 &Rng) {
  core::ParsedReport Run;
  Run.Schema = "cheetah-report-v6";
  Run.Workload = "canneal";
  Run.Threads = 3;
  Run.Granularity = "both";
  Run.AppRuntimeCycles = 3255438074;
  core::DiffFinding Line;
  Line.Key = "line:heap:canneal/netlist.cpp:118#0";
  Line.Sharing = "mixed-sharing";
  Line.HasImprovement = true;
  Line.Improvement = 1.0 + Rng.nextDouble() / 100;
  Line.Accesses = 1949;
  Line.Invalidations = 1458;
  Run.Findings.push_back(Line);
  for (uint32_t Page = 0; Page < 780; ++Page) {
    core::DiffFinding Finding;
    Finding.Key = "page:canneal/netlist.cpp:118#" + std::to_string(Page);
    Finding.Sharing = "false-sharing";
    Finding.IsPage = true;
    Finding.Significant = Page == 0;
    Finding.HasImprovement = true;
    Finding.Improvement = 1.0 + Rng.nextDouble() / 1000;
    Finding.Accesses = Rng.nextBelow(100);
    Finding.Invalidations = Rng.nextBelow(50);
    Finding.RemoteAccesses = Finding.Accesses / 2;
    Finding.RemoteByDistance.push_back(
        {10, Finding.RemoteAccesses, 40 * Finding.RemoteAccesses});
    Run.PageFindings.push_back(std::move(Finding));
  }
  return Run;
}

/// One daemon epoch's store update, appendRun of a 781-finding run then
/// serialize(), into a store that starts with State.range(0) such runs
/// and keeps the runs each iteration appends. A copied store would start
/// every series' text at full capacity and make the next append copy it,
/// which no daemon pays, so the iterations are fixed instead: the store
/// grows by 10 runs. The append_us counter should not grow with the
/// stored runs; serialize_us copies the stored point text, so it grows
/// with the store's bytes.
void BM_HistoryEpoch(benchmark::State &State) {
  SplitMix64 Rng(24);
  core::ReportHistory History;
  std::string Error;
  for (int64_t Run = 0; Run < State.range(0); ++Run)
    History.appendRun(historyEpochRun(Rng), "epoch-" + std::to_string(Run),
                      Error);
  core::ParsedReport Next = historyEpochRun(Rng);
  using Clock = std::chrono::steady_clock;
  Clock::duration Append{}, Serialize{};
  size_t Bytes = 0;
  for (auto _ : State) {
    Clock::time_point Start = Clock::now();
    benchmark::DoNotOptimize(History.appendRun(
        Next, "epoch-" + std::to_string(History.runs().size()), Error));
    Clock::time_point Appended = Clock::now();
    std::string Text = History.serialize();
    benchmark::DoNotOptimize(Text.data());
    Serialize += Clock::now() - Appended;
    Append += Appended - Start;
    Bytes = Text.size();
  }
  auto PerIteration = [](Clock::duration Total) {
    return benchmark::Counter(
        std::chrono::duration<double, std::micro>(Total).count(),
        benchmark::Counter::kAvgIterations);
  };
  State.counters["append_us"] = PerIteration(Append);
  State.counters["serialize_us"] = PerIteration(Serialize);
  State.counters["store_mb"] = static_cast<double>(Bytes) / (1 << 20);
}
BENCHMARK(BM_HistoryEpoch)
    ->ArgName("stored_runs")
    ->Arg(20)
    ->Arg(200)
    ->Iterations(10)
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// BENCH_ingest.json: the checked-in ingestion-throughput trajectory
//===----------------------------------------------------------------------===//

/// One row of the ingest sweep: \p Mode at \p Threads ingest threads.
struct IngestSweepRow {
  std::string Mode;
  unsigned Threads = 0;
  uint64_t Samples = 0;
  double Seconds = 0.0;
};

/// Share of each batched-hot thread's samples that land on the shared
/// two-line hot set (the e2e hot_line workload sends about 40% of its
/// samples to one or two hot lines).
constexpr double HotShare = 0.4;

/// Runs \p SamplesPerThread samples on each of \p Threads threads through
/// one ingestion mode and returns the timed row. Sample generation and
/// slice layout match the BM_ThreadedIngest benchmarks; batched-hot sends
/// HotShare of the samples to the first two lines of thread 0's slice
/// instead, which every thread reads and writes. All threads start on a
/// barrier so the wall-clock window covers only ingestion.
IngestSweepRow runIngestSweep(const std::string &Mode, unsigned Threads,
                              uint64_t SamplesPerThread) {
  IngestHarness Harness(LinesPerIngestThread * Threads);
  const bool Hot = Mode == "batched-hot";

  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(900 + T);
      uint64_t SliceBase = 0x4000'0000 + uint64_t(T) * LinesPerIngestThread * 64;
      auto Next = [&](pmu::Sample &Sample) {
        uint64_t Line =
            Hot && Rng.nextBool(HotShare)
                ? 0x4000'0000 + Rng.nextBelow(2) * 64
                : SliceBase + Rng.nextBelow(LinesPerIngestThread) * 64;
        Sample.Address = Line + Rng.nextBelow(16) * 4;
        Sample.Tid = static_cast<ThreadId>(T * 4 + Rng.nextBelow(4));
        Sample.IsWrite = Rng.nextBool(0.7);
        Sample.LatencyCycles = 40;
      };
      std::vector<pmu::Sample> Batch(pmu::SampleBatchCapacity);
      while (!Go.load(std::memory_order_acquire)) {
      }
      // The staged pipeline, in the backends' 256-sample batches.
      for (uint64_t I = 0; I < SamplesPerThread;) {
        size_t N = static_cast<size_t>(
            std::min<uint64_t>(Batch.size(), SamplesPerThread - I));
        for (size_t J = 0; J < N; ++J)
          Next(Batch[J]);
        Harness.Detect.handleBatch(Batch.data(), N, true);
        I += N;
      }
    });

  auto Start = std::chrono::steady_clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &Worker : Workers)
    Worker.join();
  auto End = std::chrono::steady_clock::now();

  IngestSweepRow Row;
  Row.Mode = Mode;
  Row.Threads = Threads;
  Row.Samples = SamplesPerThread * Threads;
  Row.Seconds = std::chrono::duration<double>(End - Start).count();
  return Row;
}

/// Times replay of an in-memory recorded trace through the detector sink:
/// the `--backend=trace:FILE` delivery path as an ingestion mode.
/// Single-threaded by construction — replay is an ordered stream.
IngestSweepRow runReplaySweep(uint64_t TotalSamples) {
  constexpr uint64_t TraceSamples = 1 << 16;
  pmu::TraceSource Tee(std::make_unique<NullSource>(), /*Path=*/"",
                       /*SamplingPeriod=*/64);
  recordSyntheticTrace(Tee, TraceSamples);
  IngestHarness Harness(LinesPerIngestThread);
  DetectorSink Sink(Harness.Detect);

  auto Start = std::chrono::steady_clock::now();
  uint64_t Done = 0;
  while (Done < TotalSamples)
    Done += Tee.replayInto(Sink);
  auto End = std::chrono::steady_clock::now();

  IngestSweepRow Row;
  Row.Mode = "replay";
  Row.Threads = 1;
  Row.Samples = Done;
  Row.Seconds = std::chrono::duration<double>(End - Start).count();
  return Row;
}

/// Writes the batched/batched-hot x 1..4-thread sweep and the
/// single-threaded trace-replay row to \p Path as the
/// `cheetah-bench-ingest-v6` document. \returns false on I/O failure.
bool emitIngestJson(const std::string &Path) {
  constexpr uint64_t SamplesPerThread = 1'000'000;
  // One untimed pass at the widest thread count first: otherwise the first
  // mode's multi-thread rows pay for growing the allocator's per-thread
  // arenas, at about half the throughput of the same rows run later.
  runIngestSweep("batched", 4, SamplesPerThread);
  std::vector<IngestSweepRow> Rows;
  for (const char *Mode : {"batched", "batched-hot"})
    for (unsigned Threads = 1; Threads <= 4; ++Threads) {
      Rows.push_back(runIngestSweep(Mode, Threads, SamplesPerThread));
      std::fprintf(stderr, "%-11s %u threads: %.1fM samples/sec/core\n",
                   Mode, Threads,
                   static_cast<double>(Rows.back().Samples) /
                       Rows.back().Seconds / Threads / 1e6);
    }
  Rows.push_back(runReplaySweep(SamplesPerThread));
  std::fprintf(stderr, "replay      1 threads: %.1fM samples/sec/core\n",
               static_cast<double>(Rows.back().Samples) /
                   Rows.back().Seconds / 1e6);

  std::string Text;
  JsonWriter Writer(Text);
  Writer.beginObject();
  Writer.member("schema", "cheetah-bench-ingest-v6");
  Writer.member("hardware_threads",
                static_cast<uint64_t>(std::thread::hardware_concurrency()));
  Writer.member("samples_per_thread", SamplesPerThread);
  Writer.member("lines_per_thread", LinesPerIngestThread);
  Writer.member("hot_share", HotShare);
  Writer.key("results");
  Writer.beginArray();
  for (const IngestSweepRow &Row : Rows) {
    Writer.beginObject();
    Writer.member("mode", Row.Mode);
    Writer.member("threads", Row.Threads);
    Writer.member("samples", Row.Samples);
    Writer.member("seconds", Row.Seconds);
    Writer.member("samples_per_sec",
                  static_cast<double>(Row.Samples) / Row.Seconds);
    Writer.member("samples_per_sec_per_core",
                  static_cast<double>(Row.Samples) / Row.Seconds /
                      Row.Threads);
    Writer.endObject();
  }
  Writer.endArray();
  Writer.endObject();
  Text += "\n";

  std::string Error;
  if (!writeFile(Path, Text, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  // The dedicated ingest sweep replaces the google-benchmark run when
  // requested: deterministic sample streams, explicit timing, one JSON
  // document for the checked-in trajectory.
  for (int I = 1; I < argc; ++I) {
    const char *Prefix = "--emit-ingest-json=";
    if (std::strncmp(argv[I], Prefix, std::strlen(Prefix)) == 0)
      return emitIngestJson(argv[I] + std::strlen(Prefix)) ? 0 : 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
