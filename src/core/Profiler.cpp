//===- core/Profiler.cpp - The Cheetah profiler facade --------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"

#include "core/report/PageReportBuilder.h"
#include "core/report/ReportBuilder.h"
#include "support/Assert.h"

using namespace cheetah;
using namespace cheetah::core;

const FalseSharingReport *
ProfileResult::findReport(const std::string &Needle) const {
  for (const FalseSharingReport &Report : Reports) {
    if (!Report.Object.IsHeap &&
        Report.Object.GlobalName.find(Needle) != std::string::npos)
      return &Report;
    for (const std::string &Frame : Report.Object.CallsiteFrames)
      if (Frame.find(Needle) != std::string::npos)
        return &Report;
  }
  return nullptr;
}

Profiler::Profiler(const ProfilerConfig &Config)
    : Config(Config), Heap(HeapArenaBase, HeapArenaSize, Config.Geometry),
      Globals(GlobalSegmentBase, GlobalSegmentSize, Config.Geometry),
      Shadow(Config.Geometry, {{HeapArenaBase, HeapArenaSize},
                               {GlobalSegmentBase, GlobalSegmentSize}}),
      Detect(Config.Geometry, Shadow, Config.Detect) {
  if (Config.Detect.TrackPages) {
    Pages = std::make_unique<PageTable>(
        Config.Topology, Config.Geometry,
        std::vector<ShadowRegion>{{HeapArenaBase, HeapArenaSize},
                                  {GlobalSegmentBase, GlobalSegmentSize}});
    Detect.attachPageTable(*Pages, this->Config.Topology);
  }
  Shadow.setByteBudget(Config.Detect.LineShadowBudgetBytes);
  if (Pages)
    Pages->setByteBudget(Config.Detect.PageShadowBudgetBytes);
}

runtime::CallsiteId Profiler::internCallsite(const std::string &File,
                                             unsigned Line) {
  return Callsites.intern(File, Line);
}

void Profiler::threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) {
  // Thread lifecycle events may arrive while other threads are mid-batch
  // in ingestBatch; registry growth and phase transitions share its lock.
  std::lock_guard<std::mutex> Lock(IngestMutex);
  Threads.threadStarted(Tid, IsMain, Now);
  if (IsMain) {
    CHEETAH_ASSERT(!MainSeen, "second main thread");
    MainSeen = true;
    Phases.programBegin(Tid, Now);
  } else {
    // In the simulator every child is created by the main thread;
    // real-mode interposition would pass the true creator.
    Phases.threadCreated(Tid, /*Creator=*/0, Now);
  }
}

void Profiler::threadFinished(ThreadId Tid, bool IsMain, uint64_t EndCycle) {
  std::lock_guard<std::mutex> Lock(IngestMutex);
  Threads.threadFinished(Tid, EndCycle);
  if (IsMain)
    Phases.programEnd(EndCycle);
  else
    Phases.threadFinished(Tid, EndCycle);
}

void Profiler::ingestBatch(const pmu::Sample *Samples, size_t Count) {
  if (Count == 0)
    return;
  SamplesIngested.fetch_add(Count, std::memory_order_relaxed);

  // Phase state is read once per batch: sampling is statistical, so a batch
  // straddling a phase boundary attributes its samples to the phase active
  // at drain time. The simulated PMU and trace replay hand over their
  // batches before every lifecycle event, so theirs never straddle one.
  bool InParallel;
  {
    std::lock_guard<std::mutex> Lock(IngestMutex);
    InParallel = Phases.inParallelPhase();
    if (!InParallel) {
      // Serial-phase samples have no false sharing: their latencies
      // approximate AverCycles_nofs for EQ.1. They are added one by one in
      // sample order, so the average does not depend on how the stream was
      // split into batches. Only one thread runs in a serial phase, so the
      // lock is uncontended.
      for (size_t I = 0; I < Count; ++I)
        if (Shadow.covers(Samples[I].Address)) {
          SerialLatency.add(Samples[I].LatencyCycles);
          ++SerialSampleCount;
        }
    }
  }

  // Every thread records its own samples (F_SETOWN_EX-style dispatch), so a
  // batch nearly always carries one Tid; accumulate per-tid totals in a
  // fixed-size scratch table and apply them under one lock per batch.
  struct TidTotals {
    ThreadId Tid = 0;
    uint64_t Count = 0;
    uint64_t Cycles = 0;
  };
  constexpr size_t MaxBatchTids = 16;
  TidTotals Totals[MaxBatchTids];
  size_t NumTids = 0;

  auto FlushTotals = [&] {
    std::lock_guard<std::mutex> Lock(IngestMutex);
    for (size_t I = 0; I < NumTids; ++I)
      if (Threads.known(Totals[I].Tid))
        Threads.recordSamples(Totals[I].Tid, Totals[I].Count,
                              Totals[I].Cycles);
    NumTids = 0;
  };

  for (size_t I = 0; I < Count; ++I) {
    const pmu::Sample &Sample = Samples[I];

    size_t T = 0;
    while (T < NumTids && Totals[T].Tid != Sample.Tid)
      ++T;
    if (T == NumTids) {
      if (NumTids == MaxBatchTids) {
        // Scratch table full: flush what we have and keep accumulating —
        // a batch carrying more than MaxBatchTids distinct threads costs
        // extra lock acquisitions, never dropped samples (guarded by the
        // 32-tid conservation test).
        FlushTotals();
        T = 0;
      }
      Totals[NumTids++] = TidTotals{Sample.Tid, 0, 0};
    }
    ++Totals[T].Count;
    Totals[T].Cycles += Sample.LatencyCycles;
  }
  FlushTotals();

  // Detection runs over the whole batch through the staged pipeline:
  // decode, prefetched stage-1 counting, branchless filtering, and
  // prefetched detail lookups, outside the ingest lock.
  Detect.handleBatch(Samples, Count, InParallel);
}

ReportRunStats Profiler::runStats(uint64_t AppRuntime) const {
  ReportRunStats Stats;
  Stats.AppRuntime = AppRuntime;
  Stats.SamplesDelivered = SamplesIngested.load(std::memory_order_relaxed);
  Stats.SerialSamples = SerialSampleCount;
  Stats.SerialAverageLatency = SerialLatency.mean();
  Stats.ForkJoinVerified = Phases.isForkJoin();
  Stats.Detection = Detect.stats();
  Stats.MaterializedLines = Shadow.materializedLines();
  Stats.ShadowBytes = Shadow.shadowBytes();
  if (Pages) {
    Stats.MaterializedPages = Pages->materializedPages();
    Stats.PageShadowBytes = Pages->pageBytes();
  }
  Stats.LineEviction.BudgetBytes = Shadow.byteBudget();
  Stats.LineEviction.FootprintBytes = Shadow.footprintBytes();
  Stats.LineEviction.Evicted = Shadow.evictedResidue();
  if (Pages) {
    Stats.PageEviction.BudgetBytes = Pages->byteBudget();
    Stats.PageEviction.FootprintBytes = Pages->footprintBytes();
    Stats.PageEviction.Evicted = Pages->evictedResidue();
  }
  return Stats;
}

ProfileResult Profiler::finish(const sim::SimulationResult &Run,
                               ReportSink *Sink) {
  // The simulator has joined every thread by now, so no ingestion races
  // the report.
  return buildReport(Run.TotalCycles, Sink);
}

ProfileResult Profiler::snapshotEpoch(uint64_t AppRuntime, ReportSink *Sink) {
  // Same fence as finish(): the caller guarantees no ingestion threads are
  // in flight, so the eviction sweep below never races sample delivery.
  // Report first over the full epoch state, then trim: the snapshot the
  // caller streams out sees every grain that was live this epoch; only the
  // *next* epoch pays the eviction.
  ProfileResult Result = buildReport(AppRuntime, Sink);
  Shadow.enforceBudget();
  if (Pages)
    Pages->enforceBudget();
  return Result;
}

ProfileResult Profiler::buildReport(uint64_t AppRuntime, ReportSink *Sink) {
  ProfileResult Result;
  Result.AppRuntime = AppRuntime;
  Result.Detection = Detect.stats();
  Result.SamplesDelivered = SamplesIngested.load(std::memory_order_relaxed);
  Result.SerialSamples = SerialSampleCount;
  Result.SerialAverageLatency = SerialLatency.mean();
  Result.ForkJoinVerified = Phases.isForkJoin();

  Assessor Assess(Threads, Phases, Config.Assess);
  Assess.setSerialLatencyStats(SerialLatency);

  // Feed every materialized line to the incremental builder as it quiesces,
  // then let the builder assess, gate, sort, and stream the findings.
  ReportBuilder Builder(Heap, Globals, Callsites, Config.Geometry,
                        Config.Report);
  Shadow.forEachDetail([&](uint64_t LineBase, const CacheLineInfo &Info) {
    Builder.addLine(Info.snapshot(LineBase));
  });

  ReportBuilder::Output Built = Builder.finalize(Assess, AppRuntime, Sink);
  Result.Reports = std::move(Built.Reports);
  Result.AllInstances = std::move(Built.AllInstances);

  // Page-granularity findings stream after the object findings (the JSON
  // sink closes one array and opens the other on this boundary). Their
  // assessment runs on the same Assessor, with the run-wide local-access
  // totals installed as the EQ.1 fallback baseline for fully-remote pages.
  if (Pages) {
    PageReportBuilder PageBuilder(Heap, Globals, Callsites, Config.Topology,
                                  Config.Geometry);
    Pages->forEachPage(
        [&](uint64_t PageBase, NodeId Home, const PageInfo &Info) {
          PageBuilder.addPage(Info.snapshot(PageBase), Home,
                              Info.numaEvidence());
        });
    Assess.setLocalLatencyTotals(PageBuilder.localAccesses(),
                                 PageBuilder.localCycles());
    PageReportBuilder::Output PageBuilt =
        PageBuilder.finalize(Assess, AppRuntime, Sink);
    Result.PageReports = std::move(PageBuilt.Reports);
    Result.AllPageInstances = std::move(PageBuilt.AllInstances);
  }

  if (Sink) {
    ReportRunStats Stats = runStats(AppRuntime);
    Stats.Findings = Result.AllInstances.size();
    Stats.SignificantFindings = Result.Reports.size();
    Stats.PageFindings = Result.AllPageInstances.size();
    Stats.SignificantPageFindings = Result.PageReports.size();
    Sink->endRun(Stats);
  }
  return Result;
}
