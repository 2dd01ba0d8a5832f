//===- core/Profiler.h - The Cheetah profiler facade ------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Cheetah runtime assembled (Figure 2): the FS detection module over
/// shadow memory, the FS assessment module over the fork-join phase model,
/// and report generation. Data collection is *not* owned here: the
/// profiler is the consumer end of the pmu::SampleSource seam
/// (a pmu::SampleSink), so any backend — the simulated PMU, a recorded
/// trace, real perf_event — delivers thread lifecycle events and sample
/// batches through one interface and the analysis side cannot tell them
/// apart. Backend construction and wiring live in driver/ProfileSession.
///
/// Typical use:
/// \code
///   core::ProfilerConfig Config;
///   core::Profiler Profiler(Config);
///   // ... allocate workload objects from Profiler.heap()/globals() ...
///   Source->setSink(&Profiler);    // any pmu::SampleSource backend
///   Source->start();
///   // ... backend delivers lifecycle events and sample batches ...
///   Source->stop();
///   core::ProfileResult Result = Profiler.finish(Run);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_PROFILER_H
#define CHEETAH_CORE_PROFILER_H

#include "core/assess/Assessor.h"
#include "core/detect/Detector.h"
#include "core/detect/PageTable.h"
#include "core/report/Report.h"
#include "core/report/ReportBuilder.h"
#include "core/report/ReportSink.h"
#include "mem/NumaTopology.h"
#include "pmu/PmuConfig.h"
#include "pmu/Sample.h"
#include "pmu/SampleSource.h"
#include "runtime/GlobalRegistry.h"
#include "runtime/HeapAllocator.h"
#include "runtime/PhaseTracker.h"
#include "runtime/ThreadRegistry.h"
#include "sim/Simulator.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace cheetah {
namespace core {

/// Simulated heap arena (the paper's pre-allocated mmap block). The base
/// mirrors the 0x40000000-ish addresses in Figure 5.
constexpr uint64_t HeapArenaBase = 0x4000'0000;
constexpr uint64_t HeapArenaSize = 64ull << 20;
/// Simulated global data segment.
constexpr uint64_t GlobalSegmentBase = 0x1000'0000;
constexpr uint64_t GlobalSegmentSize = 16ull << 20;

/// All profiler tunables in one place.
struct ProfilerConfig {
  CacheGeometry Geometry{64};
  pmu::PmuConfig Pmu;
  DetectorConfig Detect;
  AssessorConfig Assess;
  /// Simulated NUMA machine (node count, page size, thread affinity). Only
  /// consulted when Detect.TrackPages is on; the default single-node
  /// topology keeps all line-granularity behavior untouched.
  NumaTopology Topology;

  /// Report gating thresholds; the defaults live on ReportGate itself so
  /// the profiler and direct ReportBuilder users can never diverge. Page
  /// findings have a fixed gate (PageReportBuilder.h).
  ReportGate Report;
};

/// Output of one profiled execution.
struct ProfileResult {
  /// Significant false-sharing instances, highest predicted improvement
  /// first. This is what Cheetah prints.
  std::vector<FalseSharingReport> Reports;
  /// Every object with detailed tracking (including true sharing and
  /// insignificant instances, whose word tables are empty) for tests and
  /// ablations.
  std::vector<FalseSharingReport> AllInstances;

  /// Significant page-granularity (NUMA) findings, worst first; empty
  /// unless page tracking ran.
  std::vector<PageSharingReport> PageReports;
  /// Every tracked page, same order; the insignificant ones have empty
  /// line tables.
  std::vector<PageSharingReport> AllPageInstances;

  DetectorStats Detection;
  uint64_t SamplesDelivered = 0;
  uint64_t SerialSamples = 0;
  double SerialAverageLatency = 0.0;
  uint64_t AppRuntime = 0;
  bool ForkJoinVerified = true;

  /// \returns the report whose callsite or global name contains \p Needle,
  /// or nullptr (search over significant reports).
  const FalseSharingReport *findReport(const std::string &Needle) const;
};

/// The assembled Cheetah profiler: the sink every sampling backend drains
/// into.
class Profiler : public pmu::SampleSink {
public:
  explicit Profiler(const ProfilerConfig &Config);

  /// The custom heap: workloads allocate their objects here so reports can
  /// name allocation sites.
  runtime::HeapAllocator &heap() { return Heap; }

  /// The global-variable registry (simulated .data segment).
  runtime::GlobalRegistry &globals() { return Globals; }

  /// Interns an allocation callsite for use with heap().allocate().
  runtime::CallsiteId internCallsite(const std::string &File, unsigned Line);

  /// Finalizes detection + assessment after the simulation completed.
  /// When \p Sink is non-null, findings stream through it one object at a
  /// time — highest predicted improvement first, every tracked instance
  /// with its significance flag — followed by endRun() with the run
  /// stats. beginRun() is the caller's to invoke beforehand: run identity
  /// (workload name, flags) lives outside the profiler.
  ProfileResult finish(const sim::SimulationResult &Run,
                       ReportSink *Sink = nullptr);

  /// Continuous-session epoch boundary: build and (optionally) stream a
  /// complete report over everything currently live — identical
  /// in shape to a finish() report — then enforce the shadow byte budgets,
  /// evicting cold grains and folding their counters into the per-stage
  /// residue so the next epoch starts under budget. The caller must
  /// guarantee no ingestion is in flight (same fence finish() relies on:
  /// every sampled thread joined or detached). Unlike finish(), the
  /// profiler stays live: call it once per epoch, then finish() at
  /// teardown.
  ProfileResult snapshotEpoch(uint64_t AppRuntime, ReportSink *Sink = nullptr);

  /// Run-level stats in sink form (valid after ingestion quiesces).
  ReportRunStats runStats(uint64_t AppRuntime) const;

  // pmu::SampleSink implementation — the only way samples and thread
  // lifecycle reach the profiler, whichever backend produces them.

  /// Thread \p Tid began at \p Now; the main thread (IsMain) opens the
  /// program, children open/extend the parallel phase.
  void threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) override;

  /// Thread \p Tid finished at \p EndCycle.
  void threadFinished(ThreadId Tid, bool IsMain, uint64_t EndCycle) override;

  /// Batched sample ingestion, safe to call from many application threads
  /// concurrently: per-thread registry totals are accumulated per batch
  /// and applied under one short lock, serial-phase latencies are added
  /// one by one in sample order, and the lock-free detection hot path runs
  /// without any profiler-wide serialization. Every backend delivers
  /// here: the interpose runtime's per-thread buffers, the perf_event ring
  /// drains, and the simulated PMU and trace replay, whose batches of at
  /// most pmu::SampleBatchCapacity never span a lifecycle event. The
  /// report does not depend on how a stream is split into batches.
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override;

  /// Current phase state (exposed for tests).
  const runtime::PhaseTracker &phases() const { return Phases; }
  const runtime::ThreadRegistry &threadRegistry() const { return Threads; }
  const ShadowMemory &shadow() const { return Shadow; }
  const Detector &detector() const { return Detect; }
  /// The page table (nullptr when Detect.TrackPages is off).
  const PageTable *pages() const { return Pages.get(); }

private:
  /// Shared body of finish()/snapshotEpoch(): assess, build, and stream
  /// the report over the tables. No ingestion may be in flight.
  ProfileResult buildReport(uint64_t AppRuntime, ReportSink *Sink);

  ProfilerConfig Config;
  runtime::HeapAllocator Heap;
  runtime::GlobalRegistry Globals;
  runtime::CallsiteTable Callsites;
  runtime::ThreadRegistry Threads;
  runtime::PhaseTracker Phases;
  ShadowMemory Shadow;
  /// Page-granularity metadata, allocated only when page tracking is on.
  std::unique_ptr<PageTable> Pages;
  Detector Detect;
  /// Guards Threads/Phases/SerialLatency bookkeeping during concurrent
  /// ingestion (the detection path is internally thread-safe and does not
  /// take it).
  std::mutex IngestMutex;
  OnlineStats SerialLatency;
  uint64_t SerialSampleCount = 0;
  /// Samples accepted through ingestBatch — the profiler's own count, so
  /// run stats never depend on which backend produced the stream.
  std::atomic<uint64_t> SamplesIngested{0};
  bool MainSeen = false;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_PROFILER_H
