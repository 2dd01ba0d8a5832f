//===- bench/e2e/DaemonLoop.cpp - cheetah-daemon epoch loop ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon path, mirroring tools/cheetah-daemon.cpp call for call: each
/// epoch replays the partitioned capture through interpose::recordSample
/// and the PreloadProfilerBridge on real threads, then snapshots the
/// profiler into a JSON sink, parses the snapshot, appends it to the
/// history store and rewrites the store file.
///
/// Each session owns a fresh profiler, bridge and store and lasts a fixed
/// number of epochs, so the state an epoch sees (thread registry size,
/// store size) does not depend on how many rounds fit into a run.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "driver/PreloadBridge.h"
#include "interpose/Preload.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>

using namespace cheetah;
using namespace cheetah::bench;

namespace {

/// What the traced run's timed sink saw on one thread.
struct IngestTally {
  uint64_t BusyNs = 0;
  uint64_t Batches = 0;
  uint64_t Samples = 0;
};
thread_local IngestTally Tally;

struct ReplayThread {
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t CpuNs = 0;
  IngestTally Ingest;
};

void spinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

double ms(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Releases and joins the replay threads however the epoch leaves scope,
/// so an exception cannot strand a thread spinning at the barrier.
struct ReplayerGuard {
  std::vector<std::thread> &Replayers;
  std::atomic<bool> &Go;
  ~ReplayerGuard() {
    Go.store(true, std::memory_order_release);
    for (std::thread &Replayer : Replayers)
      if (Replayer.joinable())
        Replayer.join();
  }
};

class DaemonSession {
public:
  DaemonSession(const RunContext &Ctx, const Capture &Cap, Tracer &T,
                Phase Where)
      : Ctx(Ctx), Cap(Cap), T(T), Where(Where), Profiler(Ctx.Config.Profiler),
        Program(driver::buildProgram(*Ctx.Program, Profiler, Ctx.Config)),
        Bridge(Profiler), StorePath(Ctx.WorkDir + "/daemon.store.json") {
    std::remove(StorePath.c_str());
    for (const auto &Entry : Cap.PerThread) {
      if (Entry.first != 0)
        ChildTids.push_back(Entry.first);
      MaxTid = std::max(MaxTid, Entry.first);
    }
    if (T.enabled()) {
      // The traced run swaps the bridge's gated sink for one that times
      // Profiler::ingestBatch, splitting interpose time from detect time.
      // Untraced runs keep the bridge's own sink.
      core::Profiler &P = Profiler;
      interpose::setSampleSink([&P](const pmu::Sample *Samples, size_t N) {
        uint64_t Start = nowNs();
        P.ingestBatch(Samples, N);
        Tally.BusyNs += nowNs() - Start;
        ++Tally.Batches;
        Tally.Samples += N;
      });
    }
  }

  // The installed sink holds the profiler's address.
  DaemonSession(const DaemonSession &) = delete;
  DaemonSession &operator=(const DaemonSession &) = delete;

  void epoch(int64_t Epoch, int64_t Round, RoundResult &Out);
  size_t storedRuns() const { return History.runs().size(); }
  const std::string &storePath() const { return StorePath; }

private:
  const RunContext &Ctx;
  const Capture &Cap;
  Tracer &T;
  Phase Where;
  core::Profiler Profiler;
  /// Built against the profiler so findings resolve to named sites; the
  /// daemon never runs it.
  sim::ForkJoinProgram Program;
  driver::PreloadProfilerBridge Bridge;
  core::ReportHistory History;
  std::string StorePath;
  std::vector<ThreadId> ChildTids;
  ThreadId MaxTid = 0;
};

void DaemonSession::epoch(int64_t Epoch, int64_t Round, RoundResult &Out) {
  core::DetectorStats Before = Profiler.detector().stats();
  uint64_t EvictedLines = Profiler.shadow().evictedResidue().Grains;
  uint64_t EvictedPages =
      Profiler.pages() ? Profiler.pages()->evictedResidue().Grains : 0;

  Timed RoundSpan(T, "round", Where, Round);
  uint64_t Replayed = 0;
  Tally = IngestTally();

  // Serial phase: main replays its own samples before any child attaches.
  uint64_t MainCpu = threadCpuNs();
  Timed Serial(T, "serial_replay", Where, Round, RoundSpan.span());
  auto MainIt = Cap.PerThread.find(0);
  if (MainIt != Cap.PerThread.end()) {
    for (const pmu::Sample &Sample : MainIt->second)
      interpose::recordSample(Sample);
    interpose::flushThreadSamples();
    Replayed += MainIt->second.size();
  }
  uint64_t SerialNs = Serial.stop();

  // Parallel phase under fresh thread ids, as the daemon attaches them.
  ThreadId Stride = MaxTid + 1;
  auto EpochTid = [&](ThreadId Tid) {
    return static_cast<ThreadId>(Epoch) * Stride + Tid;
  };
  Timed Attach(T, "attach", Where, Round, RoundSpan.span());
  for (ThreadId Tid : ChildTids)
    Bridge.attachThread(EpochTid(Tid));
  uint64_t AttachNs = Attach.stop();
  MainCpu = threadCpuNs() - MainCpu;

  // The replay threads stand in for application threads that run at the
  // same time. They start together behind a spin barrier: on a virtual
  // machine, waking an idle vCPU takes milliseconds, which would stagger
  // the threads (and so change how much they contend) by whatever the
  // host is doing. The parallel replay runs from the barrier's release to
  // the last thread's end; starting and joining the threads is the
  // traffic generator's cost and is not timed.
  Timed Spawn(T, "spawn", Where, Round, RoundSpan.span());
  std::vector<ReplayThread> Threads(ChildTids.size());
  std::vector<std::thread> Replayers;
  std::atomic<size_t> Ready{0};
  std::atomic<bool> Go{false};
  ReplayerGuard Guard{Replayers, Go};
  for (size_t I = 0; I < ChildTids.size(); ++I) {
    const std::vector<pmu::Sample> &Samples = Cap.PerThread.at(ChildTids[I]);
    Replayed += Samples.size();
    Replayers.emplace_back([&Ready, &Go, &Result = Threads[I],
                            Tid = EpochTid(ChildTids[I]), &Samples] {
      Ready.fetch_add(1, std::memory_order_release);
      while (!Go.load(std::memory_order_acquire))
        spinPause();
      uint64_t Cpu = threadCpuNs();
      Result.Start = nowNs();
      Tally = IngestTally();
      interpose::threadAttach();
      for (pmu::Sample Sample : Samples) {
        Sample.Tid = Tid;
        interpose::recordSample(Sample);
      }
      interpose::flushThreadSamples();
      Result.Ingest = Tally;
      Result.End = nowNs();
      Result.CpuNs = threadCpuNs() - Cpu;
    });
  }
  while (Ready.load(std::memory_order_acquire) < Threads.size())
    spinPause();
  Spawn.stop();
  uint64_t Released = nowNs();
  Go.store(true, std::memory_order_release);
  for (std::thread &Replayer : Replayers)
    Replayer.join();
  uint64_t Joined = nowNs();
  uint64_t LastEnd = Released;
  for (const ReplayThread &R : Threads)
    LastEnd = std::max(LastEnd, R.End);
  uint64_t ParallelNs = LastEnd - Released;
  int64_t ParallelSpan = -1;
  if (T.enabled()) {
    Span Parallel;
    Parallel.Name = "parallel_replay";
    Parallel.Where = Where;
    Parallel.Round = Round;
    Parallel.Start = Released;
    Parallel.End = LastEnd;
    Parallel.Parent = RoundSpan.span();
    ParallelSpan = T.record(Parallel);
    Span Join = Parallel;
    Join.Name = "join";
    Join.Start = LastEnd;
    Join.End = Joined;
    T.record(std::move(Join));
  }

  uint64_t DetachCpu = threadCpuNs();
  Timed Detach(T, "detach", Where, Round, RoundSpan.span());
  for (ThreadId Tid : ChildTids)
    Bridge.detachThread(EpochTid(Tid));
  uint64_t DetachNs = Detach.stop();
  MainCpu += threadCpuNs() - DetachCpu;
  uint64_t IngestNs = SerialNs + AttachNs + ParallelNs + DetachNs;

  // Epoch boundary: snapshot (quiesce, assess, build, evict), then the
  // store update.
  Timed Snapshot(T, "snapshot", Where, Round, RoundSpan.span());
  std::string ReportText;
  core::JsonReportSink Sink(ReportText);
  core::ReportRunInfo Info = driver::makeRunInfo(*Ctx.Program, Ctx.Config);
  Info.Tool = "cheetah-daemon";
  Sink.beginRun(Info);
  Profiler.snapshotEpoch(Bridge.elapsedCycles(), &Sink);
  uint64_t SnapshotNs = Snapshot.stop();

  StoreUpdate Update = appendToStore(ReportText, History, StorePath, T,
                                     Where, Round, RoundSpan.span(), Out);
  uint64_t ReportNs = nowNs() - Snapshot.start();
  RoundSpan.stop();

  uint64_t IngestCpu = MainCpu;
  for (const ReplayThread &R : Threads)
    IngestCpu += R.CpuNs;
  Out.IngestMs = ms(IngestNs);
  Out.ReportMs = ms(ReportNs);
  Out.IngestCpuMs = ms(IngestCpu);
  Out.Samples = Replayed;
  Out.ParallelIngest = true;

  // Gates: no sample lost between recordSample and the detector, the
  // workload's own report checks, and — for budgeted tables — eviction
  // has fired from the first enforcement on.
  core::DetectorStats After = Profiler.detector().stats();
  uint64_t Seen = After.SamplesSeen - Before.SamplesSeen;
  if (Seen != Replayed)
    Out.Failures.push_back("detector saw " + std::to_string(Seen) + " of " +
                           std::to_string(Replayed) + " replayed samples");
  if (Update.Ok && Where != Phase::Probe)
    checkWorkloadReport(*Ctx.Spec, Update.Report, Out);
  uint64_t LineResidue = Profiler.shadow().evictedResidue().Grains;
  uint64_t PageResidue =
      Profiler.pages() ? Profiler.pages()->evictedResidue().Grains : 0;
  if (Ctx.Spec->Checks == Gate::ColdEvict && Where != Phase::Probe &&
      LineResidue + PageResidue == 0)
    Out.Failures.push_back("eviction residue empty after budget enforcement");

  if (!T.enabled())
    return;
  // Per-layer observations, traced runs only.
  uint64_t BusyNs = Tally.BusyNs, Batches = Tally.Batches;
  uint64_t Slowest = 0, Fastest = UINT64_MAX, ReplayNs = SerialNs;
  for (size_t I = 0; I < Threads.size(); ++I) {
    const ReplayThread &R = Threads[I];
    Span S;
    S.Name = "replay_thread";
    S.Where = Where;
    S.Round = Round;
    S.Thread = static_cast<uint32_t>(I + 1);
    S.Start = R.Start;
    S.End = R.End;
    S.Parent = ParallelSpan;
    S.Attrs = {{"samples", static_cast<double>(R.Ingest.Samples)},
               {"batches", static_cast<double>(R.Ingest.Batches)},
               {"detect_busy_ns", static_cast<double>(R.Ingest.BusyNs)}};
    T.record(std::move(S));
    BusyNs += R.Ingest.BusyNs;
    Batches += R.Ingest.Batches;
    ReplayNs += R.End - R.Start;
    Slowest = std::max(Slowest, R.End - R.Start);
    Fastest = std::min(Fastest, R.End - R.Start);
  }
  double PerSample = 1.0 / static_cast<double>(Replayed);
  MetricLog &L = Out.Layers;
  L.add("interpose.self_ns", "ns",
        static_cast<double>(ReplayNs - BusyNs) * PerSample);
  L.add("interpose.batches", "count", static_cast<double>(Batches));
  L.add("interpose.batch_mean", "samples",
        static_cast<double>(Replayed) / static_cast<double>(Batches));
  double Children = static_cast<double>(ChildTids.size());
  L.add("driver.attach_us", "us",
        static_cast<double>(AttachNs) / 1e3 / Children);
  L.add("driver.detach_us", "us",
        static_cast<double>(DetachNs) / 1e3 / Children);
  L.add("detect.busy_ns", "ns", static_cast<double>(BusyNs) * PerSample);
  L.add("detect.thread_skew", "ratio",
        static_cast<double>(Slowest) / static_cast<double>(Fastest));
  addDetectorLayers(Profiler, Before, After, Replayed, L);
  L.add("detect.evicted_line_grains", "count",
        static_cast<double>(LineResidue - EvictedLines));
  L.add("detect.evicted_page_grains", "count",
        static_cast<double>(PageResidue - EvictedPages));
  L.add("report.snapshot_ms", "ms", ms(SnapshotNs));
  L.add("trace.round_ms", "ms", ms(IngestNs + ReportNs));
  L.add("trace.coverage", "ratio", T.childCoverage(RoundSpan.span()));
}

} // namespace

void cheetah::bench::runDaemon(const RunContext &Ctx, const Capture &Cap,
                               Tracer &T, Phase Where, RoundSink &Sink) {
  int64_t Round = 0;
  while (Sink.startSession()) {
    DaemonSession Session(Ctx, Cap, T, Where);
    // Each round is handed over one step late, so the session's closing
    // round also carries the final store check.
    std::optional<RoundResult> Pending;
    for (int64_t Epoch = 0;
         Epoch < EpochsPerSession && Sink.startRound(); ++Epoch) {
      RoundResult Result;
      Session.epoch(Epoch, Round++, Result);
      Result.CalibrationMs = calibrationMs();
      if (Pending)
        Sink.roundDone(*Pending);
      Pending = std::move(Result);
    }
    if (!Pending)
      return;
    checkStore(Ctx, Session.storePath(), Session.storedRuns(), Where,
               *Pending);
    Sink.roundDone(*Pending);
  }
}
