//===- tools/cheetah-daemon.cpp - Continuous-profiling daemon -------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The always-on half of the fleet-service story: one long-lived profiler
/// instance observing a workload's sample stream epoch after epoch under a
/// fixed shadow-memory byte budget, emitting a complete `cheetah-report-v6`
/// snapshot at every epoch boundary and appending each one into a
/// `cheetah-history-v1` store — so `cheetah-trend show`/`--gate` works live
/// against a running daemon, and week-long attaches cannot grow without
/// bound (cold grains are evicted into the conservation residue and decay
/// back through the stage-1 filter if their traffic returns).
///
/// The sample stream comes through the pmu::SampleSource seam: either the
/// workload runs once under the simulated PMU with a TraceSource recorder
/// teeing the stream (optionally persisting it via `--record-trace=FILE`),
/// or `--backend=trace:FILE` replays a previously recorded
/// `cheetah-trace-v1` file with no simulation at all. Either way the
/// captured per-thread sample stream is replayed through the real
/// interpose runtime (per-thread buffers, batch sink,
/// `PreloadProfilerBridge`) once per epoch on real OS threads — the
/// ingest path a profiled production process would feed, driven as a
/// steady-state traffic generator.
///
/// Examples (an indented line continues the command above it):
///   cheetah-daemon --workload=numa_first_touch --granularity=both
///       --epochs=10 --line-budget=262144 --store=history.json
///   cheetah-daemon --workload=numa_first_touch
///       --backend=trace:first_touch.trace --epochs=10 --store=history.json
///   cheetah-trend show --store=history.json --gate=1.5
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportHistory.h"
#include "driver/PreloadBridge.h"
#include "driver/ProfileSession.h"
#include "driver/SessionOptions.h"
#include "interpose/Preload.h"
#include "pmu/TraceSource.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cheetah;

namespace {

/// Buckets a trace's sample stream per issuing thread — the shape the
/// epoch replay loop feeds to per-thread interpose buffers. Lifecycle
/// events are dropped: every epoch re-attaches its threads under fresh
/// ids through the bridge.
struct PartitionSink : pmu::SampleSink {
  std::map<ThreadId, std::vector<pmu::Sample>> PerThread;

  void threadStarted(ThreadId, bool, uint64_t) override {}
  void threadFinished(ThreadId, bool, uint64_t) override {}
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override {
    for (size_t I = 0; I < Count; ++I)
      PerThread[Samples[I].Tid].push_back(Samples[I]);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags;
  driver::addSessionFlags(Flags);
  Flags.addInt("epochs", 4, "number of snapshot epochs to run");
  Flags.addString("store", "",
                  "cheetah-history-v1 store to append each epoch snapshot "
                  "to (required; created if missing)");
  Flags.addString("run-id-prefix", "epoch",
                  "run ids in the store are <prefix>-<store index>");
  Flags.addString("snapshot-dir", "",
                  "also write each epoch's report JSON into this directory "
                  "as <run-id>.json");
  Flags.addInt("line-budget", 0,
               "line shadow-table byte budget enforced at each epoch "
               "boundary (0 = unbounded)");
  Flags.addInt("page-budget", 0,
               "page shadow-table byte budget (0 = unbounded)");

  std::string Error;
  if (!Flags.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n%s", Error.c_str(),
                 Flags.usage("cheetah-daemon").c_str());
    return 1;
  }
  int64_t Epochs = Flags.getInt("epochs");
  if (Epochs < 1) {
    std::fprintf(stderr, "error: --epochs must be >= 1 (got %lld)\n",
                 static_cast<long long>(Epochs));
    return 1;
  }
  const std::string &StorePath = Flags.getString("store");
  if (StorePath.empty()) {
    std::fprintf(stderr, "error: --store is required\n");
    return 1;
  }
  int64_t LineBudget = Flags.getInt("line-budget");
  int64_t PageBudget = Flags.getInt("page-budget");
  if (LineBudget < 0 || PageBudget < 0) {
    std::fprintf(stderr, "error: budgets must be >= 0\n");
    return 1;
  }

  std::string Name = Flags.getString("workload");
  auto Workload = workloads::createWorkload(Name);
  if (!Workload) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
    return 1;
  }

  driver::SessionOptions Options;
  if (!driver::buildSessionOptions(Flags, Options, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  for (const std::string &Warning : Options.Warnings)
    std::fprintf(stderr, "warning: %s\n", Warning.c_str());

  driver::SessionConfig &Config = Options.Config;
  Config.Profiler.Detect.LineShadowBudgetBytes =
      static_cast<size_t>(LineBudget);
  Config.Profiler.Detect.PageShadowBudgetBytes =
      static_cast<size_t>(PageBudget);

  // The persistent profiler: one instance for the daemon's whole lifetime.
  // The workload's program is built against its heap/globals so every
  // epoch's findings resolve to named allocation sites.
  core::Profiler Profiler(Config.Profiler);
  std::string BuildError;
  sim::ForkJoinProgram Program =
      driver::buildProgram(*Workload, Profiler, Config, &BuildError);
  if (!BuildError.empty()) {
    std::fprintf(stderr, "error: %s\n", BuildError.c_str());
    return 1;
  }

  // Acquire the trace through the backend seam. Simulator backend: run the
  // workload once with a TraceSource recorder teeing the simulated PMU's
  // stream (to disk too, when --record-trace asks). Trace backend: parse
  // the recorded file, skipping simulation entirely. The profiler is *not*
  // the capture sink — all its traffic arrives through the interpose
  // replay below, the path a profiled production process would feed.
  std::unique_ptr<pmu::TraceSource> Trace =
      driver::makeCaptureSource(Config);
  pmu::SourceStatus Status = Trace->start();
  if (!Status.Available) {
    std::fprintf(stderr, "error: %s\n", Status.Reason.c_str());
    return 1;
  }
  if (Config.Backend == driver::SampleBackend::Simulator) {
    sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
    if (Config.Profiler.Topology.multiNode())
      Sim.setTopology(&Config.Profiler.Topology);
    Sim.addObserver(Trace->simObserver());
    sim::SimulationResult Capture = Sim.run(Program);
    Trace->setRunCycles(Capture.TotalCycles);
    pmu::SourceStatus Stopped = Trace->stop();
    if (!Stopped.Available) {
      std::fprintf(stderr, "error: %s\n", Stopped.Reason.c_str());
      return 1;
    }
  }

  // One partition pass over the recorded stream: per-thread sample
  // vectors for the replay threads.
  PartitionSink Partition;
  Trace->replayInto(Partition);

  std::vector<ThreadId> ChildTids;
  size_t CapturedSamples = 0;
  ThreadId MaxTid = 0;
  for (const auto &Entry : Partition.PerThread) {
    CapturedSamples += Entry.second.size();
    if (Entry.first != 0)
      ChildTids.push_back(Entry.first);
    if (Entry.first > MaxTid)
      MaxTid = Entry.first;
  }
  std::fprintf(stderr,
               "cheetah-daemon: captured %zu samples over %zu threads "
               "(%llu cycles); replaying %lld epochs\n",
               CapturedSamples, Partition.PerThread.size(),
               static_cast<unsigned long long>(Trace->runCycles()),
               static_cast<long long>(Epochs));

  // Resume an existing store so restarted daemons keep appending.
  core::ReportHistory History;
  if (!core::ReportHistory::load(StorePath, /*MissingIsEmpty=*/true, History,
                                 Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  driver::PreloadProfilerBridge Bridge(Profiler);
  const std::string &Prefix = Flags.getString("run-id-prefix");
  const std::string &SnapshotDir = Flags.getString("snapshot-dir");

  for (int64_t Epoch = 0; Epoch < Epochs; ++Epoch) {
    // Serial phase: the main thread replays its own captured samples
    // before any child attaches (re-establishing the no-false-sharing
    // latency baseline each epoch, like the real serial prologue would).
    auto MainIt = Partition.PerThread.find(0);
    if (MainIt != Partition.PerThread.end()) {
      for (const pmu::Sample &Sample : MainIt->second)
        interpose::recordSample(Sample);
      interpose::flushThreadSamples();
    }

    // Parallel phase: thread registries assert on id reuse, so every epoch
    // attaches its children under fresh ids (the real daemon sees fresh
    // OS tids on every attach too). Sample Tids are rewritten to match.
    ThreadId Stride = MaxTid + 1;
    std::vector<std::thread> Replayers;
    for (ThreadId Tid : ChildTids)
      Bridge.attachThread(static_cast<ThreadId>(Epoch) * Stride + Tid);
    for (ThreadId Tid : ChildTids) {
      ThreadId EpochTid = static_cast<ThreadId>(Epoch) * Stride + Tid;
      const std::vector<pmu::Sample> &Samples = Partition.PerThread[Tid];
      Replayers.emplace_back([EpochTid, &Samples] {
        interpose::threadAttach();
        for (pmu::Sample Sample : Samples) {
          Sample.Tid = EpochTid;
          interpose::recordSample(Sample);
        }
        interpose::flushThreadSamples();
      });
    }
    for (std::thread &Replayer : Replayers)
      Replayer.join();
    for (ThreadId Tid : ChildTids)
      Bridge.detachThread(static_cast<ThreadId>(Epoch) * Stride + Tid);

    // Epoch boundary: stream the full snapshot, then trim the
    // shadow tables back under budget for the next epoch. Every replay
    // thread is joined, so the snapshot races nothing.
    std::string ReportText;
    core::JsonReportSink Sink(ReportText);
    core::ReportRunInfo Info = driver::makeRunInfo(*Workload, Config);
    Info.Tool = "cheetah-daemon";
    Sink.beginRun(Info);
    Profiler.snapshotEpoch(Bridge.elapsedCycles(), &Sink);

    core::ParsedReport Report;
    if (!core::parseRunDocument(ReportText, Report, Error)) {
      std::fprintf(stderr, "error: epoch %lld snapshot: %s\n",
                   static_cast<long long>(Epoch), Error.c_str());
      return 1;
    }
    std::string RunId = Prefix + "-" + std::to_string(History.runs().size());
    if (!History.appendRun(Report, RunId, Error)) {
      std::fprintf(stderr, "error: appending epoch %lld: %s\n",
                   static_cast<long long>(Epoch), Error.c_str());
      return 1;
    }
    // The store is rewritten after every epoch so trend tooling reads a
    // complete, valid ledger at any point in the daemon's life: writeFile
    // replaces it atomically, so neither a reader nor a restart after a
    // kill ever sees a partial store.
    if (!writeFile(StorePath, History.serialize(), Error) ||
        (!SnapshotDir.empty() &&
         !writeFile(SnapshotDir + "/" + RunId + ".json", ReportText, Error))) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }

    std::fprintf(
        stderr,
        "cheetah-daemon: epoch %lld -> %s (line footprint %zu/%zu bytes, "
        "%llu grains evicted)\n",
        static_cast<long long>(Epoch), RunId.c_str(),
        Profiler.shadow().footprintBytes(),
        Profiler.shadow().byteBudget(),
        static_cast<unsigned long long>(
            Profiler.shadow().evictedResidue().Grains));
  }

  // Retire the main thread and tear down the ingest wiring; every epoch
  // already streamed its own snapshot, so no final report is built.
  Bridge.finish();
  std::fprintf(stderr, "cheetah-daemon: %lld epochs appended to %s\n",
               static_cast<long long>(Epochs), StorePath.c_str());
  return 0;
}
