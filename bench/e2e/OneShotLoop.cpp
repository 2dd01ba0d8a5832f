//===- bench/e2e/OneShotLoop.cpp - cheetah-profile session loop -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-shot path `cheetah-profile` takes: one driver::runSession per
/// round under the simulator backend with a JSON sink, whose report is then
/// parsed and appended to a history store as `cheetah-trend append` would.
///
/// runSession is a black box from outside, so the traced run rebuilds it
/// from the same public calls (buildProgram, SimPmu, Simulator::run,
/// Profiler::finish) with a timing sink between the PMU and the profiler,
/// and proves the rebuilt report is byte-identical to runSession's.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "pmu/SimPmu.h"

#include <cstdio>
#include <optional>

using namespace cheetah;
using namespace cheetah::bench;

namespace {

double ms(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Forwards to a JSON sink and stamps the epoch boundary: runSession calls
/// beginRun after the simulation ends and just before Profiler::finish.
class StampingSink : public core::ReportSink {
public:
  explicit StampingSink(std::string &Out) : Json(Out) {}

  void beginRun(const core::ReportRunInfo &Info) override {
    BeginNs = nowNs();
    BeginCpuNs = threadCpuNs();
    Json.beginRun(Info);
  }
  void finding(const core::FalseSharingReport &Report,
               bool Significant) override {
    Json.finding(Report, Significant);
  }
  void pageFinding(const core::PageSharingReport &Report,
                   bool Significant) override {
    Json.pageFinding(Report, Significant);
  }
  void endRun(const core::ReportRunStats &Stats) override {
    Json.endRun(Stats);
  }

  uint64_t BeginNs = 0;
  uint64_t BeginCpuNs = 0;

private:
  core::JsonReportSink Json;
};

/// Sits between SimPmu and the profiler in the traced rebuild, timing
/// every Profiler::ingestBatch call.
class TimedIngestSink : public pmu::SampleSink {
public:
  explicit TimedIngestSink(core::Profiler &P) : P(P) {}
  // SimPmu holds this sink's address.
  TimedIngestSink(const TimedIngestSink &) = delete;
  TimedIngestSink &operator=(const TimedIngestSink &) = delete;

  void threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) override {
    P.threadStarted(Tid, IsMain, Now);
  }
  void threadFinished(ThreadId Tid, bool IsMain, uint64_t EndCycle) override {
    P.threadFinished(Tid, IsMain, EndCycle);
  }
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override {
    uint64_t Start = nowNs();
    P.ingestBatch(Samples, Count);
    BusyNs += nowNs() - Start;
    Delivered += Count;
  }

  uint64_t BusyNs = 0;
  uint64_t Delivered = 0;

private:
  core::Profiler &P;
};

/// One profiled session through driver::runSession, as cheetah-profile
/// runs it. \returns false with \p Error on a session failure.
bool profileOnce(const RunContext &Ctx, StampingSink &Sink,
                 uint64_t &Samples, uint64_t &Seen, std::string &Error) {
  driver::SessionResult Result;
  if (!driver::runSession(*Ctx.Program, Ctx.Config, &Sink, Result, Error))
    return false;
  Samples = Result.Profile.SamplesDelivered;
  Seen = Result.Profile.Detection.SamplesSeen;
  return true;
}

class OneShotStore {
public:
  explicit OneShotStore(const RunContext &Ctx)
      : Path(Ctx.WorkDir + "/oneshot.store.json") {
    std::remove(Path.c_str());
  }
  core::ReportHistory History;
  std::string Path;
};

/// An untraced round: runSession, then the store update.
void untracedRound(const RunContext &Ctx, Tracer &T, Phase Where,
                   int64_t Round, OneShotStore &Store, std::string &Reference,
                   RoundResult &Out) {
  uint64_t Start = nowNs();
  uint64_t CpuStart = threadCpuNs();
  std::string ReportText, Error;
  StampingSink Sink(ReportText);
  uint64_t Samples = 0, Seen = 0;
  if (!profileOnce(Ctx, Sink, Samples, Seen, Error)) {
    Out.Failures.push_back("runSession failed: " + Error);
    return;
  }
  StoreUpdate Update = appendToStore(ReportText, Store.History, Store.Path, T,
                                     Where, Round, -1, Out);
  uint64_t End = nowNs();

  Out.IngestMs = ms(Sink.BeginNs - Start);
  Out.ReportMs = ms(End - Sink.BeginNs);
  Out.IngestCpuMs = ms(Sink.BeginCpuNs - CpuStart);
  Out.Samples = Samples;
  if (Seen != Samples)
    Out.Failures.push_back("detector saw " + std::to_string(Seen) + " of " +
                           std::to_string(Samples) + " samples");
  if (Update.Ok && Where != Phase::Probe)
    checkWorkloadReport(*Ctx.Spec, Update.Report, Out);
  if (Reference.empty())
    Reference = ReportText;
  else if (ReportText != Reference)
    Out.Failures.push_back("report differs from the first round's");
}

/// A traced round: runSession rebuilt from its public calls, each timed.
void tracedRound(const RunContext &Ctx, const Capture &Cap, Tracer &T,
                 Phase Where, int64_t Round, OneShotStore &Store,
                 const std::string &Reference, RoundResult &Out) {
  const driver::SessionConfig &Config = Ctx.Config;
  Timed RoundSpan(T, "round", Where, Round);
  uint64_t CpuStart = threadCpuNs();

  Timed Build(T, "build", Where, Round, RoundSpan.span());
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program =
      driver::buildProgram(*Ctx.Program, Profiler, Config);
  uint64_t BuildNs = Build.stop();

  Timed Sim(T, "sim", Where, Round, RoundSpan.span());
  pmu::SimPmu Pmu(Config.Profiler.Pmu);
  TimedIngestSink Ingest(Profiler);
  Pmu.setSink(&Ingest);
  Pmu.start();
  sim::Simulator Simulator(Config.Profiler.Geometry, Config.Latency);
  if (Config.Profiler.Topology.multiNode())
    Simulator.setTopology(&Config.Profiler.Topology);
  Simulator.addObserver(Pmu.simObserver());
  sim::SimulationResult Run = Simulator.run(Program);
  Pmu.stop();
  uint64_t SimNs = Sim.stop();
  uint64_t IngestEnd = nowNs();
  uint64_t CpuEnd = threadCpuNs();

  Timed Finish(T, "finish", Where, Round, RoundSpan.span());
  std::string ReportText;
  core::JsonReportSink Sink(ReportText);
  Sink.beginRun(driver::makeRunInfo(*Ctx.Program, Config));
  core::ProfileResult Profile = Profiler.finish(Run, &Sink);
  uint64_t FinishNs = Finish.stop();
  T.annotate(Sim.span(), "detect_busy_ns", static_cast<double>(Ingest.BusyNs));
  T.annotate(Sim.span(), "samples", static_cast<double>(Ingest.Delivered));

  StoreUpdate Update = appendToStore(ReportText, Store.History, Store.Path, T,
                                     Where, Round, RoundSpan.span(), Out);
  uint64_t RoundNs = RoundSpan.stop();

  // The native run is the same program with no observer: the base of the
  // profiler's share. It sits outside the round span.
  Timed Native(T, "native_sim", Where, Round);
  sim::Simulator Unobserved(Config.Profiler.Geometry, Config.Latency);
  if (Config.Profiler.Topology.multiNode())
    Unobserved.setTopology(&Config.Profiler.Topology);
  Unobserved.run(Program);
  uint64_t NativeNs = Native.stop();

  uint64_t Samples = Ingest.Delivered;
  uint64_t Seen = Profile.Detection.SamplesSeen;
  Out.IngestMs = ms(IngestEnd - RoundSpan.start());
  Out.ReportMs = ms(RoundSpan.start() + RoundNs - IngestEnd);
  Out.IngestCpuMs = ms(CpuEnd - CpuStart);
  Out.Samples = Samples;
  if (Seen != Samples || Samples != Cap.Samples)
    Out.Failures.push_back("detector saw " + std::to_string(Seen) + " of " +
                           std::to_string(Samples) + " samples (" +
                           std::to_string(Cap.Samples) + " captured)");
  if (ReportText != Reference)
    Out.Failures.push_back("rebuilt session report differs from "
                           "runSession's");
  if (Update.Ok && Where != Phase::Probe)
    checkWorkloadReport(*Ctx.Spec, Update.Report, Out);

  MetricLog &L = Out.Layers;
  L.add("oneshot.build_ms", "ms", ms(BuildNs));
  L.add("oneshot.sim_ms", "ms", ms(SimNs));
  L.add("oneshot.native_sim_ms", "ms", ms(NativeNs));
  L.add("oneshot.profiler_share", "ratio",
        1.0 - static_cast<double>(NativeNs) / static_cast<double>(SimNs));
  L.add("oneshot.finish_ms", "ms", ms(FinishNs));
  L.add("oneshot.samples", "count", static_cast<double>(Samples));
  L.add("oneshot.report_kb", "KB",
        static_cast<double>(ReportText.size()) / 1024.0);
  L.add("detect.busy_ns", "ns",
        static_cast<double>(Ingest.BusyNs) / static_cast<double>(Samples));
  addDetectorLayers(Profiler, core::DetectorStats(), Profile.Detection,
                    Samples, L);
  L.add("trace.round_ms", "ms", ms(RoundNs));
  L.add("trace.coverage", "ratio", T.childCoverage(RoundSpan.span()));
}

} // namespace

void cheetah::bench::runOneShot(const RunContext &Ctx, const Capture &Cap,
                                Tracer &T, Phase Where, RoundSink &Sink,
                                std::string &Reference) {
  if (T.enabled() && Reference.empty()) {
    // The traced rebuild is checked against runSession's own bytes.
    std::string Error;
    StampingSink Stamp(Reference);
    uint64_t Samples = 0, Seen = 0;
    if (!profileOnce(Ctx, Stamp, Samples, Seen, Error)) {
      RoundResult Failed;
      Failed.Failures.push_back("runSession failed: " + Error);
      Sink.roundDone(Failed);
      return;
    }
  }
  int64_t Round = 0;
  while (Sink.startSession()) {
    OneShotStore Store(Ctx);
    std::optional<RoundResult> Pending;
    for (int64_t Session = 0;
         Session < EpochsPerSession && Sink.startRound(); ++Session) {
      RoundResult Result;
      if (T.enabled())
        tracedRound(Ctx, Cap, T, Where, Round++, Store, Reference, Result);
      else
        untracedRound(Ctx, T, Where, Round++, Store, Reference, Result);
      Result.CalibrationMs = calibrationMs();
      if (Pending)
        Sink.roundDone(*Pending);
      Pending = std::move(Result);
    }
    if (!Pending)
      return;
    checkStore(Ctx, Store.Path, Store.History.runs().size(), Where,
               *Pending);
    Sink.roundDone(*Pending);
  }
}
