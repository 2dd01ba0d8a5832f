//===- driver/ProfileSession.cpp - Workload-under-profiler driver ---------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"

#include "pmu/SimPmu.h"
#include "pmu/TraceSource.h"
#include "support/Assert.h"
#include "support/StringUtils.h"

using namespace cheetah;
using namespace cheetah::driver;

sim::ForkJoinProgram
cheetah::driver::buildProgram(const workloads::Workload &Workload,
                              core::Profiler &Profiler,
                              const SessionConfig &Config,
                              std::string *Error) {
  // Without Error a workload the arenas cannot hold is a programming error;
  // with it, the first failure is reported and the build runs on with the
  // failed object at address 0 (the caller discards the program).
  auto Fail = [Error](const std::string &Message) {
    CHEETAH_ASSERT(Error != nullptr, Message.c_str());
    if (Error->empty())
      *Error = Message;
  };
  workloads::WorkloadContext Ctx;
  Ctx.Geometry = Config.Profiler.Geometry;
  Ctx.Allocate = [&Profiler, Fail](uint64_t Size, const std::string &File,
                                   unsigned Line) {
    runtime::CallsiteId Site = Profiler.internCallsite(File, Line);
    uint64_t Address = Profiler.heap().allocate(Size, /*Tid=*/0, Site);
    if (Address == 0)
      Fail(formatString("workload exhausted the heap arena: %s:%u asks for "
                        "%s bytes (arena %s bytes)",
                        File.c_str(), Line, formatWithCommas(Size).c_str(),
                        formatWithCommas(core::HeapArenaSize).c_str()));
    return Address;
  };
  Ctx.DefineGlobal = [&Profiler, Fail](const std::string &Name, uint64_t Size,
                                       bool LineAligned) {
    uint64_t Address = LineAligned
                           ? Profiler.globals().defineAligned(Name, Size)
                           : Profiler.globals().define(Name, Size);
    if (Address == 0)
      Fail(formatString("workload exhausted the global segment: global '%s' "
                        "asks for %s bytes (segment %s bytes)",
                        Name.c_str(), formatWithCommas(Size).c_str(),
                        formatWithCommas(core::GlobalSegmentSize).c_str()));
    return Address;
  };
  return Workload.build(Ctx, Config.Workload);
}

core::ReportRunInfo
cheetah::driver::makeRunInfo(const workloads::Workload &Workload,
                             const SessionConfig &Config) {
  core::ReportRunInfo Info;
  Info.Tool = "cheetah";
  Info.Workload = Workload.name();
  Info.Threads = Config.Workload.Threads;
  Info.Scale = Config.Workload.Scale;
  Info.LineSize = Config.Profiler.Geometry.lineSize();
  Info.SamplingPeriod = Config.Profiler.Pmu.SamplingPeriod;
  Info.Seed = Config.Workload.Seed;
  Info.FixApplied = Config.Workload.FixFalseSharing;
  Info.NumaNodes = Config.Profiler.Topology.nodeCount();
  Info.PageSize =
      Config.Profiler.Detect.TrackPages ? Config.Profiler.Topology.pageSize()
                                        : 0;
  if (Config.Profiler.Detect.TrackPages)
    Info.Granularity =
        Config.Profiler.Detect.TrackLines ? "both" : "page";
  else
    Info.Granularity = "line";
  return Info;
}

std::string
cheetah::driver::formatGrainSummaries(const core::ProfileResult &Profile,
                                      const core::DetectorConfig &Detect) {
  auto Line = [](const char *Grain, size_t Tracked, size_t Significant,
                 uint64_t Samples, uint64_t Invalidations,
                 const std::string &Remote) {
    return std::string("grain ") + Grain + ": " + formatWithCommas(Tracked) +
           " tracked, " + formatWithCommas(Significant) +
           " significant findings, " + formatWithCommas(Samples) +
           " samples (" + formatWithCommas(Invalidations) + " invalidations" +
           Remote + ")\n";
  };
  const core::DetectorStats &Stats = Profile.Detection;
  std::string Text;
  if (Detect.TrackLines)
    Text += Line("line", Profile.Findings.size(),
                 core::significant(Profile.Findings).size(),
                 Stats.SamplesRecorded, Stats.Invalidations, "");
  if (Detect.TrackPages)
    Text += Line("page", Profile.PageFindings.size(),
                 core::significant(Profile.PageFindings).size(),
                 Stats.PageSamplesRecorded, Stats.PageInvalidations,
                 ", " + formatWithCommas(Stats.RemoteSamples) + " remote");
  return Text;
}

std::unique_ptr<pmu::TraceSource>
cheetah::driver::makeCaptureSource(const SessionConfig &Config) {
  if (Config.Backend == SampleBackend::TraceReplay)
    return std::make_unique<pmu::TraceSource>(Config.ReplayTracePath);
  return std::make_unique<pmu::TraceSource>(
      std::make_unique<pmu::SimPmu>(Config.Profiler.Pmu),
      Config.RecordTracePath, Config.Profiler.Pmu.SamplingPeriod);
}

bool cheetah::driver::runSession(const workloads::Workload &Workload,
                                 const SessionConfig &Config,
                                 core::ReportSink *Sink,
                                 SessionResult &Result, std::string &Error) {
  Result = SessionResult();
  Result.ProfilerEnabled = Config.EnableProfiler;

  core::Profiler Profiler(Config.Profiler);
  // The program is built against the profiler's heap/globals in *every*
  // backend mode: replay needs the identical arena layout the recorded
  // addresses resolve against, or every finding would lose its name.
  std::string BuildError;
  sim::ForkJoinProgram Program =
      buildProgram(Workload, Profiler, Config, &BuildError);
  if (!BuildError.empty()) {
    Error = BuildError;
    return false;
  }

  if (Config.Backend == SampleBackend::TraceReplay) {
    if (!Config.EnableProfiler) {
      Error = "--backend=trace:FILE requires the profiler (a native "
              "baseline has nothing to replay into)";
      return false;
    }
    if (!Config.RecordTracePath.empty()) {
      Error = "--record-trace cannot be combined with --backend=trace:FILE "
              "(the recording would duplicate the input)";
      return false;
    }
    pmu::TraceSource Replay(Config.ReplayTracePath);
    Replay.setSink(&Profiler);
    pmu::SourceStatus Status = Replay.start();
    if (!Status.Available) {
      Error = Status.Reason;
      return false;
    }
    Replay.drain();
    // The recorded run is authoritative for everything the simulator
    // would have produced: total cycles for the report's runtime, and the
    // recording backend's sampling period for the run header.
    Result.Run.TotalCycles = Replay.runCycles();
    SessionConfig RunInfoConfig = Config;
    RunInfoConfig.Profiler.Pmu.SamplingPeriod = Replay.samplingPeriod();
    if (Sink)
      Sink->beginRun(makeRunInfo(Workload, RunInfoConfig));
    Result.Profile = Profiler.finish(Result.Run, Sink);
    return true;
  }

  // Simulator backend: the simulated PMU observes the run, optionally
  // wrapped in a trace recorder teeing the stream to a file.
  std::unique_ptr<pmu::SampleSource> Source;
  pmu::TraceSource *Recorder = nullptr;
  if (Config.EnableProfiler) {
    Source = std::make_unique<pmu::SimPmu>(Config.Profiler.Pmu);
    if (!Config.RecordTracePath.empty()) {
      auto Tee = std::make_unique<pmu::TraceSource>(
          std::move(Source), Config.RecordTracePath,
          Config.Profiler.Pmu.SamplingPeriod);
      Recorder = Tee.get();
      Source = std::move(Tee);
    }
    Source->setSink(&Profiler);
    pmu::SourceStatus Status = Source->start();
    CHEETAH_ASSERT(Status.Available, "simulated backend cannot fail");
    (void)Status;
  }

  sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
  // NUMA latency is a machine property, so native (unprofiled) runs model
  // it too; the single-node default leaves the simulator untouched.
  if (Config.Profiler.Topology.multiNode())
    Sim.setTopology(&Config.Profiler.Topology);
  if (Source)
    Sim.addObserver(Source->simObserver());
  Result.Run = Sim.run(Program);
  if (Source) {
    if (Recorder)
      Recorder->setRunCycles(Result.Run.TotalCycles);
    pmu::SourceStatus Stopped = Source->stop();
    if (!Stopped.Available) {
      // The only failure a simulated session can hit: the trace file did
      // not make it to disk. Loud, not silent — a missing recording would
      // otherwise surface as a confusing replay error much later.
      Error = Stopped.Reason;
      return false;
    }
    if (Sink)
      Sink->beginRun(makeRunInfo(Workload, Config));
    Result.Profile = Profiler.finish(Result.Run, Sink);
  }
  return true;
}

SessionResult cheetah::driver::runWorkload(const workloads::Workload &Workload,
                                           const SessionConfig &Config) {
  return runWorkload(Workload, Config, /*Sink=*/nullptr);
}

SessionResult cheetah::driver::runWorkload(const workloads::Workload &Workload,
                                           const SessionConfig &Config,
                                           core::ReportSink *Sink) {
  CHEETAH_ASSERT(Config.Backend == SampleBackend::Simulator &&
                     Config.RecordTracePath.empty(),
                 "file-backed sessions must use the fallible runSession");
  SessionResult Result;
  std::string Error;
  bool Ok = runSession(Workload, Config, Sink, Result, Error);
  CHEETAH_ASSERT(Ok, Error.c_str());
  (void)Ok;
  return Result;
}

FullTrackResult
cheetah::driver::runFullTracking(const workloads::Workload &Workload,
                                 const SessionConfig &Config,
                                 const baseline::FullTrackerConfig &Tracker) {
  FullTrackResult Result;

  // The profiler instance only provides the heap/global layout; it is not
  // attached as an observer.
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program = buildProgram(Workload, Profiler, Config);

  baseline::FullTracker Full(Config.Profiler.Geometry,
                             {{core::HeapArenaBase, core::HeapArenaSize},
                              {core::GlobalSegmentBase,
                               core::GlobalSegmentSize}},
                             Tracker);

  sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
  if (Config.Profiler.Topology.multiNode())
    Sim.setTopology(&Config.Profiler.Topology);
  Sim.addObserver(&Full);
  Result.Run = Sim.run(Program);
  Result.Findings = Full.findings();
  Result.AccessesInstrumented = Full.accessesInstrumented();
  Result.Invalidations = Full.invalidations();
  return Result;
}
