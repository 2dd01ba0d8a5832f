//===- driver/ProfileSession.h - Workload-under-profiler driver -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience driver gluing a workload model, the multicore simulator, and
/// the Cheetah profiler (or a baseline observer) into one call. Everything
/// the tools, examples, and benchmark harnesses do goes through these
/// functions, so an experiment is: configure, run, read the result.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_DRIVER_PROFILESESSION_H
#define CHEETAH_DRIVER_PROFILESESSION_H

#include "baseline/FullTracker.h"
#include "core/Profiler.h"
#include "pmu/TraceSource.h"
#include "sim/LatencyModel.h"
#include "sim/Simulator.h"
#include "workloads/Workload.h"

#include <memory>
#include <string>

namespace cheetah {
namespace driver {

/// Which sampling backend feeds the profiler.
enum class SampleBackend {
  /// Run the workload on the multicore simulator under the simulated PMU.
  Simulator,
  /// Skip the simulator entirely: replay a recorded `cheetah-trace-v1`
  /// file through the profiler (same workload flags required, so the heap
  /// layout the trace's addresses resolve against is identical).
  TraceReplay,
};

/// Everything one run needs.
struct SessionConfig {
  core::ProfilerConfig Profiler;
  sim::LatencyModel Latency;
  workloads::WorkloadConfig Workload;
  /// Attach the Cheetah profiler (false = native baseline run: same heap
  /// layout, no observer, no overhead).
  bool EnableProfiler = true;
  /// Sampling backend (see `--backend=sim|trace:FILE`).
  SampleBackend Backend = SampleBackend::Simulator;
  /// Backend == TraceReplay: the trace file to replay.
  std::string ReplayTracePath;
  /// Non-empty: tee the live backend's stream into this `cheetah-trace-v1`
  /// file (`--record-trace=FILE`). Simulator backend only.
  std::string RecordTracePath;
};

/// Result of a profiled (or native) run.
struct SessionResult {
  sim::SimulationResult Run;
  core::ProfileResult Profile;
  bool ProfilerEnabled = false;
};

/// Builds \p Workload's program against \p Profiler's heap/globals. An
/// object the heap arena or global segment cannot hold asserts, unless
/// \p Error is given: then the first such object's arena, size and call
/// site (or global name) go into \p *Error, its address is 0, and the
/// program must not run.
sim::ForkJoinProgram buildProgram(const workloads::Workload &Workload,
                                  core::Profiler &Profiler,
                                  const SessionConfig &Config,
                                  std::string *Error = nullptr);

/// Fills the sink-facing run identification from a session configuration.
core::ReportRunInfo makeRunInfo(const workloads::Workload &Workload,
                                const SessionConfig &Config);

/// The banner's grain lines for \p Profile: one per grain \p Detect ran,
/// line before page, each ending in a newline, e.g.
///   grain line: 7 tracked, 2 significant findings, 12,345 samples
///   (1,024 invalidations)
/// The page line adds a ", N remote" clause for its remote samples.
std::string formatGrainSummaries(const core::ProfileResult &Profile,
                                 const core::DetectorConfig &Detect);

/// Builds the capture-side trace source for \p Config without the caller
/// naming a concrete backend: a replay TraceSource for
/// Backend == TraceReplay, or a recording TraceSource wrapping the
/// simulated PMU otherwise (teeing to Config.RecordTracePath when
/// non-empty, buffering in memory when empty). The caller drives
/// start()/stop() and, for the simulator backend, runs the simulation
/// with the source's simObserver() attached. Used by tools (the daemon's
/// capture phase) that need the recorded stream itself rather than a
/// one-shot profiled run.
std::unique_ptr<pmu::TraceSource>
makeCaptureSource(const SessionConfig &Config);

/// Runs \p Workload under the configured sampling backend, streaming the
/// report through \p Sink (may be null): the sink sees beginRun (run
/// identification), then Profiler::finish's stream of \p Result's
/// findings and endRun (run stats).
///
/// This is the fallible entry point — a workload the heap arena or global
/// segment cannot hold, trace replay (unreadable or malformed file) and
/// trace recording (write failure) report through \p Error with a false
/// return.
bool runSession(const workloads::Workload &Workload,
                const SessionConfig &Config, core::ReportSink *Sink,
                SessionResult &Result, std::string &Error);

/// Runs \p Workload under the Cheetah profiler (or natively when
/// EnableProfiler is false). Simulator backend only: a convenience wrapper
/// over runSession for tests and benches that asserts where runSession
/// would fail.
SessionResult runWorkload(const workloads::Workload &Workload,
                          const SessionConfig &Config);

/// Same, with the streaming sink.
SessionResult runWorkload(const workloads::Workload &Workload,
                          const SessionConfig &Config,
                          core::ReportSink *Sink);

/// Result of a Predator-style full-instrumentation run.
struct FullTrackResult {
  sim::SimulationResult Run;
  std::vector<baseline::FullTrackerFinding> Findings;
  uint64_t AccessesInstrumented = 0;
  uint64_t Invalidations = 0;
};

/// Runs \p Workload under the every-access baseline tracker.
FullTrackResult runFullTracking(const workloads::Workload &Workload,
                                const SessionConfig &Config,
                                const baseline::FullTrackerConfig &Tracker);

} // namespace driver
} // namespace cheetah

#endif // CHEETAH_DRIVER_PROFILESESSION_H
