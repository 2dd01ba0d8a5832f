//===- bench/e2e/Harness.h - cheetah-bench measurement harness --*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every cheetah-bench loop shares: clocks, the span tracer
/// behind `--trace=FILE` (`cheetah-bench-trace-v1`), per-round metric logs,
/// the workload table, and the set-up phase (build, capture, trace
/// round-trip, partition) both loops start from.
///
/// The benchmark measures from outside only: every number is a timestamp
/// taken around a call into one layer's public functions. Tracing inside
/// the profiler is left to the profiler.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_BENCH_E2E_HARNESS_H
#define CHEETAH_BENCH_E2E_HARNESS_H

#include "core/report/ReportHistory.h"
#include "driver/ProfileSession.h"
#include "pmu/TraceSource.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cheetah {
namespace bench {

/// Monotonic wall clock (steady_clock), in nanoseconds.
uint64_t nowNs();
/// CPU time of the calling thread, in nanoseconds. Ingest CPU is the sum
/// over the threads doing ingest work, which leaves out the harness's own
/// spin-waits.
uint64_t threadCpuNs();
/// Resident set size from /proc/self/statm, in MiB.
double residentMb();

bool readFile(const std::string &Path, std::string &Out);
bool writeFile(const std::string &Path, const std::string &Text);

/// Build-type gate (BuildCheck.cpp): false with \p Error when this binary
/// is not an optimized, uninstrumented build, whose timings would mislead.
bool checkTimedBuild(std::string &Error);
/// The CMake build type this binary was compiled as.
const char *buildType();

/// Times a fixed single-threaded kernel (Calibration.cpp), in ms.
double calibrationMs();
/// What calibrationMs() reads on the reference host when it is quiet: a
/// single-threaded time T measured next to a kernel reading K is reported
/// as T * CalibrationReferenceMs / K, the time the reference host would
/// have taken. BENCH_e2e.json records the kernel's reading per workload.
inline constexpr double CalibrationReferenceMs = 3.5;

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Which part of a run a span belongs to.
enum class Phase { Setup, Warmup, Round, Probe };

/// One timed call into a layer. Parent is the index of the enclosing span
/// (-1 for a top-level span); Attrs carry counts measured at the same
/// boundary (samples, batches, time spent in a callee that has no span).
struct Span {
  std::string Name;
  Phase Where = Phase::Round;
  int64_t Round = 0;
  uint32_t Thread = 0;
  uint64_t Start = 0;
  uint64_t End = 0;
  int64_t Parent = -1;
  std::vector<std::pair<std::string, double>> Attrs;
};

/// In-memory span store, written out once at exit. Thread-safe; a
/// disabled tracer records nothing, so untraced runs pay one branch.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Stores a finished span. \returns its index, or -1 when disabled.
  int64_t record(Span S);
  /// Adds one attribute to span \p Index (ignored for -1).
  void annotate(int64_t Index, const std::string &Key, double Value);
  /// Sets the end of span \p Index (ignored for -1).
  void close(int64_t Index, uint64_t End);

  /// Share of span \p Index's duration that its direct children cover.
  double childCoverage(int64_t Index) const;

  /// The `cheetah-bench-trace-v1` document.
  std::string serialize(const std::string &Workload, uint64_t Seed) const;

private:
  bool Enabled;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// Times one call into a layer: always measures, and opens a span while
/// tracing. stop() returns the elapsed nanoseconds and closes the span.
class Timed {
public:
  Timed(Tracer &T, const char *Name, Phase Where, int64_t Round,
        int64_t Parent = -1, uint32_t Thread = 0);

  uint64_t stop();
  /// The span index (-1 untraced) — the parent for nested calls.
  int64_t span() const { return Index; }
  uint64_t start() const { return Start; }

private:
  Tracer &T;
  uint64_t Start;
  int64_t Index = -1;
};

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// Per-round observations of named metrics, each with a unit.
class MetricLog {
public:
  void add(const std::string &Name, const std::string &Unit, double Value);
  /// Appends every observation of \p Other.
  void merge(const MetricLog &Other);
  bool has(const std::string &Name) const { return Values.count(Name) != 0; }
  const std::string &unit(const std::string &Name) const;
  /// Linear-interpolated quantile \p Q in [0, 1] of \p Name's observations.
  double quantile(const std::string &Name, double Q) const;
  double total(const std::string &Name) const;
  size_t count(const std::string &Name) const;
  const std::vector<double> &observations(const std::string &Name) const {
    return Values.at(Name);
  }
  std::vector<std::string> names() const;

private:
  std::map<std::string, std::vector<double>> Values;
  std::map<std::string, std::string> Units;
};

//===----------------------------------------------------------------------===//
// Workloads and set-up
//===----------------------------------------------------------------------===//

/// Which user path a workload drives.
enum class Path { Daemon, OneShot };

/// The workload-specific correctness gate its rounds must pass.
enum class Gate { HotLine, NumaPages, ColdEvict, OneShot };

/// One benchmark workload: a registered program, its session flags, and
/// the daemon budgets. The table lives in Harness.cpp.
struct WorkloadSpec {
  const char *Name;
  const char *Program;
  Path Drives;
  Gate Checks;
  /// `cheetah-profile` session flags; "{src}" expands to the source root
  /// and the seed is appended per run.
  std::vector<std::string> Flags;
  size_t LineBudget = 0;
  size_t PageBudget = 0;
};

const std::vector<WorkloadSpec> &workloadTable();
const WorkloadSpec *findWorkload(const std::string &Name);

/// Everything a loop needs to know about the run.
struct RunContext {
  const WorkloadSpec *Spec = nullptr;
  std::unique_ptr<workloads::Workload> Program;
  driver::SessionConfig Config;
  uint64_t Seed = 0;
  /// Directory for trace and store files.
  std::string WorkDir;
  /// Source root (topologies, goldens).
  std::string SourceDir;
};

/// Rounds per session: daemon epochs (or one-shot sessions) per profiler
/// and store before the benchmark starts fresh ones.
inline constexpr int64_t EpochsPerSession = 20;

/// Resolves Ctx.Spec's session flags and Ctx.Seed into Ctx.Config and
/// Ctx.Program.
bool configureRun(RunContext &Ctx, std::string &Error);

/// The captured workload, partitioned per thread for the replay loop.
struct Capture {
  /// Replay-mode trace source the partition came from; kept alive for the
  /// whole run, as the daemon keeps its trace.
  std::unique_ptr<pmu::TraceSource> Trace;
  std::map<ThreadId, std::vector<pmu::Sample>> PerThread;
  size_t Samples = 0;
};

/// One set-up: build the program, capture it under the simulator through
/// the in-memory trace recorder, write the trace with
/// TraceData::serialize, read it back through a replay TraceSource (what a
/// daemon restarted with --backend=trace:FILE pays), and partition the
/// samples per thread. Adds setup-layer metrics to \p Log.
bool runSetup(const RunContext &Ctx, Tracer &T, int64_t Index, Capture &Out,
              MetricLog &Log, std::string &Error);

//===----------------------------------------------------------------------===//
// Loops
//===----------------------------------------------------------------------===//

/// What one round produced: its two phases' wall times, the CPU time of the
/// threads doing the first, the per-layer observations, and whether every
/// correctness gate held. A round is an ingest phase (replay, or the
/// profiled simulation) followed by a report phase (report build through
/// the store write).
struct RoundResult {
  double IngestMs = 0.0;
  double ReportMs = 0.0;
  double IngestCpuMs = 0.0;
  uint64_t Samples = 0;
  /// True when the ingest phase runs on several threads (the daemon
  /// replay); its time is then not scaled by the calibration.
  bool ParallelIngest = false;
  /// calibrationMs() measured right after the round.
  double CalibrationMs = 0.0;
  MetricLog Layers;
  std::vector<std::string> Failures;
  bool ok() const { return Failures.empty(); }
};

/// Receives each finished round and decides how long a loop runs. A
/// time-bounded run stops only between sessions, so it measures whole
/// sessions and every run sees the same mix of epochs.
class RoundSink {
public:
  virtual ~RoundSink() = default;
  /// \returns false to stop before opening another session.
  virtual bool startSession() = 0;
  /// \returns false to stop before starting another round.
  virtual bool startRound() = 0;
  virtual void roundDone(RoundResult &Round) = 0;
};

/// The daemon loop: fresh profiler, bridge and store per session of
/// EpochsPerSession epochs; each epoch replays \p Cap through
/// interpose on real threads, snapshots, and appends to the store.
void runDaemon(const RunContext &Ctx, const Capture &Cap, Tracer &T,
               Phase Where, RoundSink &Sink);

/// The one-shot loop: one driver::runSession per round. Traced runs
/// rebuild the session from public calls and check its report bytes
/// equal runSession's. \p Reference holds the first report seen (filled
/// when empty); every later round must match it byte for byte.
void runOneShot(const RunContext &Ctx, const Capture &Cap, Tracer &T,
                Phase Where, RoundSink &Sink, std::string &Reference);

/// The detector's layer metrics for one round: ratios of the stats'
/// change from \p Before to \p After over the samples seen, samples
/// \p Delivered but never seen (detect.lost), and table sizes.
void addDetectorLayers(const core::Profiler &P,
                       const core::DetectorStats &Before,
                       const core::DetectorStats &After, uint64_t Delivered,
                       MetricLog &L);

/// The workload-specific gates on one report of the workload's own path
/// (the daemon's eviction gate lives in the daemon loop).
void checkWorkloadReport(const WorkloadSpec &Spec,
                         const core::ParsedReport &Report, RoundResult &Out);

/// Store update shared by both loops: parse the report, append it, then
/// serialize and write the store. Records report.parse_ms and history.*.
struct StoreUpdate {
  core::ParsedReport Report;
  bool Ok = false;
};
StoreUpdate appendToStore(const std::string &ReportText,
                          core::ReportHistory &History,
                          const std::string &StorePath, Tracer &T,
                          Phase Where, int64_t Round, int64_t Parent,
                          RoundResult &Out);

/// Re-reads \p StorePath through ReportHistory::parse and checks it holds
/// \p Runs runs (and, on numa_pages' own path, a significant page
/// finding); a failure is added to \p Out.
void checkStore(const RunContext &Ctx, const std::string &StorePath,
                size_t Runs, Phase Where, RoundResult &Out);

} // namespace bench
} // namespace cheetah

#endif // CHEETAH_BENCH_E2E_HARNESS_H
