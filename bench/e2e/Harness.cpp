//===- bench/e2e/Harness.cpp - cheetah-bench measurement harness ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "driver/SessionOptions.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

using namespace cheetah;
using namespace cheetah::bench;

uint64_t cheetah::bench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t cheetah::bench::threadCpuNs() {
  timespec Now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Now);
  return static_cast<uint64_t>(Now.tv_sec) * 1000000000 +
         static_cast<uint64_t>(Now.tv_nsec);
}

double cheetah::bench::residentMb() {
  std::FILE *File = std::fopen("/proc/self/statm", "r");
  if (!File)
    return 0.0;
  unsigned long long Size = 0, Resident = 0;
  int Fields = std::fscanf(File, "%llu %llu", &Size, &Resident);
  std::fclose(File);
  if (Fields != 2)
    return 0.0;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

bool cheetah::bench::readFile(const std::string &Path, std::string &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  char Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.append(Buffer, Read);
  bool Ok = !std::ferror(File);
  std::fclose(File);
  return Ok;
}

bool cheetah::bench::writeFile(const std::string &Path,
                               const std::string &Text) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  bool Closed = std::fclose(File) == 0;
  return Written == Text.size() && Closed;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int64_t Tracer::record(Span S) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
  return static_cast<int64_t>(Spans.size()) - 1;
}

void Tracer::annotate(int64_t Index, const std::string &Key, double Value) {
  if (Index < 0)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Index)].Attrs.emplace_back(Key, Value);
}

void Tracer::close(int64_t Index, uint64_t End) {
  if (Index < 0)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Index)].End = End;
}

double Tracer::childCoverage(int64_t Index) const {
  if (Index < 0)
    return 0.0;
  std::lock_guard<std::mutex> Lock(Mutex);
  const Span &Parent = Spans[static_cast<size_t>(Index)];
  std::vector<std::pair<uint64_t, uint64_t>> Children;
  for (const Span &S : Spans)
    if (S.Parent == Index)
      Children.emplace_back(std::max(S.Start, Parent.Start),
                            std::min(S.End, Parent.End));
  std::sort(Children.begin(), Children.end());
  uint64_t Covered = 0, Reach = Parent.Start;
  for (const auto &[Start, End] : Children) {
    uint64_t From = std::max(Start, Reach);
    if (End > From) {
      Covered += End - From;
      Reach = End;
    }
  }
  uint64_t Length = Parent.End - Parent.Start;
  return Length ? static_cast<double>(Covered) / static_cast<double>(Length)
                : 1.0;
}

std::string Tracer::serialize(const std::string &Workload,
                              uint64_t Seed) const {
  static const char *const PhaseNames[] = {"setup", "warmup", "round",
                                           "probe"};
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Base = UINT64_MAX;
  for (const Span &S : Spans)
    Base = std::min(Base, S.Start);
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "cheetah-bench-trace-v1");
  W.member("workload", Workload);
  W.member("seed", Seed);
  W.member("clock", "steady_clock ns since the first span");
  W.key("spans");
  W.beginArray();
  for (const Span &S : Spans) {
    W.beginObject();
    W.member("name", S.Name);
    W.member("phase", PhaseNames[static_cast<int>(S.Where)]);
    W.member("round", S.Round);
    W.member("thread", S.Thread);
    W.member("start_ns", S.Start - Base);
    W.member("end_ns", S.End - Base);
    W.member("parent", S.Parent);
    W.key("attrs");
    W.beginObject();
    for (const auto &[Key, Value] : S.Attrs)
      W.member(Key, Value);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  Out += '\n';
  return Out;
}

Timed::Timed(Tracer &T, const char *Name, Phase Where, int64_t Round,
             int64_t Parent, uint32_t Thread)
    : T(T), Start(nowNs()) {
  if (T.enabled()) {
    Span S;
    S.Name = Name;
    S.Where = Where;
    S.Round = Round;
    S.Thread = Thread;
    S.Start = Start;
    S.End = Start;
    S.Parent = Parent;
    Index = T.record(std::move(S));
  }
}

uint64_t Timed::stop() {
  uint64_t End = nowNs();
  T.close(Index, End);
  return End - Start;
}

//===----------------------------------------------------------------------===//
// MetricLog
//===----------------------------------------------------------------------===//

void MetricLog::add(const std::string &Name, const std::string &Unit,
                    double Value) {
  Values[Name].push_back(Value);
  Units[Name] = Unit;
}

void MetricLog::merge(const MetricLog &Other) {
  for (const auto &[Name, Observed] : Other.Values) {
    std::vector<double> &Mine = Values[Name];
    Mine.insert(Mine.end(), Observed.begin(), Observed.end());
    Units[Name] = Other.Units.at(Name);
  }
}

const std::string &MetricLog::unit(const std::string &Name) const {
  return Units.at(Name);
}

double MetricLog::quantile(const std::string &Name, double Q) const {
  std::vector<double> Sorted = Values.at(Name);
  std::sort(Sorted.begin(), Sorted.end());
  double Position = Q * static_cast<double>(Sorted.size() - 1);
  size_t Low = static_cast<size_t>(std::floor(Position));
  size_t High = std::min(Low + 1, Sorted.size() - 1);
  double Fraction = Position - static_cast<double>(Low);
  return Sorted[Low] + (Sorted[High] - Sorted[Low]) * Fraction;
}

double MetricLog::total(const std::string &Name) const {
  double Sum = 0.0;
  for (double Value : Values.at(Name))
    Sum += Value;
  return Sum;
}

size_t MetricLog::count(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0 : It->second.size();
}

std::vector<std::string> MetricLog::names() const {
  std::vector<std::string> Names;
  for (const auto &Entry : Values)
    Names.push_back(Entry.first);
  return Names;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

const std::vector<WorkloadSpec> &cheetah::bench::workloadTable() {
  // Three threads each, so the replay runs 3 workers plus main on a
  // 4-CPU host. Sizes keep an epoch near 50-100 ms, so a 10-second run
  // measures about a hundred rounds.
  static const std::vector<WorkloadSpec> Table = {
      {"hot_line", "linear_regression", Path::Daemon, Gate::HotLine,
       {"--threads=3", "--sampling-period=1", "--scale=4",
        "--granularity=line"}},
      {"numa_pages", "numa_asymmetric", Path::Daemon, Gate::NumaPages,
       {"--threads=3", "--sampling-period=1", "--scale=4",
        "--granularity=both",
        "--numa-topology={src}/topologies/asymmetric4.json"}},
      {"cold_evict", "canneal", Path::Daemon, Gate::ColdEvict,
       {"--threads=3", "--sampling-period=16", "--scale=2",
        "--granularity=both"},
       /*LineBudget=*/65536, /*PageBudget=*/65536},
      {"oneshot", "streamcluster", Path::OneShot, Gate::OneShot,
       {"--threads=3", "--sampling-period=1", "--scale=2",
        "--granularity=line"}},
  };
  return Table;
}

const WorkloadSpec *cheetah::bench::findWorkload(const std::string &Name) {
  for (const WorkloadSpec &Spec : workloadTable())
    if (Name == Spec.Name)
      return &Spec;
  return nullptr;
}

bool cheetah::bench::configureRun(RunContext &Ctx, std::string &Error) {
  const WorkloadSpec &Spec = *Ctx.Spec;
  std::vector<std::string> Args = {"cheetah-bench",
                                   std::string("--workload=") + Spec.Program};
  for (std::string Flag : Spec.Flags) {
    size_t At = Flag.find("{src}");
    if (At != std::string::npos)
      Flag.replace(At, 5, Ctx.SourceDir);
    Args.push_back(Flag);
  }
  // The seed shapes every input: the workload's access randomness and the
  // simulated PMU's sampling jitter.
  Args.push_back("--seed=" + std::to_string(Ctx.Seed & 0x7fffffff));
  std::vector<const char *> Argv;
  for (const std::string &Arg : Args)
    Argv.push_back(Arg.c_str());

  FlagSet Flags;
  driver::addSessionFlags(Flags);
  if (!Flags.parse(static_cast<int>(Argv.size()), Argv.data(), Error))
    return false;
  driver::SessionOptions Options;
  if (!driver::buildSessionOptions(Flags, Options, Error))
    return false;
  Ctx.Config = Options.Config;
  Ctx.Config.Profiler.Pmu.Seed = Ctx.Seed * 0x9e3779b97f4a7c15ull + 1;
  Ctx.Config.Profiler.Detect.LineShadowBudgetBytes = Spec.LineBudget;
  Ctx.Config.Profiler.Detect.PageShadowBudgetBytes = Spec.PageBudget;
  Ctx.Program = workloads::createWorkload(Spec.Program);
  if (!Ctx.Program) {
    Error = std::string("workload program '") + Spec.Program +
            "' is not registered";
    return false;
  }
  return true;
}

void cheetah::bench::checkWorkloadReport(const WorkloadSpec &Spec,
                                         const core::ParsedReport &Report,
                                         RoundResult &Out) {
  switch (Spec.Checks) {
  case Gate::HotLine: {
    bool Tracked = false;
    for (const core::DiffFinding &Finding : Report.Findings)
      if (Finding.Key.rfind("line:heap:linear_regression-pthread.c:139", 0) ==
              0 &&
          Finding.Invalidations > 0)
        Tracked = true;
    if (!Tracked)
      Out.Failures.push_back("linear_regression-pthread.c:139 is not tracked "
                             "with invalidations");
    break;
  }
  case Gate::NumaPages: {
    // Significance is checked per session (checkStore): a page first
    // touched remotely is significant at epoch 0, then turns into
    // multi-node sharing that needs 8 cross-node invalidations, one per
    // epoch, before it is significant again.
    uint64_t Remote = 0;
    for (const core::DiffFinding &Page : Report.PageFindings) {
      uint64_t ByDistance = 0;
      for (const RemoteDistanceStats &Bucket : Page.RemoteByDistance)
        ByDistance += Bucket.Accesses;
      if (ByDistance != Page.RemoteAccesses)
        Out.Failures.push_back("page finding " + Page.Key +
                               ": remote_by_distance does not sum to "
                               "remote_accesses");
      Remote += Page.RemoteAccesses;
    }
    if (Remote == 0)
      Out.Failures.push_back("no page finding carries remote traffic");
    break;
  }
  case Gate::ColdEvict:
    // The cost must stay in page reporting: no line grain dominates. (A
    // "no significant line finding" gate cannot hold: the netlist line's
    // predicted improvement follows the replay's wall-clock phase lengths
    // and crosses 1.005 on early epochs, in cheetah-daemon too.)
    if (Report.PageFindings.size() <= Report.Findings.size())
      Out.Failures.push_back("report is not page-dominated (" +
                             std::to_string(Report.PageFindings.size()) +
                             " page findings, " +
                             std::to_string(Report.Findings.size()) +
                             " line findings)");
    break;
  case Gate::OneShot:
    break; // byte identity is checked by the one-shot loop
  }
}

void cheetah::bench::addDetectorLayers(const core::Profiler &P,
                                       const core::DetectorStats &Before,
                                       const core::DetectorStats &After,
                                       uint64_t Delivered, MetricLog &L) {
  uint64_t Seen = After.SamplesSeen - Before.SamplesSeen;
  auto Share = [Seen](uint64_t Count) {
    return static_cast<double>(Count) / static_cast<double>(Seen);
  };
  L.add("detect.recorded_frac", "ratio",
        Share(After.SamplesRecorded - Before.SamplesRecorded));
  L.add("detect.page_recorded_frac", "ratio",
        Share(After.PageSamplesRecorded - Before.PageSamplesRecorded));
  L.add("detect.filtered_frac", "ratio",
        Share(After.SamplesFiltered - Before.SamplesFiltered));
  L.add("detect.invalidations_per_ksample", "count",
        1e3 * Share(After.Invalidations - Before.Invalidations +
                    After.PageInvalidations - Before.PageInvalidations));
  L.add("detect.remote_frac", "ratio",
        Share(After.RemoteSamples - Before.RemoteSamples));
  L.add("detect.lost", "count", static_cast<double>(Delivered - Seen));
  const core::PageTable *Pages = P.pages();
  L.add("detect.line_grains", "count",
        static_cast<double>(P.shadow().materializedLines()));
  L.add("detect.line_bytes", "bytes",
        static_cast<double>(P.shadow().footprintBytes()));
  L.add("detect.page_grains", "count",
        Pages ? static_cast<double>(Pages->materializedPages()) : 0.0);
  L.add("detect.page_bytes", "bytes",
        Pages ? static_cast<double>(Pages->footprintBytes()) : 0.0);
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

namespace {

double ms(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Buckets a trace's sample stream per issuing thread, exactly as
/// cheetah-daemon partitions its capture for the replay threads.
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

bool cheetah::bench::runSetup(const RunContext &Ctx, Tracer &T, int64_t Index,
                              Capture &Out, MetricLog &Log,
                              std::string &Error) {
  const driver::SessionConfig &Config = Ctx.Config;
  Timed Setup(T, "setup", Phase::Setup, Index);

  Timed Build(T, "build", Phase::Setup, Index, Setup.span());
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program =
      driver::buildProgram(*Ctx.Program, Profiler, Config);
  uint64_t BuildNs = Build.stop();

  Timed CaptureSpan(T, "capture", Phase::Setup, Index, Setup.span());
  std::unique_ptr<pmu::TraceSource> Recorder =
      driver::makeCaptureSource(Config);
  pmu::SourceStatus Status = Recorder->start();
  if (!Status.Available) {
    Error = Status.Reason;
    return false;
  }
  sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
  if (Config.Profiler.Topology.multiNode())
    Sim.setTopology(&Config.Profiler.Topology);
  Sim.addObserver(Recorder->simObserver());
  sim::SimulationResult Run = Sim.run(Program);
  Recorder->setRunCycles(Run.TotalCycles);
  Status = Recorder->stop();
  if (!Status.Available) {
    Error = Status.Reason;
    return false;
  }
  uint64_t CaptureNs = CaptureSpan.stop();
  uint64_t Captured = Recorder->samplesDelivered();

  Timed Serialize(T, "trace_serialize", Phase::Setup, Index, Setup.span());
  std::string Text = Recorder->data().serialize();
  std::string TracePath = Ctx.WorkDir + "/capture.trace.json";
  bool Wrote = writeFile(TracePath, Text);
  uint64_t SerializeNs = Serialize.stop();
  double TraceMb = static_cast<double>(Text.size()) / (1024.0 * 1024.0);
  std::string().swap(Text);
  Recorder.reset();
  if (!Wrote) {
    Error = "cannot write '" + TracePath + "'";
    return false;
  }

  Timed Parse(T, "trace_parse", Phase::Setup, Index, Setup.span());
  Out.Trace = std::make_unique<pmu::TraceSource>(TracePath);
  Status = Out.Trace->start();
  uint64_t ParseNs = Parse.stop();
  if (!Status.Available) {
    Error = Status.Reason;
    return false;
  }

  Timed Partition(T, "partition", Phase::Setup, Index, Setup.span());
  PartitionSink Parts;
  Out.Samples = Out.Trace->replayInto(Parts);
  Out.PerThread = std::move(Parts.PerThread);
  uint64_t PartitionNs = Partition.stop();
  uint64_t SetupNs = Setup.stop();

  if (Out.Samples != Captured) {
    Error = "trace round-trip changed the sample count (" +
            std::to_string(Captured) + " captured, " +
            std::to_string(Out.Samples) + " replayed)";
    return false;
  }
  Log.add("raw_setup_s", "s", static_cast<double>(SetupNs) / 1e9);
  Log.add("driver.build_ms", "ms", ms(BuildNs));
  Log.add("sim.capture_ms", "ms", ms(CaptureNs));
  Log.add("pmu.capture_samples", "count", static_cast<double>(Captured));
  Log.add("pmu.trace_serialize_ms", "ms", ms(SerializeNs));
  Log.add("pmu.trace_parse_ms", "ms", ms(ParseNs));
  Log.add("pmu.trace_mb", "MB", TraceMb);
  Log.add("driver.partition_ms", "ms", ms(PartitionNs));
  return true;
}

//===----------------------------------------------------------------------===//
// Store update
//===----------------------------------------------------------------------===//

StoreUpdate cheetah::bench::appendToStore(const std::string &ReportText,
                                          core::ReportHistory &History,
                                          const std::string &StorePath,
                                          Tracer &T, Phase Where,
                                          int64_t Round, int64_t Parent,
                                          RoundResult &Out) {
  StoreUpdate Update;
  std::string Error;
  Timed Parse(T, "report_parse", Where, Round, Parent);
  bool Parsed = core::parseRunDocument(ReportText, Update.Report, Error);
  uint64_t ParseNs = Parse.stop();
  if (!Parsed) {
    Out.Failures.push_back("report does not parse: " + Error);
    return Update;
  }

  Timed Append(T, "history_append", Where, Round, Parent);
  bool Appended = History.appendRun(
      Update.Report, "epoch-" + std::to_string(History.runs().size()), Error);
  uint64_t AppendNs = Append.stop();
  if (!Appended) {
    Out.Failures.push_back("report not appended: " + Error);
    return Update;
  }

  Timed Serialize(T, "history_serialize", Where, Round, Parent);
  std::string Store = History.serialize();
  uint64_t SerializeNs = Serialize.stop();

  Timed Write(T, "history_write", Where, Round, Parent);
  bool Wrote = writeFile(StorePath, Store);
  uint64_t WriteNs = Write.stop();
  if (!Wrote) {
    Out.Failures.push_back("cannot write store '" + StorePath + "'");
    return Update;
  }

  MetricLog &L = Out.Layers;
  L.add("report.kb", "KB", static_cast<double>(ReportText.size()) / 1024.0);
  L.add("report.findings", "count",
        static_cast<double>(Update.Report.Findings.size()));
  L.add("report.page_findings", "count",
        static_cast<double>(Update.Report.PageFindings.size()));
  L.add("report.parse_ms", "ms", ms(ParseNs));
  L.add("history.append_ms", "ms", ms(AppendNs));
  L.add("history.serialize_ms", "ms", ms(SerializeNs));
  L.add("history.write_ms", "ms", ms(WriteNs));
  L.add("history.mb", "MB",
        static_cast<double>(Store.size()) / (1024.0 * 1024.0));
  Update.Ok = true;
  return Update;
}

void cheetah::bench::checkStore(const RunContext &Ctx,
                                const std::string &StorePath, size_t Runs,
                                Phase Where, RoundResult &Out) {
  std::string Text, Error;
  core::ReportHistory Reread;
  if (!readFile(StorePath, Text)) {
    Out.Failures.push_back("cannot read store '" + StorePath + "'");
    return;
  }
  if (!core::ReportHistory::parse(Text, Reread, Error)) {
    Out.Failures.push_back("store does not re-parse: " + Error);
    return;
  }
  if (Reread.runs().size() != Runs)
    Out.Failures.push_back("store holds " +
                           std::to_string(Reread.runs().size()) +
                           " runs, expected " + std::to_string(Runs));
  if (Ctx.Spec->Checks != Gate::NumaPages || Where == Phase::Probe)
    return;
  for (const core::TrendSeries &Series : Reread.series())
    for (const core::TrendPoint &Point : Series.Points)
      if (Series.IsPage && Point.Significant)
        return;
  Out.Failures.push_back("no significant page finding in the session");
}
