//===- bench/e2e/cheetah-bench.cpp - End-to-end benchmark driver ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process per (workload, seed):
///
///   cheetah-bench --workload=NAME --seed=N [--seconds=S | --rounds=R]
///                 [--trace=FILE] --out=FILE [--work-dir=DIR]
///
/// The run sets up several times (build, capture, trace round-trip,
/// partition), runs untimed warm-up rounds, then times rounds of the
/// workload's path — daemon epochs or one-shot sessions — for --seconds
/// (whole sessions) or exactly --rounds. Every round passes correctness
/// gates; any failure is counted, and the exit code is 2 when one fired.
///
/// --out receives a `cheetah-bench-result-v1` document. Untraced runs
/// fill it with the end-to-end metrics; with --trace=FILE the run records
/// spans around every layer call, writes them as `cheetah-bench-trace-v1`
/// and fills the result with the per-layer metrics instead.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "driver/SessionOptions.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace cheetah;
using namespace cheetah::bench;

namespace {

/// Set-ups per run: setup_s is their median.
constexpr int64_t SetupsPerRun = 3;
/// Warm-up: whole sessions for at least this long, or exactly
/// WarmupRounds rounds when the run counts rounds.
constexpr double WarmupSeconds = 2.0;
constexpr int64_t WarmupRounds = 3;

/// Everything the loops report, across warm-up, probes and timed rounds.
struct RunTotals {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  MetricLog EndToEnd;
  MetricLog Layers;
  MetricLog ProbeLayers;
  uint64_t TimedRounds = 0;
  double RssMb = 0.0;
};

const char *phaseName(Phase Where) {
  switch (Where) {
  case Phase::Setup:
    return "setup";
  case Phase::Warmup:
    return "warm-up";
  case Phase::Round:
    return "timed";
  case Phase::Probe:
    return "probe";
  }
  return "?";
}

/// Folds one round into the end-to-end observations. Single-threaded
/// phases are scaled by the calibration reading taken right after the
/// round (see CalibrationReferenceMs); the daemon's multi-threaded replay
/// is not, because its cost follows cache-line transfers between cores,
/// which a single-threaded kernel does not track. The unscaled values are
/// kept as raw_* observations.
void recordEndToEnd(const RoundResult &Round, MetricLog &E) {
  double Scale = CalibrationReferenceMs / Round.CalibrationMs;
  double IngestScale = Round.ParallelIngest ? 1.0 : Scale;
  double IngestMs = Round.IngestMs * IngestScale;
  double ReportMs = Round.ReportMs * Scale;
  double Samples = static_cast<double>(Round.Samples);
  E.add("round_ms", "ms", IngestMs + ReportMs);
  E.add("report_ms", "ms", ReportMs);
  E.add("ingest_msps", "Msamples/s", Samples / IngestMs / 1e3);
  E.add("ingest_cpu_ns", "ns", Round.IngestCpuMs * IngestScale * 1e6 / Samples);
  E.add("raw_round_ms", "ms", Round.IngestMs + Round.ReportMs);
  E.add("raw_report_ms", "ms", Round.ReportMs);
  E.add("raw_ingest_ms", "ms", Round.IngestMs);
  E.add("calibration_ms", "ms", Round.CalibrationMs);
}

/// Bounds one loop by a round count (Limit >= 0) or by a deadline checked
/// between sessions, and folds every finished round into the totals.
class Runner : public RoundSink {
public:
  Runner(Phase Where, int64_t Limit, double Seconds, RunTotals &Totals)
      : Where(Where), Limit(Limit),
        Deadline(nowNs() + static_cast<uint64_t>(Seconds * 1e9)),
        Totals(Totals) {}

  bool startSession() override {
    return Limit >= 0 ? Started < Limit : nowNs() < Deadline;
  }

  bool startRound() override {
    if (Limit >= 0 && Started >= Limit)
      return false;
    ++Started;
    return true;
  }

  void roundDone(RoundResult &Round) override {
    ++Totals.Attempted;
    if (Round.Layers.has("trace.coverage") &&
        Round.Layers.quantile("trace.coverage", 0.0) < 0.9)
      Round.Failures.push_back("top-level spans cover under 90% of the round");
    if (!Round.ok()) {
      ++Totals.Failed;
      for (const std::string &Failure : Round.Failures)
        if (Totals.Failures.size() < 32)
          Totals.Failures.push_back(std::string(phaseName(Where)) +
                                    " round " + std::to_string(Done) + ": " +
                                    Failure);
    } else if (Where == Phase::Round) {
      recordEndToEnd(Round, Totals.EndToEnd);
      Totals.Layers.merge(Round.Layers);
      Totals.RssMb = std::max(Totals.RssMb, residentMb());
      ++Totals.TimedRounds;
    } else if (Where == Phase::Probe) {
      Totals.ProbeLayers.merge(Round.Layers);
    }
    ++Done;
  }

private:
  Phase Where;
  int64_t Limit;
  uint64_t Deadline;
  RunTotals &Totals;
  int64_t Started = 0;
  int64_t Done = 0;
};

/// The default-flag streamcluster report must still match its checked-in
/// golden byte for byte: the one-shot path's output is unchanged.
bool matchesGolden(const RunContext &Ctx, std::string &Error) {
  FlagSet Flags;
  driver::addSessionFlags(Flags);
  const char *Argv[] = {"cheetah-bench", "--workload=streamcluster"};
  driver::SessionOptions Options;
  if (!Flags.parse(2, Argv, Error) ||
      !driver::buildSessionOptions(Flags, Options, Error))
    return false;
  auto Workload = workloads::createWorkload("streamcluster");
  std::string Text;
  core::JsonReportSink Sink(Text);
  driver::SessionResult Result;
  if (!driver::runSession(*Workload, Options.Config, &Sink, Result, Error))
    return false;
  std::string GoldenPath =
      Ctx.SourceDir + "/tests/goldens/streamcluster.line.json";
  std::string Golden;
  if (!readFile(GoldenPath, Golden)) {
    Error = "cannot read '" + GoldenPath + "'";
    return false;
  }
  if (Text != Golden) {
    Error = "default-flag streamcluster report differs from " + GoldenPath;
    return false;
  }
  return true;
}

void writeMetric(JsonWriter &W, const std::string &Name, double Value,
                 const std::string &Unit) {
  W.key(Name);
  W.beginObject();
  W.member("value", Value);
  W.member("unit", Unit);
  W.endObject();
}

std::string resultDocument(const RunContext &Ctx, bool Traced,
                           const MetricLog &Setup, const RunTotals &Totals) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "cheetah-bench-result-v1");
  W.member("workload", Ctx.Spec->Name);
  W.member("seed", Ctx.Seed);
  W.member("traced", Traced);
  W.member("build_type", buildType());
  W.member("nproc", std::thread::hardware_concurrency());
  W.member("rounds", Totals.TimedRounds);
  W.member("attempted", Totals.Attempted);
  W.member("failed", Totals.Failed);
  W.member("fail_frac", Totals.Attempted
                            ? static_cast<double>(Totals.Failed) /
                                  static_cast<double>(Totals.Attempted)
                            : 1.0);

  const MetricLog &E = Totals.EndToEnd;
  W.key("metrics");
  W.beginObject();
  if (!Traced) {
    writeMetric(W, "setup_s", Setup.quantile("setup_s", 0.5), "s");
    if (E.has("round_ms")) {
      writeMetric(W, "ingest_msps", E.quantile("ingest_msps", 0.5),
                  "Msamples/s");
      writeMetric(W, "ingest_cpu_ns", E.quantile("ingest_cpu_ns", 0.5), "ns");
      writeMetric(W, "round_ms.p50", E.quantile("round_ms", 0.5), "ms");
      writeMetric(W, "round_ms.p90", E.quantile("round_ms", 0.9), "ms");
      writeMetric(W, "report_ms.p50", E.quantile("report_ms", 0.5), "ms");
      writeMetric(W, "report_ms.p90", E.quantile("report_ms", 0.9), "ms");
      writeMetric(W, "rss_mb", Totals.RssMb, "MB");
    }
  }
  W.endObject();

  // The same timings before calibration scaling: to check a change against
  // unscaled times, and for the tracing overhead (layer times are unscaled).
  W.key("raw_metrics");
  W.beginObject();
  if (E.has("raw_round_ms")) {
    writeMetric(W, "setup_s", Setup.quantile("raw_setup_s", 0.5), "s");
    writeMetric(W, "round_ms.p50", E.quantile("raw_round_ms", 0.5), "ms");
    writeMetric(W, "round_ms.p90", E.quantile("raw_round_ms", 0.9), "ms");
    writeMetric(W, "report_ms.p50", E.quantile("raw_report_ms", 0.5), "ms");
    writeMetric(W, "report_ms.p90", E.quantile("raw_report_ms", 0.9), "ms");
    writeMetric(W, "ingest_ms.p50", E.quantile("raw_ingest_ms", 0.5), "ms");
    writeMetric(W, "calibration_ms.p50", E.quantile("calibration_ms", 0.5),
                "ms");
  }
  W.endObject();

  // Every timed round's observations, in round order.
  W.key("rounds_observed");
  W.beginObject();
  for (const std::string &Name : E.names()) {
    W.key(Name);
    W.beginArray();
    for (double Value : E.observations(Name))
      W.value(Value);
    W.endArray();
  }
  W.endObject();

  if (Traced) {
    // Layer values: the p50 over timed rounds; set-up layers over the
    // set-ups; a layer the workload's own loop never calls comes from the
    // other path's probe. Each carries its total and observation count.
    W.key("layers");
    W.beginObject();
    std::vector<std::string> Names = Totals.Layers.names();
    for (const MetricLog *Log : {&Setup, &Totals.ProbeLayers})
      for (const std::string &Name : Log->names())
        Names.push_back(Name);
    std::sort(Names.begin(), Names.end());
    Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
    for (const std::string &Name : Names) {
      const MetricLog *From = Totals.Layers.has(Name) ? &Totals.Layers
                              : Setup.has(Name)       ? &Setup
                                                      : &Totals.ProbeLayers;
      W.key(Name);
      W.beginObject();
      W.member("p50", From->quantile(Name, 0.5));
      W.member("total", From->total(Name));
      W.member("count", static_cast<uint64_t>(From->count(Name)));
      W.member("unit", From->unit(Name));
      W.member("source", From == &Totals.Layers ? "rounds"
                         : From == &Setup       ? "setup"
                                                : "probe");
      W.endObject();
    }
    if (Totals.Layers.has("trace.coverage")) {
      // The coverage gate's metric is the worst round, not the median; it
      // sits under "p50" like every layer value.
      W.key("trace.coverage_min");
      W.beginObject();
      W.member("p50", Totals.Layers.quantile("trace.coverage", 0.0));
      W.member("unit", "ratio");
      W.member("source", "rounds");
      W.endObject();
    }
    W.endObject();
  }

  W.key("failures");
  W.beginArray();
  for (const std::string &Failure : Totals.Failures)
    W.value(Failure);
  W.endArray();
  W.endObject();
  Out += '\n';
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags;
  Flags.addString("workload", "", "hot_line, numa_pages, cold_evict, oneshot");
  Flags.addInt("seed", 1, "input seed: workload randomness and PMU jitter");
  Flags.addDouble("seconds", 10.0,
                  "measure whole sessions until this much time has passed");
  Flags.addInt("rounds", 0,
               "measure exactly this many rounds instead (smoke tests)");
  Flags.addString("trace", "", "record spans and write them to this file");
  Flags.addString("out", "", "result file (required)");
  Flags.addString("work-dir", ".", "directory for trace and store files");

  std::string Error;
  if (!Flags.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n%s", Error.c_str(),
                 Flags.usage("cheetah-bench").c_str());
    return 1;
  }
  auto Fail = [](const std::string &Message) {
    std::fprintf(stderr, "error: %s\n", Message.c_str());
    return 1;
  };
  const WorkloadSpec *Spec = findWorkload(Flags.getString("workload"));
  if (!Spec) {
    std::string Known;
    for (const WorkloadSpec &Entry : workloadTable())
      Known += std::string(Known.empty() ? "" : ", ") + Entry.Name;
    return Fail("unknown workload '" + Flags.getString("workload") +
                "' (known: " + Known + ")");
  }
  int64_t Rounds = Flags.getInt("rounds");
  if (Flags.wasSet("rounds") && Rounds < 1)
    return Fail("--rounds must be >= 1");
  double Seconds = Flags.getDouble("seconds");
  if (!(Seconds > 0.0))
    return Fail("--seconds must be > 0");
  const std::string &OutPath = Flags.getString("out");
  if (OutPath.empty())
    return Fail("--out is required");
  if (!checkTimedBuild(Error))
    return Fail(Error);

  RunContext Ctx;
  Ctx.Spec = Spec;
  Ctx.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  Ctx.WorkDir = Flags.getString("work-dir");
  Ctx.SourceDir = CHEETAH_BENCH_SOURCE_DIR;
  std::error_code Ec;
  std::filesystem::create_directories(Ctx.WorkDir, Ec);
  if (Ec)
    return Fail("cannot create '" + Ctx.WorkDir + "': " + Ec.message());
  if (!configureRun(Ctx, Error))
    return Fail(Error);

  const std::string &TracePath = Flags.getString("trace");
  Tracer T(!TracePath.empty());
  RunTotals Totals;
  MetricLog Setup;
  Capture Cap;
  std::string Reference;
  auto Loop = [&](Phase Where, RoundSink &Sink) {
    if (Spec->Drives == Path::Daemon)
      runDaemon(Ctx, Cap, T, Where, Sink);
    else
      runOneShot(Ctx, Cap, T, Where, Sink, Reference);
  };

  bool CountedRounds = Flags.wasSet("rounds");
  for (int64_t I = 0; I < SetupsPerRun; ++I) {
    Cap = Capture();
    if (!runSetup(Ctx, T, I, Cap, Setup, Error))
      return Fail("set-up: " + Error);
    Setup.add("setup_s", "s",
              Setup.observations("raw_setup_s").back() *
                  CalibrationReferenceMs / calibrationMs());
    if (!T.enabled())
      continue;
    // Traced runs probe the other path once per set-up, so every layer
    // metric has a value on every workload.
    Runner Probe(Phase::Probe, 1, 0.0, Totals);
    if (Spec->Drives == Path::Daemon) {
      std::string ProbeReference;
      runOneShot(Ctx, Cap, T, Phase::Probe, Probe, ProbeReference);
    } else {
      runDaemon(Ctx, Cap, T, Phase::Probe, Probe);
    }
  }
  // Warm up until the host settles: on a shared host the first second of
  // sustained multi-threaded load runs up to twice as fast as the rest.
  Runner Warm(Phase::Warmup, CountedRounds ? WarmupRounds : -1,
              WarmupSeconds, Totals);
  Loop(Phase::Warmup, Warm);
  Runner Measure(Phase::Round, CountedRounds ? Rounds : -1, Seconds, Totals);
  Loop(Phase::Round, Measure);

  if (Spec->Checks == Gate::OneShot) {
    ++Totals.Attempted;
    if (!matchesGolden(Ctx, Error)) {
      ++Totals.Failed;
      Totals.Failures.push_back("golden: " + Error);
    }
  }

  if (!writeFile(OutPath, resultDocument(Ctx, T.enabled(), Setup, Totals)))
    return Fail("cannot write '" + OutPath + "'");
  if (T.enabled() &&
      !writeFile(TracePath, T.serialize(Spec->Name, Ctx.Seed)))
    return Fail("cannot write '" + TracePath + "'");
  for (const std::string &Failure : Totals.Failures)
    std::fprintf(stderr, "FAIL %s\n", Failure.c_str());
  return Totals.Failed ? 2 : 0;
}
