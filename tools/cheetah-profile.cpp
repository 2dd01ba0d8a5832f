//===- tools/cheetah-profile.cpp - Cheetah CLI -----------------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end: run any modeled workload under the Cheetah
/// profiler and stream its report — Figure-5 text or machine-readable JSON
/// (`cheetah-report-v6`, diffable with `cheetah-diff`) — optionally
/// comparing against the padded ("fixed") variant and against a native
/// (unprofiled) run. Flag validation lives in driver/SessionOptions.h so
/// bad values (and hostile `--numa-topology` files) exit 1 with an error
/// instead of tripping an assert.
///
/// Examples (an indented line continues the command above it):
///   cheetah-profile --workload=linear_regression --threads=16
///   cheetah-profile --workload=streamcluster --fix --verify
///   cheetah-profile --workload=histogram --format=json --output=run.json
///   cheetah-profile --workload=numa_interleaved --granularity=page
///   cheetah-profile --workload=numa_first_touch --granularity=both
///       --numa-nodes=4 --format=json
///   cheetah-profile --workload=numa_asymmetric --granularity=page
///       --numa-topology=topologies/asymmetric4.json --format=json
///   cheetah-profile --workload=numa_first_touch --granularity=page --verify
///   cheetah-profile --list
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "driver/SessionOptions.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <memory>

using namespace cheetah;

int main(int Argc, char **Argv) {
  FlagSet Flags;
  driver::addSessionFlags(Flags);
  Flags.addString("format", "text", "report format: text or json");
  Flags.addString("output", "",
                  "write the report to this file (default: stdout)");
  Flags.addBool("verify", false,
                "also run the fixed variant and compare against the "
                "predicted improvement");
  Flags.addBool("native", false, "additionally time a run without Cheetah");
  Flags.addBool("all-instances", false,
                "print every tracked object, not only significant reports "
                "(insignificant ones without word or line rows)");
  Flags.addBool("hex", false, "print counters in hex like the paper");
  Flags.addBool("list", false, "list available workloads and exit");
  Flags.addBool("dump-threads", false,
                "print exact per-thread execution records");

  std::string Error;
  if (!Flags.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n%s", Error.c_str(),
                 Flags.usage("cheetah-profile").c_str());
    return 1;
  }

  if (Flags.getBool("list")) {
    TextTable Table;
    Table.setHeader({"name", "suite", "description"});
    for (const auto &Workload : workloads::createAllWorkloads())
      Table.addRow(
          {Workload->name(), Workload->suite(), Workload->description()});
    std::fputs(Table.render().c_str(), stdout);
    return 0;
  }

  const std::string &Format = Flags.getString("format");
  if (Format != "text" && Format != "json") {
    std::fprintf(stderr, "error: --format must be 'text' or 'json' "
                         "(got '%s')\n",
                 Format.c_str());
    return 1;
  }
  bool Json = Format == "json";
  // In JSON mode the report stream must stay parseable: auxiliary human
  // commentary goes to stderr instead of interleaving with the document.
  std::FILE *Aux = Json ? stderr : stdout;

  std::string Name = Flags.getString("workload");
  auto Workload = workloads::createWorkload(Name);
  if (!Workload) {
    std::fprintf(stderr, "error: unknown workload '%s' (try --list)\n",
                 Name.c_str());
    return 1;
  }

  // All profiling-flag validation (including the topology import) lives in
  // the driver so bad external input errors out instead of asserting.
  driver::SessionOptions Options;
  if (!driver::buildSessionOptions(Flags, Options, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  for (const std::string &Warning : Options.Warnings)
    std::fprintf(stderr, "warning: %s\n", Warning.c_str());

  driver::SessionConfig &Config = Options.Config;
  const std::string &Granularity = Options.Granularity;
  bool TrackPages = Config.Profiler.Detect.TrackPages;
  uint32_t NumaNodes = Config.Profiler.Topology.nodeCount();

  // The report streams through the sink API; everything the sink renders
  // lands in ReportText for the chosen destination.
  std::string ReportText;
  std::unique_ptr<core::ReportSink> Sink;
  if (Json) {
    Sink = std::make_unique<core::JsonReportSink>(ReportText);
  } else {
    core::TextReportSink::Options Options;
    Options.IncludeInsignificant = Flags.getBool("all-instances");
    Options.Format.HexCounters = Flags.getBool("hex");
    Sink = std::make_unique<core::TextReportSink>(ReportText, Options);
  }

  driver::SessionResult Result;
  if (!driver::runSession(*Workload, Config, Sink.get(), Result, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  const core::ProfileResult &Profile = Result.Profile;

  std::fprintf(Aux,
               "== %s (threads=%u scale=%.2f fix=%s granularity=%s "
               "nodes=%u) ==\n",
               Name.c_str(), Config.Workload.Threads, Config.Workload.Scale,
               Config.Workload.FixFalseSharing ? "yes" : "no",
               Granularity.c_str(), NumaNodes);
  std::fprintf(Aux,
               "runtime %s cycles, %s samples (%s filtered), "
               "serial avg latency %.2f cycles, fork-join %s\n",
               formatWithCommas(Profile.AppRuntime).c_str(),
               formatWithCommas(Profile.SamplesDelivered).c_str(),
               formatWithCommas(Profile.Detection.SamplesFiltered).c_str(),
               Profile.SerialAverageLatency,
               Profile.ForkJoinVerified ? "verified" : "NOT fork-join");

  const sim::CoherenceStats &Coherence = Result.Run.Coherence;
  std::fprintf(Aux,
               "coherence: %s accesses, %s hits, %s cold, %s clean-xfer, "
               "%s dirty-xfer, %s upgrades, %s invalidations-sent\n",
               formatWithCommas(Coherence.Accesses).c_str(),
               formatWithCommas(Coherence.LocalHits).c_str(),
               formatWithCommas(Coherence.ColdMisses).c_str(),
               formatWithCommas(Coherence.CleanTransfers).c_str(),
               formatWithCommas(Coherence.DirtyTransfers).c_str(),
               formatWithCommas(Coherence.Upgrades).c_str(),
               formatWithCommas(Coherence.InvalidationsSent).c_str());

  std::fputs(
      driver::formatGrainSummaries(Profile, Config.Profiler.Detect).c_str(),
      Aux);
  if (TrackPages)
    std::fprintf(Aux, "simulator charged %s remote accesses +%s cycles\n",
                 formatWithCommas(Result.Run.RemoteNumaAccesses).c_str(),
                 formatWithCommas(Result.Run.RemoteNumaExtraCycles).c_str());

  if (Flags.getBool("dump-threads")) {
    TextTable Table;
    Table.setHeader({"tid", "phase", "runtime", "instructions", "mem-accesses",
                     "mem-cycles", "avg-mem-latency"});
    for (const auto &Record : Result.Run.Threads)
      Table.addRow({std::to_string(Record.Tid),
                    std::to_string(Record.PhaseIndex),
                    formatWithCommas(Record.runtime()),
                    formatWithCommas(Record.Instructions),
                    formatWithCommas(Record.MemoryAccesses),
                    formatWithCommas(Record.MemoryCycles),
                    formatString("%.1f", Record.MemoryAccesses
                                             ? static_cast<double>(
                                                   Record.MemoryCycles) /
                                                   Record.MemoryAccesses
                                             : 0.0)});
    std::fputs(Table.render().c_str(), Aux);
    TextTable PhaseTable;
    PhaseTable.setHeader({"phase", "kind", "start", "end", "span", "members"});
    for (const auto &Phase : Result.Run.Phases)
      PhaseTable.addRow({Phase.Name, Phase.Parallel ? "parallel" : "serial",
                         formatWithCommas(Phase.StartCycle),
                         formatWithCommas(Phase.EndCycle),
                         formatWithCommas(Phase.span()),
                         std::to_string(Phase.Members.size())});
    std::fputs(PhaseTable.render().c_str(), Aux);
  }

  const std::string &OutputPath = Flags.getString("output");
  bool ReportOnStdout = OutputPath.empty() || OutputPath == "-";
  if (!Json && ReportOnStdout)
    std::fputs("\n", stdout); // separate the banner from the report
  if (!writeFileOrStdout(OutputPath, ReportText, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  if (Flags.getBool("native")) {
    driver::SessionConfig Native = Config;
    Native.EnableProfiler = false;
    // Comparison reruns always simulate: a replayed trace has no native
    // baseline to measure, and re-recording the rerun would clobber the
    // main run's trace.
    Native.Backend = driver::SampleBackend::Simulator;
    Native.ReplayTracePath.clear();
    Native.RecordTracePath.clear();
    driver::SessionResult NativeRun;
    if (!driver::runSession(*Workload, Native, nullptr, NativeRun, Error)) {
      std::fprintf(stderr, "error: native rerun: %s\n", Error.c_str());
      return 1;
    }
    double Overhead = static_cast<double>(Result.Run.TotalCycles) /
                          static_cast<double>(NativeRun.Run.TotalCycles) -
                      1.0;
    std::fprintf(Aux, "native runtime %s cycles; Cheetah overhead %.2f%%\n",
                 formatWithCommas(NativeRun.Run.TotalCycles).c_str(),
                 Overhead * 100.0);
  }

  auto Significant = core::significant(Profile.Findings);
  auto SignificantPages = core::significant(Profile.PageFindings);
  if (Flags.getBool("verify") &&
      (!Significant.empty() || !SignificantPages.empty())) {
    driver::SessionConfig Fixed = Config;
    Fixed.Workload.FixFalseSharing = true;
    Fixed.EnableProfiler = false;
    Fixed.Backend = driver::SampleBackend::Simulator;
    Fixed.ReplayTracePath.clear();
    Fixed.RecordTracePath.clear();
    // The padded variant needs more heap than the broken one, so this
    // rerun can fail where the profiled run did not.
    driver::SessionResult FixedRun;
    if (!driver::runSession(*Workload, Fixed, nullptr, FixedRun, Error)) {
      std::fprintf(stderr, "error: padded rerun: %s\n", Error.c_str());
      return 1;
    }
    double Real = static_cast<double>(Profile.AppRuntime) /
                  static_cast<double>(FixedRun.Run.TotalCycles);
    // Line findings take precedence; a page-only run verifies against the
    // page assessment (EQ.1-EQ.4 over the finding's site).
    double Predicted =
        !Significant.empty()
            ? Significant.front()->Impact.ImprovementFactor
            : SignificantPages.front()->Impact.ImprovementFactor;
    std::fprintf(Aux,
                 "verification: predicted %.2fx, actual (padded rerun) "
                 "%.2fx, diff %+.1f%%\n",
                 Predicted, Real, (Predicted / Real - 1.0) * 100.0);
  }
  return 0;
}
