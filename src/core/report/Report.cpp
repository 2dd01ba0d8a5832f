//===- core/report/Report.cpp - False sharing reports ---------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/report/Report.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::core;

namespace {

std::string counter(uint64_t Value, bool Hex) {
  if (Hex)
    return formatString("%llx", static_cast<unsigned long long>(Value));
  return formatString("%llu", static_cast<unsigned long long>(Value));
}

} // namespace

std::string cheetah::core::formatReport(const FalseSharingReport &Report,
                                        const ReportFormatOptions &Options) {
  std::string Out;
  Out += formatString(
      "Detecting false sharing at the object: start 0x%llx end 0x%llx "
      "(with size %llu).\n",
      static_cast<unsigned long long>(Report.Object.Start),
      static_cast<unsigned long long>(Report.Object.end()),
      static_cast<unsigned long long>(Report.Object.Size));
  Out += formatString(
      "Accesses %s invalidations %s writes %s total latency %s cycles.\n",
      counter(Report.SampledAccesses, Options.HexCounters).c_str(),
      counter(Report.Invalidations, Options.HexCounters).c_str(),
      counter(Report.SampledWrites, Options.HexCounters).c_str(),
      counter(Report.LatencyCycles, Options.HexCounters).c_str());
  Out += formatString("Sharing classification: %s (shared-word fraction "
                      "%.2f over %u lines).\n",
                      sharingKindName(Report.Kind),
                      Report.SharedWordFraction, Report.LinesTracked);

  const Assessment &Impact = Report.Impact;
  Out += "Latency information:\n";
  Out += formatString("totalThreads %u\n", Report.ThreadsObserved);
  uint64_t ThreadsAccesses = 0, ThreadsCycles = 0;
  for (const ThreadPrediction &P : Impact.Threads) {
    ThreadsAccesses += P.AccessesOnObject;
    ThreadsCycles += P.CyclesOnObject;
  }
  Out += formatString(
      "totalThreadsAccesses %s\n",
      counter(ThreadsAccesses, Options.HexCounters).c_str());
  Out += formatString("totalThreadsCycles %s\n",
                      counter(ThreadsCycles, Options.HexCounters).c_str());
  Out += formatString(
      "totalPossibleImprovementRate %f%%\n(realRuntime %llu "
      "predictedRuntime %llu).\n",
      Impact.improvementPercent(),
      static_cast<unsigned long long>(Impact.RealAppRuntime),
      static_cast<unsigned long long>(Impact.PredictedAppRuntime));
  if (!Impact.ForkJoinModel)
    Out += "note: execution did not follow the fork-join model; the "
           "whole-program prediction is a thread-level approximation.\n";

  if (Report.Object.IsHeap) {
    Out += "It is a heap object with the following callsite:\n";
    if (Report.Object.CallsiteFrames.empty()) {
      Out += "<unknown callsite>\n";
    } else {
      for (const std::string &Frame : Report.Object.CallsiteFrames)
        Out += Frame + "\n";
    }
  } else {
    Out += formatString("It is a global variable: %s\n",
                        Report.Object.GlobalName.c_str());
  }

  if (!Report.Words.empty()) {
    Out += "Word-level accesses (offset within object):\n";
    TextTable Table;
    Table.setHeader({"offset", "reads", "writes", "cycles", "threads"});
    size_t Limit = Options.MaxWords == 0
                       ? Report.Words.size()
                       : std::min(Options.MaxWords, Report.Words.size());
    for (size_t I = 0; I < Limit; ++I) {
      const WordReportEntry &Word = Report.Words[I];
      Table.addRow({formatString("+%llu",
                                 static_cast<unsigned long long>(Word.Offset)),
                    std::to_string(Word.Reads), std::to_string(Word.Writes),
                    std::to_string(Word.Cycles),
                    Word.MultiThread
                        ? std::string("multiple")
                        : formatString("thread %u", Word.FirstThread)});
    }
    Out += Table.render();
    // Elided rows count from the uncut total; a report built by hand may
    // leave it at 0.
    uint64_t Total = std::max<uint64_t>(Report.WordsTotal, Report.Words.size());
    if (Limit < Total)
      Out += formatString("... %llu more words elided\n",
                          static_cast<unsigned long long>(Total - Limit));
  }
  return Out;
}

std::string
cheetah::core::formatPageReport(const PageSharingReport &Report,
                                const ReportFormatOptions &Options) {
  std::string Out;
  Out += formatString(
      "Detecting page sharing at the page: start 0x%llx end 0x%llx "
      "(with size %llu), home node %u.\n",
      static_cast<unsigned long long>(Report.PageBase),
      static_cast<unsigned long long>(Report.PageBase + Report.PageSize),
      static_cast<unsigned long long>(Report.PageSize), Report.HomeNode);
  Out += formatString(
      "Accesses %s cross-node invalidations %s writes %s remote %s "
      "(%.1f%%) total latency %s cycles (%s remote).\n",
      counter(Report.SampledAccesses, Options.HexCounters).c_str(),
      counter(Report.Invalidations, Options.HexCounters).c_str(),
      counter(Report.SampledWrites, Options.HexCounters).c_str(),
      counter(Report.RemoteAccesses, Options.HexCounters).c_str(),
      Report.remoteFraction() * 100.0,
      counter(Report.LatencyCycles, Options.HexCounters).c_str(),
      counter(Report.RemoteLatencyCycles, Options.HexCounters).c_str());
  if (!Report.RemoteByDistance.empty()) {
    Out += "Remote traffic by node-pair distance:";
    for (const RemoteDistanceStats &Bucket : Report.RemoteByDistance)
      Out += formatString(
          " d%u: %s accesses %s cycles;", Bucket.Distance,
          counter(Bucket.Accesses, Options.HexCounters).c_str(),
          counter(Bucket.Cycles, Options.HexCounters).c_str());
    Out += "\n";
  }
  Out += formatString("Sharing classification: %s (shared-line fraction "
                      "%.2f over %u nodes).\n",
                      sharingKindName(Report.Kind),
                      Report.SharedLineFraction, Report.NodesObserved);
  const Assessment &Impact = Report.Impact;
  Out += formatString(
      "totalPossibleImprovementRate %f%%\n(realRuntime %llu "
      "predictedRuntime %llu, no-remote baseline %.2f cycles).\n",
      Impact.improvementPercent(),
      static_cast<unsigned long long>(Impact.RealAppRuntime),
      static_cast<unsigned long long>(Impact.PredictedAppRuntime),
      Impact.AverageNoFsLatency);
  if (Report.NodesObserved < 2 && Report.RemoteAccesses > 0)
    Out += "note: single-node page homed on another node — a first-touch "
           "placement problem, not sharing.\n";

  if (!Report.Objects.empty()) {
    Out += "Objects on this page:\n";
    for (const std::string &Name : Report.Objects)
      Out += Name + "\n";
  }

  if (!Report.Lines.empty()) {
    Out += "Line-level accesses (offset within page):\n";
    TextTable Table;
    Table.setHeader({"offset", "reads", "writes", "cycles", "nodes"});
    size_t Limit = Options.MaxWords == 0
                       ? Report.Lines.size()
                       : std::min(Options.MaxWords, Report.Lines.size());
    for (size_t I = 0; I < Limit; ++I) {
      const PageLineEntry &Line = Report.Lines[I];
      Table.addRow({formatString("+%llu",
                                 static_cast<unsigned long long>(Line.Offset)),
                    std::to_string(Line.Reads), std::to_string(Line.Writes),
                    std::to_string(Line.Cycles),
                    Line.MultiNode
                        ? std::string("multiple")
                        : formatString("node %u", Line.FirstNode)});
    }
    Out += Table.render();
    uint64_t Total = std::max<uint64_t>(Report.LinesTotal, Report.Lines.size());
    if (Limit < Total)
      Out += formatString("... %llu more lines elided\n",
                          static_cast<unsigned long long>(Total - Limit));
  }
  return Out;
}

std::string cheetah::core::formatSummaryTable(
    const std::vector<FalseSharingReport> &Reports) {
  TextTable Table;
  Table.setHeader({"object", "kind", "accesses", "invalidations", "writes",
                   "threads", "predicted improvement"});
  for (const FalseSharingReport &Report : Reports) {
    std::string Name = Report.Object.IsHeap
                           ? (Report.Object.CallsiteFrames.empty()
                                  ? std::string("<heap>")
                                  : Report.Object.CallsiteFrames.front())
                           : Report.Object.GlobalName;
    Table.addRow({Name, sharingKindName(Report.Kind),
                  formatWithCommas(Report.SampledAccesses),
                  formatWithCommas(Report.Invalidations),
                  formatWithCommas(Report.SampledWrites),
                  std::to_string(Report.ThreadsObserved),
                  formatString("%.2fx", Report.Impact.ImprovementFactor)});
  }
  return Table.render();
}
