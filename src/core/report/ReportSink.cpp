//===- core/report/ReportSink.cpp - Streaming report consumers ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/report/ReportSink.h"

#include "support/StringUtils.h"

using namespace cheetah;
using namespace cheetah::core;

//===----------------------------------------------------------------------===//
// TextReportSink
//===----------------------------------------------------------------------===//

void TextReportSink::beginRun(const ReportRunInfo &Info) {
  // Run identity is the caller's banner in text mode (the CLI prints its
  // own header); the text stream carries findings and the run totals only.
  (void)Info;
}

void TextReportSink::finding(const FalseSharingReport &Report,
                             bool Significant) {
  if (!Significant && !Opts.IncludeInsignificant)
    return;
  Out += formatReport(Report, Opts.Format);
  Out += "\n";
  // The summary table only reads scalar fields and the leading callsite
  // frame; buffer a trimmed copy so streaming does not hold every
  // finding's word table and thread predictions until endRun.
  FalseSharingReport Row = Report;
  Row.Words.clear();
  Row.Impact.Threads.clear();
  if (Row.Object.CallsiteFrames.size() > 1)
    Row.Object.CallsiteFrames.resize(1);
  SummaryRows.push_back(std::move(Row));
  ++Rendered;
}

void TextReportSink::pageFinding(const PageSharingReport &Report,
                                 bool Significant) {
  if (!Significant && !Opts.IncludeInsignificant)
    return;
  Out += formatPageReport(Report, Opts.Format);
  Out += "\n";
  ++PagesRendered;
}

void TextReportSink::endRun(const ReportRunStats &Stats) {
  if (Rendered == 0 && PagesRendered == 0)
    Out += "No significant false sharing detected.\n";
  else if (Rendered > 0)
    Out += formatSummaryTable(SummaryRows);
  if (Stats.PageFindings)
    Out += formatString(
        "page totals: %s page findings (%s significant) over %s "
        "materialized pages\n",
        formatWithCommas(Stats.PageFindings).c_str(),
        formatWithCommas(Stats.SignificantPageFindings).c_str(),
        formatWithCommas(Stats.MaterializedPages).c_str());
  // Distinct wording from the CLI's own "runtime ... cycles" banner so the
  // two lines never read (or grep) as duplicates.
  Out += formatString(
      "report totals: %s findings (%s significant) from %s samples over "
      "%s cycles\n",
      formatWithCommas(Stats.Findings).c_str(),
      formatWithCommas(Stats.SignificantFindings).c_str(),
      formatWithCommas(Stats.SamplesDelivered).c_str(),
      formatWithCommas(Stats.AppRuntime).c_str());
}

//===----------------------------------------------------------------------===//
// JsonReportSink
//===----------------------------------------------------------------------===//

void JsonReportSink::beginRun(const ReportRunInfo &Info) {
  InPageArray = false;
  Writer.beginObject();
  Writer.member("schema", "cheetah-report-v5");
  Writer.key("run");
  Writer.beginObject();
  Writer.member("tool", Info.Tool);
  Writer.member("workload", Info.Workload);
  Writer.member("threads", Info.Threads);
  Writer.member("scale", Info.Scale);
  Writer.member("line_size", Info.LineSize);
  Writer.member("sampling_period", Info.SamplingPeriod);
  Writer.member("seed", Info.Seed);
  Writer.member("fix_applied", Info.FixApplied);
  Writer.member("numa_nodes", Info.NumaNodes);
  Writer.member("page_size", Info.PageSize);
  Writer.member("granularity", Info.Granularity);
  Writer.endObject();
  Writer.key("findings");
  Writer.beginArray();
}

void JsonReportSink::finding(const FalseSharingReport &Report,
                             bool Significant) {
  Writer.beginObject();

  Writer.key("object");
  Writer.beginObject();
  const ReportedObject &Object = Report.Object;
  if (!Object.IsHeap) {
    Writer.member("kind", "global");
    Writer.member("name", Object.GlobalName);
  } else if (!Object.CallsiteFrames.empty()) {
    Writer.member("kind", "heap");
    Writer.member("name", Object.CallsiteFrames.front());
  } else {
    // Arena line with no attributable allocation (allocator metadata or a
    // freed region).
    Writer.member("kind", "range");
    Writer.member("name", "");
  }
  Writer.key("callsite");
  Writer.beginArray();
  for (const std::string &Frame : Object.CallsiteFrames)
    Writer.value(Frame);
  Writer.endArray();
  Writer.member("start", Object.Start);
  Writer.member("size", Object.Size);
  Writer.member("requested_size", Object.RequestedSize);
  Writer.member("allocated_by", Object.AllocatedBy);
  Writer.endObject();

  Writer.member("sharing", sharingKindName(Report.Kind));
  Writer.member("significant", Significant);
  Writer.member("predictedImprovement", Report.Impact.ImprovementFactor);
  Writer.member("lines_tracked", Report.LinesTracked);
  Writer.member("accesses", Report.SampledAccesses);
  Writer.member("writes", Report.SampledWrites);
  Writer.member("invalidations", Report.Invalidations);
  Writer.member("latency_cycles", Report.LatencyCycles);
  Writer.member("threads_observed", Report.ThreadsObserved);
  Writer.member("shared_word_fraction", Report.SharedWordFraction);

  writeAssessment(Report.Impact);

  // The builder already cut the table to its hottest rows; words_total
  // says how many there were.
  Writer.member("words_total", Report.WordsTotal);
  Writer.key("words");
  Writer.beginArray();
  for (const WordReportEntry &Word : Report.Words) {
    Writer.beginObject();
    Writer.member("offset", Word.Offset);
    Writer.member("reads", Word.Reads);
    Writer.member("writes", Word.Writes);
    Writer.member("cycles", Word.Cycles);
    Writer.member("first_thread", Word.FirstThread);
    Writer.member("multi_thread", Word.MultiThread);
    Writer.endObject();
  }
  Writer.endArray();

  Writer.endObject();
}

void JsonReportSink::writeAssessment(const Assessment &Impact) {
  Writer.key("assessment");
  Writer.beginObject();
  Writer.member("improvement_factor", Impact.ImprovementFactor);
  Writer.member("improvement_percent", Impact.improvementPercent());
  Writer.member("real_runtime_cycles", Impact.RealAppRuntime);
  Writer.member("predicted_runtime_cycles", Impact.PredictedAppRuntime);
  Writer.member("average_nofs_latency", Impact.AverageNoFsLatency);
  Writer.member("used_default_latency", Impact.UsedDefaultLatency);
  Writer.member("fork_join_model", Impact.ForkJoinModel);
  Writer.endObject();
}

void JsonReportSink::startPageArray() {
  if (InPageArray)
    return;
  Writer.endArray(); // findings
  Writer.key("pageFindings");
  Writer.beginArray();
  InPageArray = true;
}

void JsonReportSink::pageFinding(const PageSharingReport &Report,
                                 bool Significant) {
  startPageArray();
  Writer.beginObject();
  Writer.member("page", Report.PageBase);
  Writer.member("page_size", Report.PageSize);
  Writer.member("home_node", Report.HomeNode);
  Writer.member("nodes", Report.NodesObserved);
  Writer.member("sharing", sharingKindName(Report.Kind));
  Writer.member("significant", Significant);
  Writer.member("predictedImprovement", Report.Impact.ImprovementFactor);
  Writer.member("accesses", Report.SampledAccesses);
  Writer.member("writes", Report.SampledWrites);
  Writer.member("remote_accesses", Report.RemoteAccesses);
  Writer.member("remote_fraction", Report.remoteFraction());
  Writer.member("invalidations", Report.Invalidations);
  Writer.member("latency_cycles", Report.LatencyCycles);
  Writer.member("remote_latency_cycles", Report.RemoteLatencyCycles);

  // The v4 distance breakdown: which node pairs the remote traffic
  // crossed. Bucket accesses sum to remote_accesses, cycles to
  // remote_latency_cycles.
  Writer.key("remote_by_distance");
  Writer.beginArray();
  for (const RemoteDistanceStats &Bucket : Report.RemoteByDistance) {
    Writer.beginObject();
    Writer.member("distance", Bucket.Distance);
    Writer.member("accesses", Bucket.Accesses);
    Writer.member("cycles", Bucket.Cycles);
    Writer.endObject();
  }
  Writer.endArray();

  Writer.member("shared_line_fraction", Report.SharedLineFraction);
  writeAssessment(Report.Impact);

  Writer.key("objects");
  Writer.beginArray();
  for (const std::string &Name : Report.Objects)
    Writer.value(Name);
  Writer.endArray();

  Writer.member("lines_total", Report.LinesTotal);
  Writer.key("lines");
  Writer.beginArray();
  for (const PageLineEntry &Line : Report.Lines) {
    Writer.beginObject();
    Writer.member("offset", Line.Offset);
    Writer.member("reads", Line.Reads);
    Writer.member("writes", Line.Writes);
    Writer.member("cycles", Line.Cycles);
    Writer.member("first_node", Line.FirstNode);
    Writer.member("multi_node", Line.MultiNode);
    Writer.endObject();
  }
  Writer.endArray();

  Writer.endObject();
}

void JsonReportSink::endRun(const ReportRunStats &Stats) {
  // The document always carries both arrays; a line-only run emits an
  // empty pageFindings so consumers never branch on key presence.
  startPageArray();
  Writer.endArray(); // pageFindings
  Writer.key("summary");
  Writer.beginObject();
  Writer.member("findings", Stats.Findings);
  Writer.member("significant_findings", Stats.SignificantFindings);
  Writer.member("page_findings", Stats.PageFindings);
  Writer.member("significant_page_findings", Stats.SignificantPageFindings);
  Writer.member("app_runtime_cycles", Stats.AppRuntime);
  Writer.member("samples", Stats.SamplesDelivered);
  Writer.member("serial_samples", Stats.SerialSamples);
  Writer.member("serial_avg_latency", Stats.SerialAverageLatency);
  Writer.member("fork_join", Stats.ForkJoinVerified);
  Writer.member("materialized_lines",
                static_cast<uint64_t>(Stats.MaterializedLines));
  Writer.member("shadow_bytes", static_cast<uint64_t>(Stats.ShadowBytes));
  Writer.member("materialized_pages",
                static_cast<uint64_t>(Stats.MaterializedPages));
  Writer.member("page_shadow_bytes",
                static_cast<uint64_t>(Stats.PageShadowBytes));
  // Emitted only when a bounded-memory run actually evicted grains, so
  // budget-never-hit runs stay byte-identical to unbounded ones (the
  // golden suite depends on this).
  if (Stats.LineEviction.Evicted.Grains || Stats.PageEviction.Evicted.Grains) {
    auto WriteStage = [&](const char *Key, const ReportEvictionStats &Stage) {
      Writer.key(Key);
      Writer.beginObject();
      Writer.member("budget_bytes", static_cast<uint64_t>(Stage.BudgetBytes));
      Writer.member("footprint_bytes",
                    static_cast<uint64_t>(Stage.FootprintBytes));
      Writer.member("evicted_grains", Stage.Evicted.Grains);
      Writer.member("accesses", Stage.Evicted.Accesses);
      Writer.member("writes", Stage.Evicted.Writes);
      Writer.member("cycles", Stage.Evicted.Cycles);
      Writer.member("invalidations", Stage.Evicted.Invalidations);
      Writer.member("remote_accesses", Stage.Evicted.RemoteAccesses);
      Writer.endObject();
    };
    Writer.key("eviction");
    Writer.beginObject();
    WriteStage("line", Stats.LineEviction);
    WriteStage("page", Stats.PageEviction);
    Writer.endObject();
  }
  Writer.key("detector");
  Writer.beginObject();
  Writer.member("seen", Stats.Detection.SamplesSeen);
  Writer.member("filtered", Stats.Detection.SamplesFiltered);
  Writer.member("recorded", Stats.Detection.SamplesRecorded);
  Writer.member("invalidations", Stats.Detection.Invalidations);
  Writer.member("page_recorded", Stats.Detection.PageSamplesRecorded);
  Writer.member("page_invalidations", Stats.Detection.PageInvalidations);
  Writer.member("remote_samples", Stats.Detection.RemoteSamples);
  Writer.endObject();
  Writer.endObject();
  Writer.endObject();
  Out += "\n";
}
