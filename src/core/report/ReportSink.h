//===- core/report/ReportSink.h - Streaming report consumers ---*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming side of the report pipeline: Profiler::buildReport, the
/// one place that streams findings, pushes them through a ReportSink one
/// at a time once they are built, each with its own significance flag.
/// Two implementations ship: TextReportSink renders the paper's Figure-5
/// text format, JsonReportSink emits a stable machine-readable schema
/// (`cheetah-report-v6`) consumed by the multi-run comparison tooling in
/// ReportDiff.h / `cheetah-diff`. Both append to a caller-owned string so
/// the caller chooses the final destination (stdout, a file, a
/// golden-test buffer).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_REPORTSINK_H
#define CHEETAH_CORE_REPORT_REPORTSINK_H

#include "core/detect/Detector.h"
#include "core/report/Report.h"
#include "support/Json.h"

#include <cstdint>
#include <string>

namespace cheetah {
namespace core {

/// Run-level identification emitted before any finding. Fill what you
/// know; empty/zero fields are omitted or emitted as-is per sink.
struct ReportRunInfo {
  /// Producing tool, e.g. "cheetah-profile".
  std::string Tool;
  std::string Workload;
  uint32_t Threads = 0;
  double Scale = 1.0;
  uint64_t LineSize = 0;
  uint64_t SamplingPeriod = 0;
  uint64_t Seed = 0;
  /// True when the workload ran with the padding fix applied.
  bool FixApplied = false;
  /// Simulated NUMA node count (1 = UMA).
  uint32_t NumaNodes = 1;
  /// Page size of the page-granularity detector (0 when line-only).
  uint64_t PageSize = 0;
  /// Detection granularity: "line", "page", or "both".
  std::string Granularity = "line";
};

/// One stage's bounded-memory eviction outcome: the configured budget, the
/// post-snapshot footprint, and the residue folded out of evicted grains
/// (so residue + live state still conserves the detector counters).
struct ReportEvictionStats {
  size_t BudgetBytes = 0;
  size_t FootprintBytes = 0;
  GrainEvictionStats Evicted;
};

/// Run-level outcome emitted after the last finding.
struct ReportRunStats {
  uint64_t AppRuntime = 0;
  uint64_t SamplesDelivered = 0;
  uint64_t SerialSamples = 0;
  double SerialAverageLatency = 0.0;
  bool ForkJoinVerified = true;
  DetectorStats Detection;
  size_t MaterializedLines = 0;
  size_t ShadowBytes = 0;
  /// Counts over the findings that passed through the sink.
  uint64_t Findings = 0;
  uint64_t SignificantFindings = 0;
  // Page-granularity totals (zero when page tracking is off).
  size_t MaterializedPages = 0;
  size_t PageShadowBytes = 0;
  uint64_t PageFindings = 0;
  uint64_t SignificantPageFindings = 0;
  /// Per-stage eviction outcome (budget-bounded continuous runs only). The
  /// JSON sink emits the "eviction" summary object only when at least one
  /// grain was actually evicted, so bounded runs that never hit the budget
  /// stay byte-identical to unbounded ones.
  ReportEvictionStats LineEviction;
  ReportEvictionStats PageEviction;
};

/// Consumer of a stream of per-object findings. Calls arrive in order:
/// beginRun, then finding() once per object (highest predicted improvement
/// first), then pageFinding() once per tracked page (worst first; only in
/// page-granularity runs), then endRun. Implementations must tolerate zero
/// findings of either kind.
class ReportSink {
public:
  virtual ~ReportSink() = default;

  virtual void beginRun(const ReportRunInfo &Info) = 0;

  /// One per-object finding. \p Significant is the finding's own flag,
  /// set by the line gate (kind + invalidation + predicted-improvement
  /// thresholds).
  virtual void finding(const FalseSharingReport &Report, bool Significant) = 0;

  /// One per-page NUMA finding; default ignores them so line-only sinks
  /// keep working unchanged.
  virtual void pageFinding(const PageSharingReport &Report, bool Significant) {
    (void)Report;
    (void)Significant;
  }

  virtual void endRun(const ReportRunStats &Stats) = 0;
};

/// Figure-5-style text, streamed finding by finding. Per-finding detail is
/// appended as each finding arrives; the one-line-per-object summary table
/// is rendered at endRun (a streaming sink cannot print a table of rows it
/// has not seen yet), together with the run totals.
class TextReportSink : public ReportSink {
public:
  struct Options {
    /// Also render findings that failed the significance gate.
    bool IncludeInsignificant = false;
    ReportFormatOptions Format;
  };

  explicit TextReportSink(std::string &Out)
      : TextReportSink(Out, Options()) {}
  TextReportSink(std::string &Out, const Options &Opts)
      : Out(Out), Opts(Opts) {}

  void beginRun(const ReportRunInfo &Info) override;
  void finding(const FalseSharingReport &Report, bool Significant) override;
  void pageFinding(const PageSharingReport &Report,
                   bool Significant) override;
  void endRun(const ReportRunStats &Stats) override;

private:
  std::string &Out;
  Options Opts;
  std::vector<FalseSharingReport> SummaryRows;
  uint64_t Rendered = 0;
  uint64_t PagesRendered = 0;
};

/// Stable machine-readable schema:
///
/// \code{.json}
/// {
///   "schema": "cheetah-report-v6",
///   "run": { "tool", "workload", "threads", "scale", "line_size",
///            "sampling_period", "seed", "fix_applied", "numa_nodes",
///            "page_size", "granularity" },
///   "findings": [ {
///     "object": { "kind": "heap"|"global"|"range", "name", "callsite": [],
///                 "start", "size", "requested_size", "allocated_by" },
///     "sharing": "false-sharing"|"true-sharing"|"mixed-sharing"|"not-shared",
///     "significant": bool,
///     "predictedImprovement": number,
///     "lines_tracked", "accesses", "writes", "invalidations",
///     "latency_cycles", "threads_observed", "shared_word_fraction",
///     "assessment": { "improvement_factor", "improvement_percent",
///                     "real_runtime_cycles", "predicted_runtime_cycles",
///                     "average_nofs_latency", "used_default_latency",
///                     "fork_join_model" },
///     "words_total",
///     "words": [ { "offset", "reads", "writes", "cycles", "first_thread",
///                  "multi_thread" } ]
///   } ],
///   "pageFindings": [ {
///     "page", "page_size", "home_node", "nodes",
///     "sharing": "false-sharing"|"true-sharing"|"mixed-sharing"|"not-shared",
///     "significant": bool,
///     "predictedImprovement": number,
///     "accesses", "writes", "remote_accesses", "remote_fraction",
///     "invalidations", "latency_cycles", "remote_latency_cycles",
///     "remote_by_distance": [ { "distance", "accesses", "cycles" } ],
///     "shared_line_fraction",
///     "assessment": { "improvement_factor", "improvement_percent",
///                     "real_runtime_cycles", "predicted_runtime_cycles",
///                     "average_nofs_latency", "used_default_latency",
///                     "fork_join_model" },
///     "objects": [ "name" ],
///     "lines_total",
///     "lines": [ { "offset", "reads", "writes", "cycles", "first_node",
///                  "multi_node" } ]
///   } ],
///   "summary": { "findings", "significant_findings", "page_findings",
///                "significant_page_findings", "app_runtime_cycles",
///                "samples", "serial_samples", "serial_avg_latency",
///                "fork_join", "materialized_lines", "shadow_bytes",
///                "materialized_pages", "page_shadow_bytes",
///                "eviction": { "line": { "budget_bytes", "footprint_bytes",
///                                        "evicted_grains", "accesses",
///                                        "writes", "cycles",
///                                        "invalidations",
///                                        "remote_accesses" },
///                              "page": { same } },
///                "detector": { "seen", "filtered", "recorded",
///                              "invalidations", "page_recorded",
///                              "page_invalidations", "remote_samples" } }
/// }
/// \endcode
///
/// Schema evolution contract: fields are only ever added, never renamed or
/// removed, within one schema version. `cheetah-report-v3` was `v2` plus
/// the assessment of page findings and the top-level
/// `predictedImprovement` factor on findings of both granularities.
/// `cheetah-report-v4` is `v3` plus the per-page-finding
/// `remote_by_distance` breakdown (which node-pair distances the remote
/// traffic crossed); the version string changed so that `v3` consumers
/// pinning the schema id fail loudly instead of silently reading findings
/// whose remote costs — and therefore ordering — now depend on the
/// topology's distance matrix. Within v4 the summary `eviction` object was
/// added under the fields-only-ever-added rule: it appears only when a
/// bounded-memory run actually evicted grains, so its absence means every
/// grain is still live. `cheetah-report-v5` is `v4` plus `words_total` and
/// `lines_total`, with each `words`/`lines` table cut to its
/// ReportTableRows (16) hottest rows, hottest first and then by offset;
/// the totals count the rows before the cut. v4 listed every touched word
/// and line, so the version string changed: a v4 consumer summing a table
/// must fail loudly, not read a cut table as a whole one.
/// `cheetah-report-v6` is `v5` with empty `words`/`lines` tables on every
/// finding whose `significant` is false: like the paper's Cheetah, which
/// prints only significant instances, the word-level guidance is kept
/// for the findings worth fixing. Such a finding keeps its counters,
/// `assessment`, `objects` and `words_total`/`lines_total`, and both
/// arrays are still present. The version string changed because a v5
/// consumer reading an insignificant finding's rows must fail loudly, not
/// read an empty table as an untouched object. `cheetah-diff` and
/// `cheetah-trend` accept v2 through v6.
class JsonReportSink : public ReportSink {
public:
  explicit JsonReportSink(std::string &Out) : Out(Out), Writer(Out) {}

  void beginRun(const ReportRunInfo &Info) override;
  void finding(const FalseSharingReport &Report, bool Significant) override;
  void pageFinding(const PageSharingReport &Report,
                   bool Significant) override;
  void endRun(const ReportRunStats &Stats) override;

private:
  /// Emits the "assessment" member (shared by line and page findings).
  void writeAssessment(const Assessment &Impact);

  /// Closes the findings array and opens pageFindings (idempotent); the
  /// document always carries both arrays, empty or not.
  void startPageArray();

  std::string &Out;
  JsonWriter Writer;
  bool InPageArray = false;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_REPORTSINK_H
