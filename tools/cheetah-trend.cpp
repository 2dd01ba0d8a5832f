//===- tools/cheetah-trend.cpp - Report history / trend CLI ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet-scale operation of the report pipeline: folds an ordered
/// sequence of `cheetah-report-v2..v5` reports (or `cheetah-diff-v1`
/// documents) into one versioned `cheetah-history-v1` store, then
/// answers trend questions over it — the N-run generalization of
/// `cheetah-diff`'s single-pair gate.
///
/// Commands:
///   cheetah-trend append --store=FILE [--run-id=ID] REPORT.json...
///       Appends each report as the next run. A missing store file
///       starts an empty store; the result is written back. Run ids
///       default to "run-<index>" and must be unique.
///   cheetah-trend show --store=FILE [--limit=N] [--gate=F] [--bisect=KEY]
///       Prints the ranked fleet-wide view (worst current findings,
///       biggest regressions vs best, per-run new/resolved counts).
///       With --gate=F, exits 2 when any significant finding in the
///       last run sits at or above F after being below it (or absent)
///       at its best historical value. With --bisect=KEY (requires
///       --gate), binary-searches the stored runs and names the exact
///       run that introduced the regression of KEY.
///
/// Examples:
///   cheetah-profile --workload=numa_first_touch --granularity=page \
///       --format=json --output=run1.json
///   cheetah-trend append --store=history.json --run-id=nightly-001 run1.json
///   cheetah-trend show --store=history.json
///   cheetah-trend show --store=history.json --gate=1.2
///   cheetah-trend show --store=history.json --gate=1.2 \
///       --bisect='page:numa_slots#0'
///
/// Exit codes follow the cheetah-diff contract: 0 = clean (or gate
/// off), 1 = usage/IO/parse error, 2 = gate regressions found.
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportHistory.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"

#include <cstdio>
#include <string>

using namespace cheetah;

namespace {

int usage(const FlagSet &Flags) {
  std::fputs(Flags.usage("cheetah-trend append|show [flags] [REPORT...]")
                 .c_str(),
             stderr);
  return 1;
}

/// Loads the store behind --store. A missing file is an empty store for
/// append (MustExist false) and an error for show.
bool loadStore(const std::string &Path, bool MustExist,
               core::ReportHistory &History) {
  std::string Text, Error;
  bool Missing = false;
  if (!readFile(Path, Text, Error, &Missing)) {
    // Only a store that is not there at all starts empty: one that cannot
    // be read must not be replaced by a fresh one.
    if (Missing && !MustExist)
      return true;
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  if (!core::ReportHistory::parse(Text, History, Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    return false;
  }
  return true;
}

int runAppend(const FlagSet &Flags,
              const std::vector<std::string> &Reports) {
  const std::string &StorePath = Flags.getString("store");
  if (Reports.empty()) {
    std::fprintf(stderr, "error: append needs at least one report file\n");
    return 1;
  }
  const std::string &RunId = Flags.getString("run-id");
  if (!RunId.empty() && Reports.size() > 1) {
    std::fprintf(stderr,
                 "error: --run-id names one run; it cannot cover %zu "
                 "reports\n",
                 Reports.size());
    return 1;
  }

  core::ReportHistory History;
  if (!loadStore(StorePath, /*MustExist=*/false, History))
    return 1;

  for (const std::string &Path : Reports) {
    std::string Text, Error;
    if (!readFile(Path, Text, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    core::ParsedReport Report;
    if (!core::parseRunDocument(Text, Report, Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
      return 1;
    }
    std::string Id = RunId.empty()
                         ? "run-" + std::to_string(History.runs().size())
                         : RunId;
    if (!History.appendRun(Report, Id, Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
      return 1;
    }
    std::printf("appended %s as run %zu (%s): %llu new, %llu resolved, "
                "%llu matched\n",
                Path.c_str(), History.runs().size() - 1, Id.c_str(),
                static_cast<unsigned long long>(
                    History.runs().back().NewFindings),
                static_cast<unsigned long long>(
                    History.runs().back().ResolvedFindings),
                static_cast<unsigned long long>(
                    History.runs().back().MatchedFindings));
  }
  std::string Error;
  if (!writeFile(StorePath, History.serialize(), Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  return 0;
}

int runShow(const FlagSet &Flags) {
  core::ReportHistory History;
  if (!loadStore(Flags.getString("store"), /*MustExist=*/true, History))
    return 1;

  int64_t Limit = Flags.getInt("limit");
  if (Limit < 0) {
    std::fprintf(stderr, "error: --limit must be >= 0 (got %lld)\n",
                 static_cast<long long>(Limit));
    return 1;
  }
  double Gate = Flags.getDouble("gate");
  if (Gate < 0.0) {
    std::fprintf(stderr, "error: --gate must be >= 0 (got %f)\n", Gate);
    return 1;
  }
  const std::string &BisectKey = Flags.getString("bisect");
  if (!BisectKey.empty() && Gate <= 0.0) {
    std::fprintf(stderr,
                 "error: --bisect needs --gate to define the regression "
                 "factor\n");
    return 1;
  }

  if (History.runs().empty()) {
    // An empty store is a fine state for a daemon that has not completed
    // its first epoch yet — report it explicitly and exit clean instead
    // of gating or bisecting nothing.
    std::printf("no runs in store '%s'\n",
                Flags.getString("store").c_str());
    return 0;
  }

  std::fputs(core::formatHistoryText(History, static_cast<size_t>(Limit))
                 .c_str(),
             stdout);

  if (!BisectKey.empty()) {
    if (History.runs().size() < 2) {
      // A single run has no earlier state to transition from; nothing to
      // bisect is not an error.
      std::printf("bisect: %s: no transition to bisect (store has %zu "
                  "run%s)\n",
                  BisectKey.c_str(), History.runs().size(),
                  History.runs().size() == 1 ? "" : "s");
      return 0;
    }
    core::BisectResult Bisect = History.bisect(BisectKey, Gate);
    if (!Bisect.Valid) {
      std::fprintf(stderr, "error: bisect: %s\n", Bisect.Error.c_str());
      return 1;
    }
    if (Bisect.BadFromStart)
      std::printf("bisect: %s already regressing in run 0 (%s) - the "
                  "culprit predates this store (%u probes)\n",
                  BisectKey.c_str(), Bisect.IntroducedRunId.c_str(),
                  Bisect.Probes);
    else
      std::printf("bisect: %s introduced at run %u (%s), %u probes over "
                  "%zu runs\n",
                  BisectKey.c_str(), Bisect.IntroducedIndex,
                  Bisect.IntroducedRunId.c_str(), Bisect.Probes,
                  History.runs().size());
  }

  if (Gate > 0.0) {
    std::vector<core::HistoryGateViolation> Violations =
        History.gate(Gate);
    std::printf("== gate: factor %.4f ==\n", Gate);
    for (const core::HistoryGateViolation &Violation : Violations) {
      const char *Why =
          Violation.Why == core::HistoryGateViolation::Kind::NewSite
              ? "new-site"
              : Violation.Why == core::HistoryGateViolation::Kind::Crossed
                    ? "crossed"
                    : "grew";
      std::printf("  REGRESSION %-8s %s  improvement %.4fx (best %.4fx)\n",
                  Why, Violation.Key.c_str(), Violation.Improvement,
                  Violation.Best);
    }
    std::printf("gate verdict: %zu regression(s)\n", Violations.size());
    if (!Violations.empty()) {
      std::fprintf(stderr,
                   "cheetah-trend: gate %.4f tripped by %zu regression(s)\n",
                   Gate, Violations.size());
      return 2;
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags;
  Flags.addString("store", "", "history store file (cheetah-history-v1)");
  Flags.addString("run-id", "",
                  "id for the appended run (default: run-<index>)");
  Flags.addInt("limit", 0,
               "cap ranked sections of 'show' at this many rows (0 = all)");
  Flags.addDouble("gate", 0.0,
                  "regression gate: exit 2 when a significant finding in "
                  "the last run has predicted improvement >= this factor "
                  "and was below it (or absent) at its best historical "
                  "value (0 = off)");
  Flags.addString("bisect", "",
                  "finding key to bisect: name the run that introduced its "
                  "regression at the --gate factor");

  std::string Error;
  if (!Flags.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Flags);
  }
  if (Flags.positional().empty()) {
    std::fprintf(stderr, "error: expected a command (append or show)\n");
    return usage(Flags);
  }
  if (Flags.getString("store").empty()) {
    std::fprintf(stderr, "error: --store is required\n");
    return usage(Flags);
  }

  const std::string &Command = Flags.positional().front();
  std::vector<std::string> Rest(Flags.positional().begin() + 1,
                                Flags.positional().end());
  if (Command == "append")
    return runAppend(Flags, Rest);
  if (Command == "show") {
    if (!Rest.empty()) {
      std::fprintf(stderr, "error: show takes no report files\n");
      return usage(Flags);
    }
    return runShow(Flags);
  }
  std::fprintf(stderr, "error: unknown command '%s' (append or show)\n",
               Command.c_str());
  return usage(Flags);
}
