//===- tools/cheetah-diff.cpp - Cheetah report comparison CLI -------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compares two `cheetah-report-v2` to `v6` JSON reports (as written by
/// `cheetah-profile --format=json`): findings are matched by site/page
/// identity and classified as added, removed, or matched (with the
/// predicted-improvement delta). With `--gate=<factor>` the tool becomes a
/// CI regression gate: it exits non-zero when a significant finding at or
/// above the factor appeared or got worse in the new report.
///
/// Examples (an indented line continues the command above it):
///   cheetah-profile --workload=numa_first_touch --granularity=page
///       --format=json --output=broken.json
///   cheetah-profile --workload=numa_first_touch --granularity=page
///       --fix --format=json --output=fixed.json
///   cheetah-diff broken.json fixed.json
///   cheetah-diff --gate=1.1 broken.json fixed.json   # exit 0: no regression
///   cheetah-diff --gate=1.1 fixed.json broken.json   # exit 2: regressed
///   cheetah-diff --format=json old.json new.json | jq .gate
///
/// Exit codes: 0 = compared (gate clean or off), 1 = usage/IO/parse
/// error, 2 = gate regressions found.
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportDiff.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"

#include <cstdio>
#include <string>

using namespace cheetah;

int main(int Argc, char **Argv) {
  FlagSet Flags;
  Flags.addDouble("gate", 0.0,
                  "regression gate: exit 2 when a significant finding in "
                  "NEW has predicted improvement >= this factor and is new "
                  "or worse than in OLD (0 = off)");
  Flags.addString("format", "text", "diff format: text or json");
  Flags.addString("output", "",
                  "write the diff to this file (default: stdout)");

  std::string Error;
  if (!Flags.parse(Argc, Argv, Error)) {
    std::fprintf(stderr, "error: %s\n%s", Error.c_str(),
                 Flags.usage("cheetah-diff OLD.json NEW.json").c_str());
    return 1;
  }
  if (Flags.positional().size() != 2) {
    std::fprintf(stderr,
                 "error: expected exactly two report files (got %zu)\n%s",
                 Flags.positional().size(),
                 Flags.usage("cheetah-diff OLD.json NEW.json").c_str());
    return 1;
  }
  const std::string &Format = Flags.getString("format");
  if (Format != "text" && Format != "json") {
    std::fprintf(stderr,
                 "error: --format must be 'text' or 'json' (got '%s')\n",
                 Format.c_str());
    return 1;
  }
  double Gate = Flags.getDouble("gate");
  if (Gate < 0.0) {
    std::fprintf(stderr, "error: --gate must be >= 0 (got %f)\n", Gate);
    return 1;
  }

  core::ParsedReport Reports[2];
  for (int I = 0; I < 2; ++I) {
    const std::string &Path = Flags.positional()[I];
    std::string Text;
    if (!readFile(Path, Text, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!core::parseReport(Text, Reports[I], Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
      return 1;
    }
  }

  core::ReportDiffResult Diff =
      core::diffReports(Reports[0], Reports[1]);
  std::string Rendered = Format == "json"
                             ? core::formatDiffJson(Diff, Gate)
                             : core::formatDiffText(Diff, Gate);
  if (!writeFileOrStdout(Flags.getString("output"), Rendered, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  if (Gate > 0.0) {
    size_t Regressions = core::gateRegressions(Diff, Gate).size();
    if (Regressions > 0) {
      std::fprintf(stderr,
                   "cheetah-diff: gate %.4f tripped by %zu regression(s)\n",
                   Gate, Regressions);
      return 2;
    }
  }
  return 0;
}
