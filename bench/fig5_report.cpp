//===- bench/fig5_report.cpp - Figure 5 reproduction -----------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 5: Cheetah's report for linear_regression at 16 threads, printed
/// with the paper's hexadecimal counters. The paper's instance lives at
/// linear_regression-pthread.c:139 with a predicted 5.76x improvement; the
/// reproduced report must identify the same callsite, classify it as false
/// sharing, and predict a multi-x improvement.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace cheetah;

int main() {
  auto Workload = workloads::createWorkload("linear_regression");
  driver::SessionConfig Config;
  Config.Workload.Threads = 16;
  Config.Workload.Scale = 4.0;
  Config.Profiler.Pmu.SamplingPeriod = 128;

  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  std::printf("Figure 5: Cheetah report for linear_regression "
              "(16 threads)\n\n");
  auto Significant = core::significant(Result.Profile.Findings);
  if (Significant.empty()) {
    std::printf("ERROR: no false sharing reported\n");
    return 1;
  }
  core::ReportFormatOptions Options;
  Options.HexCounters = true; // the paper prints 27f / 12e1 / 106389
  // The figure lists the 8 hottest words; the report counts the rest
  // of its words as elided.
  core::FalseSharingReport Shown = *Significant.front();
  if (Shown.Words.size() > 8)
    Shown.Words.resize(8);
  std::fputs(core::formatReport(Shown, Options).c_str(), stdout);
  std::printf("\npaper shape: heap object at linear_regression-pthread.c:139"
              ", false sharing, ~5.76x predicted improvement\n");
  return 0;
}
