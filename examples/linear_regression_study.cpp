//===- examples/linear_regression_study.cpp - Paper case study 4.2.1 -------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's first case study end to end: profile linear_regression,
/// print the Figure 5 report, read the predicted improvement, apply the
/// one-line padding fix, and confirm the realized speedup matches the
/// prediction — exactly the workflow a Cheetah user follows.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace cheetah;

int main() {
  auto Workload = workloads::createWorkload("linear_regression");

  driver::SessionConfig Config;
  Config.Workload.Threads = 16;
  Config.Workload.Scale = 4.0;
  Config.Profiler.Pmu.SamplingPeriod = 128;

  std::printf("step 1: run linear_regression (16 threads) under Cheetah\n\n");
  driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);
  auto Significant = core::significant(Profiled.Profile.Findings);
  if (Significant.empty()) {
    std::printf("unexpected: no false sharing reported\n");
    return 1;
  }
  const core::FalseSharingReport &Report = *Significant.front();
  std::fputs(core::formatReport(Report).c_str(), stdout);

  std::printf("\nstep 2: the report names the allocation site "
              "(linear_regression-pthread.c:139, the tid_args array) and "
              "shows each hot word written by a single distinct thread — "
              "the false-sharing signature.\n");

  double Predicted = Report.Impact.ImprovementFactor;
  std::printf("\nstep 3: Cheetah predicts a %.2fx speedup from padding.\n",
              Predicted);

  std::printf("\nstep 4: apply the paper's fix (pad lreg_args so each "
              "thread's struct owns its line) and rerun natively...\n");
  driver::SessionConfig Fixed = Config;
  Fixed.Workload.FixFalseSharing = true;
  Fixed.EnableProfiler = false;
  driver::SessionResult FixedRun = driver::runWorkload(*Workload, Fixed);

  double Actual = static_cast<double>(Profiled.Run.TotalCycles) /
                  static_cast<double>(FixedRun.Run.TotalCycles);
  std::printf("\nunfixed: %s cycles\nfixed:   %s cycles\n",
              formatWithCommas(Profiled.Run.TotalCycles).c_str(),
              formatWithCommas(FixedRun.Run.TotalCycles).c_str());
  std::printf("realized speedup %.2fx vs predicted %.2fx (%+.1f%% "
              "prediction error)\n",
              Actual, Predicted, (Predicted / Actual - 1.0) * 100.0);
  std::printf("\npaper reference: 5.7x realized vs 5.76x predicted at 16 "
              "threads (Section 4.2.1)\n");
  return 0;
}
