//===- bench/ablation_sampling.cpp - Sampling-period ablation --------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A (paper Section 2.1 claim: "even with sparse samples, one out
/// of 64K instructions, PMU sampling can identify false sharing with a
/// significant performance impact"). Sweeps the sampling period on
/// linear_regression (must stay detected throughout) and word_count's minor
/// instance (detected only at dense periods), and reports the sample volume
/// and prediction quality at each period.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace cheetah;

int main() {
  std::printf("Ablation A: detection and prediction vs sampling period "
              "(16 threads)\n\n");
  TextTable Table;
  Table.setHeader({"period", "samples", "lreg detected", "lreg predicted",
                   "word_count minor FS detected"});

  auto Lreg = workloads::createWorkload("linear_regression");
  auto WordCount = workloads::createWorkload("word_count");

  for (uint64_t Period : {256u, 1024u, 4096u, 16384u, 65536u, 262144u}) {
    driver::SessionConfig Config;
    Config.Workload.Threads = 16;
    Config.Workload.Scale = 4.0;
    Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(Period);

    driver::SessionResult LregRun = driver::runWorkload(*Lreg, Config);
    const core::FalseSharingReport *LregReport =
        LregRun.Profile.findReport("linear_regression-pthread.c:139");

    driver::SessionConfig WcConfig = Config;
    WcConfig.Workload.Scale = 2.0;
    driver::SessionResult WcRun = driver::runWorkload(*WordCount, WcConfig);
    bool WcDetected = !core::significant(WcRun.Profile.Findings).empty();

    Table.addRow(
        {formatHuman(Period), formatWithCommas(LregRun.Profile.SamplesDelivered),
         LregReport ? "yes" : "NO",
         LregReport
             ? formatString("%.2fx", LregReport->Impact.ImprovementFactor)
             : "-",
         WcDetected ? "yes" : "no"});
  }
  std::fputs(Table.render().c_str(), stdout);
  std::printf("\nexpected shape: the significant instance survives sparse "
              "sampling; the minor instance only appears (if at all) when "
              "sampling is dense.\nnote: the simulation compresses execution ~1000x versus the paper's >=5 s runs;\nthe detection knee is a *sample count* (~hundreds on the object), so at real\nexecution lengths the deployment period of 64K matches the paper's claim\n");
  return 0;
}
