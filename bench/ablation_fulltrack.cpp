//===- bench/ablation_fulltrack.cpp - Sampling vs full instrumentation -----===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation C (paper Sections 2.1 and 6.1): software instrumentation of
/// every access costs 5x-100x; PMU sampling is what makes Cheetah
/// deployable. For a representative subset of applications, compares native
/// runtime, Cheetah at the deployment period, and a Predator-style
/// every-access tracker, in simulated cycles and in host wall-clock.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include <chrono>
#include <cstdio>

using namespace cheetah;

int main() {
  std::printf("Ablation C: Cheetah sampling vs Predator-style full "
              "instrumentation (16 threads)\n\n");
  TextTable Table;
  Table.setHeader({"application", "cheetah slowdown", "full-track slowdown",
                   "full/cheetah", "host analysis time ratio"});

  for (const char *Name :
       {"linear_regression", "histogram", "blackscholes", "canneal",
        "streamcluster"}) {
    auto Workload = workloads::createWorkload(Name);
    driver::SessionConfig Config;
    Config.Workload.Threads = 16;
    Config.Workload.Scale = 1.0;
    Config.Profiler.Pmu.SamplingPeriod = 65536;

    driver::SessionConfig Native = Config;
    Native.EnableProfiler = false;
    uint64_t Baseline =
        driver::runWorkload(*Workload, Native).Run.TotalCycles;

    auto HostStart = std::chrono::steady_clock::now();
    driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);
    auto HostMid = std::chrono::steady_clock::now();
    driver::FullTrackResult Full = driver::runFullTracking(*Workload, Config);
    auto HostEnd = std::chrono::steady_clock::now();

    double CheetahSlowdown = static_cast<double>(Profiled.Run.TotalCycles) /
                             static_cast<double>(Baseline);
    double FullSlowdown = static_cast<double>(Full.Run.TotalCycles) /
                          static_cast<double>(Baseline);
    double HostCheetah =
        std::chrono::duration<double>(HostMid - HostStart).count();
    double HostFull =
        std::chrono::duration<double>(HostEnd - HostMid).count();

    Table.addRow({Name, formatString("%.3fx", CheetahSlowdown),
                  formatString("%.3fx", FullSlowdown),
                  formatString("%.1fx", FullSlowdown / CheetahSlowdown),
                  formatString("%.1fx", HostFull / HostCheetah)});
  }
  std::fputs(Table.render().c_str(), stdout);
  std::printf("\nexpected shape: Cheetah near 1.0x, full instrumentation "
              "several times slower\n");
  return 0;
}
