//===- bench/fig7_missed.cpp - Figure 7 reproduction -----------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7: the false-sharing instances Cheetah misses (histogram,
/// reverse_index, word_count) are worth almost nothing: runtime with the
/// instance present, normalized to the padded run, stays within a fraction
/// of a percent (the paper reports <0.2%). The harness also confirms the
/// two-sided story: sampling at the deployment period reports nothing,
/// while the every-access baseline still finds the (insignificant) lines.
///
/// The second table inverts the blind spot one level up: on the
/// remote-DRAM (node-interleaved) scenario the *line*-granularity detector
/// structurally reports nothing — no cache line is ever shared — while the
/// page-granularity detector finds the cross-node page sharing, and the
/// padded (page-local) rerun quantifies what it was worth.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "mem/NumaTopology.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace cheetah;

int main() {
  std::printf("Figure 7: impact of the false-sharing instances sampling "
              "misses (16 threads)\n\n");
  TextTable Table;
  Table.setHeader({"application", "with-FS (cycles)", "no-FS (cycles)",
                   "normalized", "cheetah reports", "full-tracker finds FS"});

  for (const char *Name : {"histogram", "reverse_index", "word_count"}) {
    auto Workload = workloads::createWorkload(Name);
    driver::SessionConfig Config;
    Config.Workload.Threads = 16;
    Config.Workload.Scale = 2.0;
    Config.Profiler.Pmu.SamplingPeriod = 65536;

    driver::SessionConfig Native = Config;
    Native.EnableProfiler = false;
    uint64_t WithFs = driver::runWorkload(*Workload, Native).Run.TotalCycles;
    Native.Workload.FixFalseSharing = true;
    uint64_t NoFs = driver::runWorkload(*Workload, Native).Run.TotalCycles;

    driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);

    baseline::FullTrackerConfig Tracker;
    driver::FullTrackResult Full =
        driver::runFullTracking(*Workload, Config, Tracker);
    bool FullFinds = false;
    for (const auto &Finding : Full.Findings)
      FullFinds |= Finding.Kind == core::SharingKind::FalseSharing &&
                   Finding.Threads >= 2;

    Table.addRow({Name, formatWithCommas(WithFs), formatWithCommas(NoFs),
                  formatString("%.4f", static_cast<double>(WithFs) /
                                           static_cast<double>(NoFs)),
                  std::to_string(
                      core::significant(Profiled.Profile.Findings).size()),
                  FullFinds ? "yes" : "no"});
  }
  std::fputs(Table.render().c_str(), stdout);
  std::printf("\npaper shape: normalized ratio ~1.000 (<0.2%% impact); "
              "Cheetah reports none of them\n");

  std::printf("\nRemote-DRAM scenario: findings the line-granularity "
              "detector structurally misses (2 NUMA nodes, 16 threads)\n\n");
  TextTable PageTableOut;
  PageTableOut.setHeader({"application", "with-FS (cycles)", "no-FS (cycles)",
                          "normalized", "line findings", "page findings",
                          "remote accesses"});
  for (const char *Name : {"numa_interleaved", "numa_first_touch"}) {
    auto Workload = workloads::createWorkload(Name);
    driver::SessionConfig Config;
    Config.Workload.Threads = 16;
    Config.Workload.NumaNodes = 2;
    Config.Profiler.Topology = NumaTopology(2, 4096);
    Config.Profiler.Detect.TrackPages = true;
    // Denser than the deployment period: the page gate wants enough
    // sampled remote accesses per page to call the placement significant.
    Config.Profiler.Pmu.SamplingPeriod = 128;

    driver::SessionConfig Native = Config;
    Native.EnableProfiler = false;
    driver::SessionResult WithFs = driver::runWorkload(*Workload, Native);
    Native.Workload.FixFalseSharing = true;
    driver::SessionResult NoFs = driver::runWorkload(*Workload, Native);

    driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);

    PageTableOut.addRow(
        {Name, formatWithCommas(WithFs.Run.TotalCycles),
         formatWithCommas(NoFs.Run.TotalCycles),
         formatString("%.4f",
                      static_cast<double>(WithFs.Run.TotalCycles) /
                          static_cast<double>(NoFs.Run.TotalCycles)),
         std::to_string(core::significant(Profiled.Profile.Findings).size()),
         std::to_string(
             core::significant(Profiled.Profile.PageFindings).size()),
         formatWithCommas(WithFs.Run.RemoteNumaAccesses)});
  }
  std::fputs(PageTableOut.render().c_str(), stdout);
  std::printf("\npage shape: line findings 0 on both — the sharing exists "
              "only at page granularity, where --granularity=page sees it\n");
  return 0;
}
