//===- tests/WorkloadsTest.cpp - workload model tests ----------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload model must build, run deterministically, respect its
/// thread/phase structure, and carry (or not carry) the false sharing the
/// paper attributes to it. Parameterized over the full registry.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "workloads/Patterns.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::workloads;

namespace {

driver::SessionConfig smallConfig(uint32_t Threads = 4, double Scale = 0.1) {
  driver::SessionConfig Config;
  Config.Workload.Threads = Threads;
  Config.Workload.Scale = Scale;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(512);
  return Config;
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

TEST(PatternsTest, WriteInitCoversRegionExactly) {
  auto Gen = writeInit(0x1000, 64, 0, 8);
  int Writes = 0;
  uint64_t Last = 0;
  while (Gen.next()) {
    ASSERT_TRUE(Gen.value().isMemory());
    EXPECT_TRUE(Gen.value().Access.isWrite());
    Last = Gen.value().Access.Address;
    ++Writes;
  }
  EXPECT_EQ(Writes, 8);
  EXPECT_EQ(Last, 0x1000u + 56);
}

TEST(PatternsTest, ReadScanRepeats) {
  auto Gen = readScan(0x1000, 32, 3, 0, 4);
  int Reads = 0;
  while (Gen.next())
    ++Reads;
  EXPECT_EQ(Reads, 8 * 3);
}

TEST(PatternsTest, AccumulateLoopMixesReadsAndWrites) {
  AccumulateParams Params;
  Params.InputBase = 0x1000;
  Params.InputBytes = 1024;
  Params.ReadsPerItem = 2;
  Params.AccumBase = 0x2000;
  Params.AccumBytes = 64;
  Params.WritesPerItem = 1;
  Params.ComputePerItem = 3;
  Params.Items = 10;
  auto Gen = accumulateLoop(Params);
  int Reads = 0, Writes = 0, Computes = 0;
  while (Gen.next()) {
    const ThreadEvent &Event = Gen.value();
    if (!Event.isMemory())
      ++Computes;
    else if (Event.Access.isWrite())
      ++Writes;
    else
      ++Reads;
  }
  EXPECT_EQ(Reads, 20);
  EXPECT_EQ(Writes, 10);
  EXPECT_EQ(Computes, 10);
}

TEST(PatternsTest, ComputeLoopAccessCadence) {
  auto Gen = computeLoop(0x1000, 64, 12, 5, 4);
  int Writes = 0, Computes = 0;
  while (Gen.next()) {
    if (Gen.value().isMemory())
      ++Writes;
    else
      ++Computes;
  }
  EXPECT_EQ(Computes, 12);
  EXPECT_EQ(Writes, 3); // iterations 0, 4, 8
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(WorkloadRegistryTest, AllSeventeenPlusMicroPresent) {
  auto All = createAllWorkloads();
  EXPECT_EQ(All.size(), 21u); // 8 Phoenix + 9 PARSEC + fig1 + 3 NUMA
  int Phoenix = 0, Parsec = 0, Micro = 0, Numa = 0;
  for (const auto &Workload : All) {
    if (Workload->suite() == "phoenix")
      ++Phoenix;
    else if (Workload->suite() == "parsec")
      ++Parsec;
    else if (Workload->suite() == "micro")
      ++Micro;
    else if (Workload->suite() == "numa")
      ++Numa;
  }
  EXPECT_EQ(Phoenix, 8);
  EXPECT_EQ(Parsec, 9);
  EXPECT_EQ(Micro, 1);
  EXPECT_EQ(Numa, 3);
}

TEST(WorkloadRegistryTest, LookupByName) {
  EXPECT_NE(createWorkload("linear_regression"), nullptr);
  EXPECT_NE(createWorkload("streamcluster"), nullptr);
  EXPECT_EQ(createWorkload("no_such_app"), nullptr);
  EXPECT_NE(createWorkload("numa_interleaved"), nullptr);
  EXPECT_NE(createWorkload("numa_first_touch"), nullptr);
  EXPECT_NE(createWorkload("numa_asymmetric"), nullptr);
  EXPECT_EQ(createAllWorkloads().size(), 21u);
}

TEST(WorkloadRegistryTest, PaperAttributesAreConsistent) {
  // The two significant instances and the three minor ones, per the paper.
  EXPECT_TRUE(createWorkload("linear_regression")->hasSignificantFalseSharing());
  EXPECT_TRUE(createWorkload("streamcluster")->hasSignificantFalseSharing());
  EXPECT_TRUE(createWorkload("fig1_array")->hasSignificantFalseSharing());
  EXPECT_TRUE(createWorkload("histogram")->hasMinorFalseSharing());
  EXPECT_TRUE(createWorkload("reverse_index")->hasMinorFalseSharing());
  EXPECT_TRUE(createWorkload("word_count")->hasMinorFalseSharing());
  EXPECT_FALSE(createWorkload("blackscholes")->hasSignificantFalseSharing());
  EXPECT_FALSE(createWorkload("swaptions")->hasMinorFalseSharing());
}

//===----------------------------------------------------------------------===//
// Every workload builds and runs (parameterized)
//===----------------------------------------------------------------------===//

class EveryWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkloadTest, BuildsAndRunsAtSmallScale) {
  auto Workload = createWorkload(GetParam());
  ASSERT_NE(Workload, nullptr);
  driver::SessionResult Result =
      driver::runWorkload(*Workload, smallConfig());
  EXPECT_GT(Result.Run.TotalCycles, 0u);
  EXPECT_GT(Result.Run.Threads.size(), 1u);
  EXPECT_TRUE(Result.Profile.ForkJoinVerified);
  EXPECT_EQ(Result.Profile.Detection.SamplesFiltered, 0u);
}

TEST_P(EveryWorkloadTest, DeterministicAcrossRuns) {
  auto Workload = createWorkload(GetParam());
  driver::SessionConfig Config = smallConfig();
  driver::SessionResult A = driver::runWorkload(*Workload, Config);
  driver::SessionResult B = driver::runWorkload(*Workload, Config);
  EXPECT_EQ(A.Run.TotalCycles, B.Run.TotalCycles);
  EXPECT_EQ(A.Profile.SamplesDelivered, B.Profile.SamplesDelivered);
  EXPECT_EQ(significant(A.Profile.Findings).size(),
            significant(B.Profile.Findings).size());
}

TEST_P(EveryWorkloadTest, ThreadCountMatchesConfig) {
  auto Workload = createWorkload(GetParam());
  driver::SessionConfig Config = smallConfig(/*Threads=*/3);
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program =
      driver::buildProgram(*Workload, Profiler, Config);
  for (const sim::PhaseSpec &Phase : Program.Phases) {
    if (!Phase.ParallelBodies.empty()) {
      EXPECT_EQ(Phase.ParallelBodies.size(), 3u);
    }
  }
}

TEST_P(EveryWorkloadTest, FixedVariantRunsFasterOrEqual) {
  auto Workload = createWorkload(GetParam());
  driver::SessionConfig Config = smallConfig(8, 0.2);
  Config.EnableProfiler = false;
  driver::SessionResult Unfixed = driver::runWorkload(*Workload, Config);
  Config.Workload.FixFalseSharing = true;
  driver::SessionResult Fixed = driver::runWorkload(*Workload, Config);
  // Padding must never slow a run down materially (2% tolerance for layout
  // noise in workloads without false sharing).
  EXPECT_LT(static_cast<double>(Fixed.Run.TotalCycles),
            static_cast<double>(Unfixed.Run.TotalCycles) * 1.02);
}

/// Every registered workload's name, in registry order.
std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const auto &Workload : createAllWorkloads())
    Names.push_back(Workload->name());
  return Names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EveryWorkloadTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===//
// Detection outcomes per workload class
//===----------------------------------------------------------------------===//

TEST(WorkloadDetectionTest, LinearRegressionDetectedAtItsCallsite) {
  auto Workload = createWorkload("linear_regression");
  driver::SessionConfig Config = smallConfig(8, 1.0);
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(256);
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  const core::FalseSharingReport *Report =
      Result.Profile.findReport("linear_regression-pthread.c:139");
  ASSERT_NE(Report, nullptr);
  EXPECT_EQ(Report->Kind, core::SharingKind::FalseSharing);
  EXPECT_GT(Report->Impact.ImprovementFactor, 1.5);
  EXPECT_GE(Report->ThreadsObserved, 8u);
  EXPECT_TRUE(Report->Object.IsHeap);
}

TEST(WorkloadDetectionTest, StreamclusterDetectedAtWorkMem) {
  auto Workload = createWorkload("streamcluster");
  driver::SessionConfig Config = smallConfig(8, 2.0);
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(128);
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  const core::FalseSharingReport *Report =
      Result.Profile.findReport("streamcluster.cpp:985");
  ASSERT_NE(Report, nullptr);
  EXPECT_EQ(Report->Kind, core::SharingKind::FalseSharing);
  EXPECT_GT(Report->Impact.ImprovementFactor, 1.0);
  EXPECT_LT(Report->Impact.ImprovementFactor, 1.5); // mild, unlike LR
}

TEST(WorkloadDetectionTest, Fig1ArrayDetectedAsGlobal) {
  auto Workload = createWorkload("fig1_array");
  driver::SessionConfig Config = smallConfig(8, 1.0);
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(256);
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  const core::FalseSharingReport *Report =
      Result.Profile.findReport("fig1_array");
  ASSERT_NE(Report, nullptr);
  EXPECT_FALSE(Report->Object.IsHeap);
  EXPECT_GT(Report->Impact.ImprovementFactor, 3.0);
}

TEST(WorkloadDetectionTest, FixedVariantsReportNothing) {
  for (const char *Name : {"linear_regression", "streamcluster",
                           "fig1_array"}) {
    auto Workload = createWorkload(Name);
    driver::SessionConfig Config = smallConfig(8, 1.0);
    Config.Workload.FixFalseSharing = true;
    Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(256);
    driver::SessionResult Result = driver::runWorkload(*Workload, Config);
    EXPECT_TRUE(significant(Result.Profile.Findings).empty())
        << Name << " reported " << significant(Result.Profile.Findings).size()
        << " instances after the fix";
  }
}

class NoFalseSharingTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NoFalseSharingTest, CleanWorkloadsProduceNoReports) {
  auto Workload = createWorkload(GetParam());
  ASSERT_NE(Workload, nullptr);
  driver::SessionConfig Config = smallConfig(8, 0.5);
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  EXPECT_TRUE(significant(Result.Profile.Findings).empty())
      << "unexpected report in " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CleanApps, NoFalseSharingTest,
                         ::testing::Values("kmeans", "matrix_multiply", "pca",
                                           "string_match", "blackscholes",
                                           "bodytrack", "canneal", "facesim",
                                           "fluidanimate", "freqmine",
                                           "swaptions", "x264"),
                         [](const auto &Info) { return Info.param; });

TEST(WorkloadDetectionTest, MinorInstancesMissedBySparseSampling) {
  // Figure 7: histogram/reverse_index/word_count have FS instances whose
  // sampled evidence stays below the significance bar at the deployment
  // sampling period.
  for (const char *Name : {"histogram", "reverse_index", "word_count"}) {
    auto Workload = createWorkload(Name);
    driver::SessionConfig Config = smallConfig(8, 1.0);
    Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(65536);
    driver::SessionResult Result = driver::runWorkload(*Workload, Config);
    EXPECT_TRUE(significant(Result.Profile.Findings).empty()) << Name;
  }
}

TEST(WorkloadDetectionTest, MinorInstancesExistUnderFullTracking) {
  // The same minor instances are real: the every-access baseline sees them.
  for (const char *Name : {"histogram", "reverse_index", "word_count"}) {
    auto Workload = createWorkload(Name);
    driver::SessionConfig Config = smallConfig(8, 1.0);
    baseline::FullTrackerConfig Tracker;
    driver::FullTrackResult Result =
        driver::runFullTracking(*Workload, Config, Tracker);
    bool FoundFalseSharing = false;
    for (const auto &Finding : Result.Findings)
      FoundFalseSharing |= Finding.Kind == core::SharingKind::FalseSharing &&
                           Finding.Threads >= 2;
    EXPECT_TRUE(FoundFalseSharing) << Name;
  }
}

TEST(WorkloadDetectionTest, FluidanimateBordersAreTrueSharingNotFalse) {
  auto Workload = createWorkload("fluidanimate");
  driver::SessionConfig Config = smallConfig(8, 1.0);
  baseline::FullTrackerConfig Tracker;
  driver::FullTrackResult Result =
      driver::runFullTracking(*Workload, Config, Tracker);
  for (const auto &Finding : Result.Findings) {
    if (Finding.Threads >= 2 && Finding.Invalidations > 50) {
      EXPECT_NE(Finding.Kind, core::SharingKind::FalseSharing)
          << "border line 0x" << std::hex << Finding.LineBase;
    }
  }
}

TEST(WorkloadStructureTest, KmeansCreates224ThreadsAt16) {
  auto Workload = createWorkload("kmeans");
  driver::SessionConfig Config = smallConfig(16, 0.05);
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program =
      driver::buildProgram(*Workload, Profiler, Config);
  EXPECT_EQ(Program.totalChildThreads(), 224u);
}

TEST(WorkloadStructureTest, X264Creates1024ThreadsAt16) {
  auto Workload = createWorkload("x264");
  driver::SessionConfig Config = smallConfig(16, 0.05);
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program =
      driver::buildProgram(*Workload, Profiler, Config);
  EXPECT_EQ(Program.totalChildThreads(), 1024u);
}

TEST(WorkloadStructureTest, StreamclusterRespectsLineSizeInFix) {
  // With 128-byte lines, the "fixed" work_mem stride must be 128.
  auto Workload = createWorkload("streamcluster");
  driver::SessionConfig Config = smallConfig(4, 0.2);
  Config.Profiler.Geometry = CacheGeometry(128);
  Config.Workload.FixFalseSharing = true;
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  EXPECT_TRUE(significant(Result.Profile.Findings).empty());
}

} // namespace
