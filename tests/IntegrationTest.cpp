//===- tests/IntegrationTest.cpp - end-to-end pipeline tests ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-pipeline properties tied to the paper's claims: assessment
/// precision (Table 1), profiling overhead (Figure 4), sampling versus full
/// instrumentation (Section 6.1), and the parallel-phase gating that fixes
/// Predator's init-then-share false positives (Section 2.4).
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace cheetah;

namespace {

driver::SessionConfig precisionConfig(uint32_t Threads) {
  driver::SessionConfig Config;
  Config.Workload.Threads = Threads;
  Config.Workload.Scale = 4.0;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(128);
  return Config;
}

/// Runs \p Name profiled, reads the top prediction, reruns the padded
/// variant natively, and returns {Predicted, Actual}.
std::pair<double, double> predictVsActual(const std::string &Name,
                                          uint32_t Threads) {
  auto Workload = workloads::createWorkload(Name);
  EXPECT_NE(Workload, nullptr);
  driver::SessionConfig Config = precisionConfig(Threads);
  driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);
  auto Significant = significant(Profiled.Profile.Findings);
  EXPECT_FALSE(Significant.empty());
  if (Significant.empty())
    return {0.0, 1.0};
  double Predicted = Significant.front()->Impact.ImprovementFactor;

  driver::SessionConfig FixedConfig = Config;
  FixedConfig.Workload.FixFalseSharing = true;
  FixedConfig.EnableProfiler = false;
  driver::SessionResult Fixed = driver::runWorkload(*Workload, FixedConfig);
  double Actual = static_cast<double>(Profiled.Run.TotalCycles) /
                  static_cast<double>(Fixed.Run.TotalCycles);
  return {Predicted, Actual};
}

//===----------------------------------------------------------------------===//
// Table 1: assessment precision within 10-15%
//===----------------------------------------------------------------------===//

class PrecisionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PrecisionTest, LinearRegressionPredictionWithinTolerance) {
  auto [Predicted, Actual] = predictVsActual("linear_regression", GetParam());
  ASSERT_GT(Predicted, 1.0);
  double Diff = Predicted / Actual - 1.0;
  // Paper: < 10%; we allow 15% headroom for the compressed simulation.
  EXPECT_LT(std::abs(Diff), 0.15)
      << "predicted " << Predicted << "x vs actual " << Actual << "x";
  // The instance is substantial at every thread count (paper: 2x-6.7x).
  EXPECT_GT(Actual, 1.8);
}

TEST_P(PrecisionTest, StreamclusterPredictionWithinTolerance) {
  auto [Predicted, Actual] = predictVsActual("streamcluster", GetParam());
  ASSERT_GT(Predicted, 1.0);
  EXPECT_LT(std::abs(Predicted / Actual - 1.0), 0.15);
  // Mild instance (paper: ~1.02x-1.03x).
  EXPECT_GT(Actual, 1.0);
  EXPECT_LT(Actual, 1.3);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PrecisionTest,
                         ::testing::Values(2, 4, 8, 16),
                         [](const auto &Info) {
                           return "threads" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Figure 4: overhead of sampling-based profiling is small
//===----------------------------------------------------------------------===//

TEST(OverheadTest, CheetahOverheadIsSmallAtDeploymentPeriod) {
  auto Workload = workloads::createWorkload("linear_regression");
  driver::SessionConfig Config;
  Config.Workload.Threads = 8;
  Config.Workload.Scale = 1.0;
  Config.Profiler.Pmu.SamplingPeriod = 65536; // deployment default

  driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);
  driver::SessionConfig Native = Config;
  Native.EnableProfiler = false;
  driver::SessionResult Baseline = driver::runWorkload(*Workload, Native);

  double Overhead = static_cast<double>(Profiled.Run.TotalCycles) /
                        static_cast<double>(Baseline.Run.TotalCycles) -
                    1.0;
  EXPECT_GE(Overhead, 0.0);
  EXPECT_LT(Overhead, 0.25); // paper: ~7% average, <12% for most apps
}

TEST(OverheadTest, ThreadHeavyAppsPayPerThreadSetup) {
  // kmeans (224 threads) must show visibly more overhead than a
  // single-phase app at the same sampling period (Figure 4's outliers).
  driver::SessionConfig Config;
  Config.Workload.Threads = 16;
  Config.Workload.Scale = 0.3;
  Config.Profiler.Pmu.SamplingPeriod = 65536;

  auto MeasureOverhead = [&](const char *Name) {
    auto Workload = workloads::createWorkload(Name);
    driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);
    driver::SessionConfig Native = Config;
    Native.EnableProfiler = false;
    driver::SessionResult Baseline = driver::runWorkload(*Workload, Native);
    return static_cast<double>(Profiled.Run.TotalCycles) /
               static_cast<double>(Baseline.Run.TotalCycles) -
           1.0;
  };

  double Kmeans = MeasureOverhead("kmeans");
  double Blackscholes = MeasureOverhead("blackscholes");
  EXPECT_GT(Kmeans, Blackscholes);
}

TEST(OverheadTest, FullInstrumentationCostsMultiplesOfSampling) {
  // Section 6.1: instrumentation-based tools run 5x+ slower; sampling makes
  // Cheetah deployable.
  auto Workload = workloads::createWorkload("linear_regression");
  driver::SessionConfig Config;
  Config.Workload.Threads = 8;
  Config.Workload.Scale = 1.0;
  Config.Profiler.Pmu.SamplingPeriod = 65536;

  driver::SessionConfig Native = Config;
  Native.EnableProfiler = false;
  driver::SessionResult Baseline = driver::runWorkload(*Workload, Native);

  baseline::FullTrackerConfig Tracker;
  Tracker.PerAccessCycles = 16;
  driver::FullTrackResult Full =
      driver::runFullTracking(*Workload, Config, Tracker);

  driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);

  double FullSlowdown = static_cast<double>(Full.Run.TotalCycles) /
                        static_cast<double>(Baseline.Run.TotalCycles);
  double CheetahSlowdown = static_cast<double>(Profiled.Run.TotalCycles) /
                           static_cast<double>(Baseline.Run.TotalCycles);
  EXPECT_GT(FullSlowdown, 1.3);
  EXPECT_GT(FullSlowdown, CheetahSlowdown * 1.2);
}

//===----------------------------------------------------------------------===//
// Section 2.4: parallel-phase gating vs init-then-share false positives
//===----------------------------------------------------------------------===//

TEST(PhaseGatingTest, InitThenSharedReadsNotReportedByCheetah) {
  // A workload whose object is written by main (init) and then only read
  // by children: no invalidations in parallel, nothing to report. The
  // Predator-style tracker, lacking phase awareness, sees main's writes
  // plus children's reads and flags the lines as shared.
  class InitThenShare : public workloads::Workload {
  public:
    std::string name() const override { return "init_then_share"; }
    std::string suite() const override { return "test"; }
    std::string description() const override { return ""; }
    sim::ForkJoinProgram
    build(workloads::WorkloadContext &Ctx,
          const workloads::WorkloadConfig &Config) const override {
      sim::ForkJoinProgram Program;
      uint64_t Table = Ctx.allocate(4096, "init_share.c", 10);
      sim::PhaseSpec &Phase = Program.addPhase("p");
      Phase.SerialBody = [=]() -> Generator<ThreadEvent> {
        // Main initializes the table several times (write count above the
        // susceptibility threshold).
        for (int Pass = 0; Pass < 4; ++Pass)
          for (uint64_t Offset = 0; Offset < 4096; Offset += 8)
            co_yield ThreadEvent::write(Table + Offset, 8);
      };
      for (uint32_t T = 0; T < Config.Threads; ++T)
        Phase.ParallelBodies.push_back([=]() -> Generator<ThreadEvent> {
          for (int Pass = 0; Pass < 200; ++Pass)
            for (uint64_t Offset = 0; Offset < 4096; Offset += 8)
              co_yield ThreadEvent::read(Table + Offset, 8);
        });
      return Program;
    }
  };

  InitThenShare Workload;
  driver::SessionConfig Config;
  Config.Workload.Threads = 4;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(64);
  driver::SessionResult Result = driver::runWorkload(Workload, Config);
  EXPECT_TRUE(significant(Result.Profile.Findings).empty());
  for (const auto &Instance : Result.Profile.Findings)
    EXPECT_EQ(Instance.Invalidations, 0u);

  baseline::FullTrackerConfig Tracker;
  driver::FullTrackResult Full =
      driver::runFullTracking(Workload, Config, Tracker);
  EXPECT_GT(Full.Invalidations, 0u); // the Predator-style false positive
}

//===----------------------------------------------------------------------===//
// Report plumbing end to end
//===----------------------------------------------------------------------===//

TEST(EndToEndReportTest, LinearRegressionReportIsComplete) {
  auto Workload = workloads::createWorkload("linear_regression");
  driver::SessionConfig Config = precisionConfig(16);
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  auto Significant = significant(Result.Profile.Findings);
  ASSERT_FALSE(Significant.empty());
  const core::FalseSharingReport &Report = *Significant.front();

  EXPECT_GT(Report.SampledAccesses, 100u);
  EXPECT_GT(Report.Invalidations, 50u);
  EXPECT_GT(Report.LatencyCycles, Report.SampledAccesses); // > 1 cycle each
  EXPECT_EQ(Report.ThreadsObserved, 16u);
  EXPECT_FALSE(Report.Words.empty());
  // Every hot word must be single-writer (that is what false sharing means).
  for (const core::WordReportEntry &Word : Report.Words)
    EXPECT_FALSE(Word.MultiThread);

  std::string Text = core::formatReport(Report);
  EXPECT_NE(Text.find("linear_regression-pthread.c:139"), std::string::npos);
  EXPECT_NE(Text.find("totalThreads 16"), std::string::npos);
}

TEST(EndToEndReportTest, SamplesAttributedToEveryChildThread) {
  auto Workload = workloads::createWorkload("linear_regression");
  driver::SessionConfig Config = precisionConfig(8);
  auto Result = driver::runWorkload(*Workload, Config);
  auto Significant = significant(Result.Profile.Findings);
  ASSERT_FALSE(Significant.empty());
  uint64_t ThreadsWithObjectAccesses = 0;
  for (const core::ThreadPrediction &P : Significant.front()->Impact.Threads)
    ThreadsWithObjectAccesses += P.AccessesOnObject > 0;
  EXPECT_EQ(ThreadsWithObjectAccesses, 8u);
}

TEST(EndToEndReportTest, SerialLatencyFeedsAssessment) {
  auto Workload = workloads::createWorkload("linear_regression");
  driver::SessionConfig Config = precisionConfig(8);
  auto Result = driver::runWorkload(*Workload, Config);
  EXPECT_GT(Result.Profile.SerialSamples, 0u);
  EXPECT_GT(Result.Profile.SerialAverageLatency, 1.0);
  auto Significant = significant(Result.Profile.Findings);
  ASSERT_FALSE(Significant.empty());
  EXPECT_FALSE(Significant.front()->Impact.UsedDefaultLatency);
}

TEST(EndToEndReportTest, LineSizeMattersForStreamcluster) {
  // With 32-byte lines (what the PARSEC authors assumed) streamcluster's
  // work_mem padding is correct and nothing is reported; with 64-byte
  // lines the instance appears. This is the paper's Section 4.2.2 story.
  auto Workload = workloads::createWorkload("streamcluster");
  driver::SessionConfig Config = precisionConfig(8);

  Config.Profiler.Geometry = CacheGeometry(32);
  auto Small = driver::runWorkload(*Workload, Config);
  EXPECT_EQ(Small.Profile.findReport("streamcluster.cpp:985"), nullptr);

  Config.Profiler.Geometry = CacheGeometry(64);
  auto Big = driver::runWorkload(*Workload, Config);
  EXPECT_NE(Big.Profile.findReport("streamcluster.cpp:985"), nullptr);
}

} // namespace
