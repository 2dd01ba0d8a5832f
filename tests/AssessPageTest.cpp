//===- tests/AssessPageTest.cpp - page-level assessment tests --------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The page-granularity assessment (EQ.1–EQ.4 with the no-remote-access
/// AverCycles baseline), tested two ways:
///
///  - Unit: Assessor::averageLocalLatency's baseline chain (page-local →
///    run-wide local → serial → default) and assessPage's clamped EQ.2–EQ.4
///    on hand-constructed profiles with closed-form expectations.
///  - Differential, end to end through ProfileSession: the broken NUMA
///    workloads' significant page findings carry predictedImprovement
///    above the workload's declared floor, while the "fixed" variants
///    predict ~1.0 on every tracked page — the detect→assess→fix loop the
///    paper's Table 1 demonstrates for objects, at page granularity.
///
//===----------------------------------------------------------------------===//

#include "core/assess/Assessor.h"
#include "driver/ProfileSession.h"
#include "mem/NumaTopology.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::core;

namespace {

constexpr uint64_t PageSize = 4096;

//===----------------------------------------------------------------------===//
// Baseline chain
//===----------------------------------------------------------------------===//

struct AssessorHarness {
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;

  Assessor make() { return Assessor(Registry, Phases); }
};

TEST(PageBaselineTest, PageLocalAveragePreferredWhenPopulated) {
  AssessorHarness H;
  Assessor Assess = H.make();

  ObjectAccessProfile Profile;
  Profile.SampledAccesses = 100;
  Profile.SampledCycles = 2000;
  Profile.RemoteAccesses = 50;
  Profile.RemoteCycles = 1500;
  // 50 local accesses over 500 cycles: baseline 10, measured not default.
  bool UsedDefault = true;
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(Profile, &UsedDefault), 10.0);
  EXPECT_FALSE(UsedDefault);
}

TEST(PageBaselineTest, RunWideLocalAverageWhenPageIsFullyRemote) {
  AssessorHarness H;
  Assessor Assess = H.make();
  Assess.setLocalLatencyTotals(/*Accesses=*/1000, /*Cycles=*/4000);

  ObjectAccessProfile Profile;
  Profile.SampledAccesses = 64;
  Profile.SampledCycles = 64 * 23;
  Profile.RemoteAccesses = 64;
  Profile.RemoteCycles = 64 * 23;
  bool UsedDefault = true;
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(Profile, &UsedDefault), 4.0);
  EXPECT_FALSE(UsedDefault);
}

TEST(PageBaselineTest, LocalAveragesNeedSixteenSamples) {
  // A page's own local mean counts from 16 local samples on; below that
  // the run-wide local mean stands in, and below 16 run-wide samples the
  // serial chain (here its default of 6) does.
  AssessorHarness H;
  Assessor Assess = H.make();
  auto PageWithLocal = [](uint64_t Local) {
    ObjectAccessProfile Profile;
    Profile.SampledAccesses = Local + 10;
    Profile.SampledCycles = 10 * Local + 30 * 10;
    Profile.RemoteAccesses = 10;
    Profile.RemoteCycles = 30 * 10;
    return Profile;
  };
  Assess.setLocalLatencyTotals(/*Accesses=*/16, /*Cycles=*/16 * 4);
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(PageWithLocal(16)), 10.0);
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(PageWithLocal(15)), 4.0);
  Assess.setLocalLatencyTotals(/*Accesses=*/15, /*Cycles=*/15 * 4);
  bool UsedDefault = false;
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(PageWithLocal(15), &UsedDefault),
                   6.0);
  EXPECT_TRUE(UsedDefault);
}

TEST(PageBaselineTest, SerialThenDefaultChainWhenNoLocalEvidence) {
  AssessorHarness H;
  Assessor Assess = H.make();

  ObjectAccessProfile Remote;
  Remote.SampledAccesses = 64;
  Remote.SampledCycles = 640;
  Remote.RemoteAccesses = 64;
  Remote.RemoteCycles = 640;

  // No local samples anywhere, no serial stats: the default of 6.
  bool UsedDefault = false;
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(Remote, &UsedDefault), 6.0);
  EXPECT_TRUE(UsedDefault);

  // Serial stats beat the default from 32 samples on, not at 31.
  OnlineStats Serial;
  for (int I = 0; I < 31; ++I)
    Serial.add(5.0);
  Assess.setSerialLatencyStats(Serial);
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(Remote, &UsedDefault), 6.0);
  EXPECT_TRUE(UsedDefault);
  Serial.add(5.0);
  Assess.setSerialLatencyStats(Serial);
  EXPECT_DOUBLE_EQ(Assess.averageLocalLatency(Remote, &UsedDefault), 5.0);
  EXPECT_FALSE(UsedDefault);
}

//===----------------------------------------------------------------------===//
// assessPage closed form
//===----------------------------------------------------------------------===//

/// Two workers: worker 1 all-local (100 samples at 10 cycles, runtime
/// 60,000), worker 2 all-remote on the page (100 samples at 30 cycles,
/// runtime 100,000). Serial phases of 1,000 cycles on both sides.
struct TwoWorkerFixture {
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  ObjectAccessProfile Profile;

  TwoWorkerFixture() {
    Registry.threadStarted(0, true, 0);
    Registry.threadStarted(1, false, 1000);
    Registry.threadStarted(2, false, 1000);
    for (int S = 0; S < 100; ++S) {
      Registry.recordSamples(1, 1, 10);
      Registry.recordSamples(2, 1, 30);
    }
    Registry.threadFinished(1, 61000);
    Registry.threadFinished(2, 101000);
    Registry.threadFinished(0, 102000);

    Phases.programBegin(0, 0);
    Phases.threadCreated(1, 0, 1000);
    Phases.threadCreated(2, 0, 1000);
    Phases.threadFinished(1, 61000);
    Phases.threadFinished(2, 101000);
    Phases.programEnd(102000);

    // The page: worker 1 contributes 50 local accesses at 10 cycles,
    // worker 2 contributes 50 remote accesses at 30 cycles.
    Profile.SampledAccesses = 100;
    Profile.SampledWrites = 100;
    Profile.SampledCycles = 50 * 10 + 50 * 30;
    Profile.RemoteAccesses = 50;
    Profile.RemoteCycles = 50 * 30;
    Profile.PerThread.push_back({1, 50, 500});
    Profile.PerThread.push_back({2, 50, 1500});
  }
};

TEST(AssessPageTest, ClosedFormPredictionForRemoteWorker) {
  TwoWorkerFixture F;
  Assessor Assess(F.Registry, F.Phases);
  Assessment Result = Assess.assessPage(F.Profile, /*AppRuntime=*/102000);

  // Baseline: 500 local cycles / 50 local accesses = 10.
  EXPECT_DOUBLE_EQ(Result.AverageNoFsLatency, 10.0);
  EXPECT_FALSE(Result.UsedDefaultLatency);

  // Worker 2 (EQ.2/EQ.3): Cycles_t 3000, C_O 1500, PredCycles_O
  // min(10*50, 1500) = 500 -> PredCycles 2000 -> PredRT 100000*2/3.
  const ThreadPrediction *Remote = nullptr;
  for (const ThreadPrediction &P : Result.Threads)
    if (P.Tid == 2)
      Remote = &P;
  ASSERT_NE(Remote, nullptr);
  EXPECT_NEAR(Remote->PredictedCycles, 2000.0, 1e-9);
  EXPECT_NEAR(Remote->PredictedRuntime, 100000.0 * 2000.0 / 3000.0, 1e-6);

  // EQ.4: serial 1000 + parallel max(60000, 66666.7) + serial 1000.
  EXPECT_NEAR(Result.PredictedAppRuntime, 1000.0 + 200000.0 / 3.0 + 1000.0,
              1e-3);
  EXPECT_NEAR(Result.ImprovementFactor,
              102000.0 / (2000.0 + 200000.0 / 3.0), 1e-6);
  EXPECT_GT(Result.ImprovementFactor, 1.0);
  EXPECT_TRUE(Result.ForkJoinModel);
}

TEST(AssessPageTest, NoRemoteExcessPredictsExactlyOne) {
  TwoWorkerFixture F;
  // Rewrite the profile so every thread's object latency equals the local
  // baseline: nothing is removable, the clamp pins improvement at 1.
  F.Profile.SampledCycles = 100 * 10;
  F.Profile.RemoteAccesses = 0;
  F.Profile.RemoteCycles = 0;
  F.Profile.PerThread.clear();
  F.Profile.PerThread.push_back({1, 50, 500});
  F.Profile.PerThread.push_back({2, 50, 500});

  Assessor Assess(F.Registry, F.Phases);
  Assessment Result = Assess.assessPage(F.Profile, 102000);
  EXPECT_DOUBLE_EQ(Result.ImprovementFactor, 1.0);
  EXPECT_DOUBLE_EQ(Result.PredictedAppRuntime, 102000.0);
}

TEST(AssessPageTest, PredictionNeverBelowRealMinusObjectCycles) {
  // The clamp contract: a page fix cannot remove more cycles from a
  // thread than the thread spent on the page.
  TwoWorkerFixture F;
  Assessor Assess(F.Registry, F.Phases);
  Assessment Result = Assess.assessPage(F.Profile, 102000);
  for (const ThreadPrediction &P : Result.Threads) {
    EXPECT_GE(P.PredictedCycles + 1e-9,
              static_cast<double>(P.SampledCycles) -
                  static_cast<double>(P.CyclesOnObject));
    EXPECT_LE(P.PredictedRuntime, static_cast<double>(P.RealRuntime) + 1e-9);
  }
  EXPECT_GE(Result.ImprovementFactor, 1.0);
}

//===----------------------------------------------------------------------===//
// Differential end to end: broken predicts > floor, fixed predicts ~1.0
//===----------------------------------------------------------------------===//

driver::SessionConfig assessSessionConfig(bool Fix) {
  driver::SessionConfig Config;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(256);
  Config.Profiler.Topology = NumaTopology(2, PageSize);
  Config.Profiler.Detect.TrackPages = true;
  Config.Workload.Threads = 8;
  Config.Workload.NumaNodes = 2;
  Config.Workload.PageBytes = PageSize;
  Config.Workload.FixFalseSharing = Fix;
  return Config;
}

class PageAssessDifferentialTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(PageAssessDifferentialTest, BrokenPredictsAboveFloorFixedPredictsOne) {
  auto Workload = workloads::createWorkload(GetParam());
  ASSERT_NE(Workload, nullptr);
  double Floor = Workload->expectedPageImprovementFloor();
  ASSERT_GT(Floor, 1.0) << "NUMA workloads must declare a page floor";

  // Broken: every significant page finding predicts at least the floor.
  driver::SessionResult Broken =
      driver::runWorkload(*Workload, assessSessionConfig(/*Fix=*/false));
  auto Significant = significant(Broken.Profile.PageFindings);
  ASSERT_FALSE(Significant.empty());
  for (const PageSharingReport *Report : Significant) {
    EXPECT_GE(Report->Impact.ImprovementFactor, Floor)
        << "page " << Report->PageBase;
    EXPECT_FALSE(Report->Impact.UsedDefaultLatency)
        << "the run must supply a measured local baseline";
  }

  // Findings stream highest predicted improvement first.
  const auto &All = Broken.Profile.PageFindings;
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_GE(All[I - 1].Impact.ImprovementFactor,
              All[I].Impact.ImprovementFactor);

  // The prediction is anchored to reality: it must not wildly exceed the
  // padded rerun's actual speedup (the rerun may gain extra, e.g. a
  // parallelized init phase the assessment deliberately ignores).
  driver::SessionConfig Native = assessSessionConfig(/*Fix=*/true);
  Native.EnableProfiler = false;
  driver::SessionResult Fixed = driver::runWorkload(*Workload, Native);
  double Actual = static_cast<double>(Broken.Run.TotalCycles) /
                  static_cast<double>(Fixed.Run.TotalCycles);
  EXPECT_LE(Significant.front()->Impact.ImprovementFactor, Actual * 1.3);

  // Fixed variant under the profiler: nothing left to predict — every
  // tracked page, significant or not, sits at 1.0.
  driver::SessionResult FixedProfiled =
      driver::runWorkload(*Workload, assessSessionConfig(/*Fix=*/true));
  EXPECT_TRUE(significant(FixedProfiled.Profile.PageFindings).empty());
  for (const PageSharingReport &Report :
       FixedProfiled.Profile.PageFindings)
    EXPECT_NEAR(Report.Impact.ImprovementFactor, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(NumaWorkloads, PageAssessDifferentialTest,
                         ::testing::Values("numa_interleaved",
                                           "numa_first_touch"));

TEST(PageAssessEndToEndTest, InterleavedPredictionMatchesPaddedRerun) {
  // The headline Table-1 property at page granularity: for the
  // node-interleaved hammer the predicted and actual improvement agree
  // closely (the fix changes placement only, nothing else). Both runs
  // keep the profiler attached so its overhead cancels out of the ratio —
  // the prediction is made from (and about) profiled execution.
  auto Workload = workloads::createWorkload("numa_interleaved");
  driver::SessionResult Broken =
      driver::runWorkload(*Workload, assessSessionConfig(false));
  driver::SessionResult Fixed =
      driver::runWorkload(*Workload, assessSessionConfig(true));

  auto Significant = significant(Broken.Profile.PageFindings);
  ASSERT_FALSE(Significant.empty());
  double Predicted = Significant.front()->Impact.ImprovementFactor;
  double Actual = static_cast<double>(Broken.Run.TotalCycles) /
                  static_cast<double>(Fixed.Run.TotalCycles);
  EXPECT_NEAR(Predicted / Actual, 1.0, 0.25);
}

//===----------------------------------------------------------------------===//
// Asymmetric distances: the worst finding is rankable only with distance
//===----------------------------------------------------------------------===//

/// The asymmetric4 reference machine (topologies/asymmetric4.json): four
/// nodes, non-uniform SLIT distances, threads pinned round-robin.
driver::SessionConfig asymmetricSessionConfig(bool Fix, bool UniformDistances) {
  NumaTopologySpec Spec;
  Spec.Nodes = 4;
  Spec.PageSize = PageSize;
  if (!UniformDistances)
    Spec.Distances = {{0, 16, 32, 48},
                      {16, 0, 48, 32},
                      {32, 48, 0, 16},
                      {48, 32, 16, 0}};
  Spec.ThreadPinning = {0, 1, 2, 3, 0, 1, 2, 3};
  NumaTopology Topology;
  std::string Error;
  EXPECT_TRUE(NumaTopology::fromSpec(Spec, Topology, Error)) << Error;

  driver::SessionConfig Config;
  Config.Profiler.Pmu = Config.Profiler.Pmu.withScaledPeriod(256);
  Config.Profiler.Topology = Topology;
  Config.Profiler.Detect.TrackPages = true;
  Config.Workload.Threads = 8;
  Config.Workload.NumaNodes = 4;
  Config.Workload.PageBytes = PageSize;
  Config.Workload.ThreadNodes = Topology.threadPinning();
  Config.Workload.FixFalseSharing = Fix;
  return Config;
}

TEST(PageAssessEndToEndTest, AsymmetricWorstFindingNeedsDistanceToRank) {
  auto Workload = workloads::createWorkload("numa_asymmetric");
  ASSERT_NE(Workload, nullptr);
  double Floor = Workload->expectedPageImprovementFloor();
  ASSERT_GT(Floor, 1.0);

  // Broken on the asymmetric machine: the top finding is the *far* site
  // (distance 48 from the first-toucher's node), predicts at least the
  // declared floor, and carries a breakdown conserving its remote totals.
  driver::SessionResult Broken = driver::runWorkload(
      *Workload, asymmetricSessionConfig(/*Fix=*/false,
                                         /*UniformDistances=*/false));
  auto Significant = significant(Broken.Profile.PageFindings);
  ASSERT_FALSE(Significant.empty());
  const PageSharingReport &Top = *Significant.front();
  EXPECT_GE(Top.Impact.ImprovementFactor, Floor);
  ASSERT_EQ(Top.Objects.size(), 1u);
  EXPECT_EQ(Top.Objects.front(), "numa_asymmetric_node3");
  ASSERT_FALSE(Top.RemoteByDistance.empty());
  uint64_t BucketAccesses = 0, BucketCycles = 0;
  for (const RemoteDistanceStats &Bucket : Top.RemoteByDistance) {
    BucketAccesses += Bucket.Accesses;
    BucketCycles += Bucket.Cycles;
  }
  EXPECT_EQ(BucketAccesses, Top.RemoteAccesses);
  EXPECT_EQ(BucketCycles, Top.RemoteLatencyCycles);
  EXPECT_EQ(Top.RemoteByDistance.front().Distance, 48u);

  // Every remote group does the same amount of work, so under *uniform*
  // distances all remote threads are equally slow and no single site's
  // fix can shorten the phase: every finding sits below the floor. The
  // far site is rankable only because the distance matrix exists.
  driver::SessionResult Uniform = driver::runWorkload(
      *Workload, asymmetricSessionConfig(/*Fix=*/false,
                                         /*UniformDistances=*/true));
  for (const PageSharingReport *Report :
       significant(Uniform.Profile.PageFindings))
    EXPECT_LT(Report->Impact.ImprovementFactor, Floor)
        << "uniform distances must not rank any site";

  // Fixed on the asymmetric machine: no significant findings, and every
  // tracked page predicts ~1.0.
  driver::SessionResult Fixed = driver::runWorkload(
      *Workload, asymmetricSessionConfig(/*Fix=*/true,
                                         /*UniformDistances=*/false));
  EXPECT_TRUE(significant(Fixed.Profile.PageFindings).empty());
  for (const PageSharingReport &Report : Fixed.Profile.PageFindings)
    EXPECT_NEAR(Report.Impact.ImprovementFactor, 1.0, 0.05);
}

TEST(PageAssessEndToEndTest, UmaTopologyPredictsNothing) {
  auto Workload = workloads::createWorkload("numa_interleaved");
  driver::SessionConfig Config = assessSessionConfig(false);
  Config.Profiler.Topology = NumaTopology(1, PageSize);
  Config.Workload.NumaNodes = 1;
  driver::SessionResult Result = driver::runWorkload(*Workload, Config);
  for (const PageSharingReport &Report : Result.Profile.PageFindings) {
    // Everything is local; only sub-percent thread-to-thread latency noise
    // (cold misses landing on different threads) is predictable away.
    EXPECT_GE(Report.Impact.ImprovementFactor, 1.0);
    EXPECT_LT(Report.Impact.ImprovementFactor, 1.05);
  }
}

} // namespace
