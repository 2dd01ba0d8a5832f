//===- tests/AssessTest.cpp - assessment engine tests ----------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The assessment equations (EQ.1-EQ.4) checked on hand-constructed
/// profiles where the expected prediction is known in closed form.
///
//===----------------------------------------------------------------------===//

#include "core/assess/Assessor.h"
#include "core/report/Report.h"

#include <gtest/gtest.h>

using namespace cheetah;
using namespace cheetah::core;

namespace {

/// Builds a registry with one main thread and \p Workers children, each
/// with the given runtime and sampled cycles.
void populateRegistry(runtime::ThreadRegistry &Registry, uint32_t Workers,
                      uint64_t Runtime, uint64_t SampledAccesses,
                      uint32_t LatencyPerAccess) {
  Registry.threadStarted(0, true, 0);
  for (uint32_t T = 1; T <= Workers; ++T) {
    Registry.threadStarted(T, false, 1000);
    for (uint64_t S = 0; S < SampledAccesses; ++S)
      Registry.recordSamples(T, 1, LatencyPerAccess);
    Registry.threadFinished(T, 1000 + Runtime);
  }
  Registry.threadFinished(0, 2000 + Runtime);
}

/// Builds the matching fork-join phase structure: serial [0,1000), parallel
/// [1000, 1000+Runtime), serial tail.
void populatePhases(runtime::PhaseTracker &Phases, uint32_t Workers,
                    uint64_t Runtime) {
  Phases.programBegin(0, 0);
  for (uint32_t T = 1; T <= Workers; ++T)
    Phases.threadCreated(T, 0, 1000);
  for (uint32_t T = 1; T <= Workers; ++T)
    Phases.threadFinished(T, 1000 + Runtime);
  Phases.programEnd(2000 + Runtime);
}

TEST(AssessorTest, UniformObjectDominatedThreads) {
  // Every worker: 100 sampled accesses at 50 cycles, 80 of them on the
  // object. AverNoFs = 5.
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  populateRegistry(Registry, 4, /*Runtime=*/100000, /*SampledAccesses=*/100,
                   /*LatencyPerAccess=*/50);
  populatePhases(Phases, 4, 100000);

  AssessorConfig Config;
  Config.DefaultSerialLatency = 5.0;
  Config.MinSerialSamples = 1000; // force the default
  Assessor Assess(Registry, Phases, Config);

  ObjectAccessProfile Profile;
  for (ThreadId T = 1; T <= 4; ++T)
    Profile.PerThread.push_back({T, 80, 80 * 50});
  Profile.SampledAccesses = 4 * 80;
  Profile.SampledCycles = 4 * 80 * 50;

  Assessment Result = Assess.assess(Profile, /*AppRuntime=*/102000);

  // Per thread: Cycles_t = 5000, C_O = 4000, PredCycles = 5000-4000+80*5
  // = 1400 -> PredRT = 100000 * 1400/5000 = 28000.
  const ThreadPrediction *Worker = nullptr;
  for (const ThreadPrediction &P : Result.Threads)
    if (P.Tid == 1)
      Worker = &P;
  ASSERT_NE(Worker, nullptr);
  EXPECT_TRUE(Result.UsedDefaultLatency);
  EXPECT_NEAR(Worker->PredictedCycles, 1400.0, 1e-9);
  EXPECT_NEAR(Worker->PredictedRuntime, 28000.0, 1e-6);

  // App: serial 1000 + 1000 + parallel (span 100000 -> 28000).
  EXPECT_NEAR(Result.PredictedAppRuntime, 2000 + 28000, 1.0);
  EXPECT_NEAR(Result.ImprovementFactor, 102000.0 / 30000.0, 0.001);
  EXPECT_TRUE(Result.ForkJoinModel);
}

TEST(AssessorTest, UnfinishedThreadDoesNotPoisonPredictions) {
  // Worker 2 registered and sampled but never detached: its EndTime is
  // still 0, so runtime() must read 0 — not wrap to ~2^64 and blow up
  // the EQ.3 scaling and with it the whole-program improvement.
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  Registry.threadStarted(0, true, 0);
  for (ThreadId T = 1; T <= 2; ++T) {
    Registry.threadStarted(T, false, 1000);
    for (uint64_t S = 0; S < 100; ++S)
      Registry.recordSamples(T, 1, 50);
  }
  Registry.threadFinished(1, 1000 + 100000);
  // Thread 2 never reaches threadFinished (crashed / leaked detach).
  Registry.threadFinished(0, 2000 + 100000);
  populatePhases(Phases, 2, 100000);

  AssessorConfig Config;
  Config.DefaultSerialLatency = 5.0;
  Config.MinSerialSamples = 1000; // force the default
  Assessor Assess(Registry, Phases, Config);

  ObjectAccessProfile Profile;
  for (ThreadId T = 1; T <= 2; ++T)
    Profile.PerThread.push_back({T, 80, 80 * 50});
  Profile.SampledAccesses = 2 * 80;
  Profile.SampledCycles = 2 * 80 * 50;

  Assessment Result = Assess.assess(Profile, /*AppRuntime=*/102000);

  const ThreadPrediction *Unfinished = nullptr;
  for (const ThreadPrediction &P : Result.Threads)
    if (P.Tid == 2)
      Unfinished = &P;
  ASSERT_NE(Unfinished, nullptr);
  EXPECT_EQ(Unfinished->RealRuntime, 0u);
  EXPECT_DOUBLE_EQ(Unfinished->PredictedRuntime, 0.0);

  // The phase prediction is carried by the finished worker (EQ.4 takes
  // the longest member): 28000 parallel + 2000 serial, same as the
  // all-finished uniform case — finite and sane.
  EXPECT_NEAR(Result.PredictedAppRuntime, 30000.0, 1.0);
  EXPECT_GT(Result.ImprovementFactor, 1.0);
  EXPECT_LT(Result.ImprovementFactor, 10.0);
}

TEST(AssessorTest, ObjectUntouchedByThreadLeavesItUnchanged) {
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  populateRegistry(Registry, 2, 50000, 100, 20);
  populatePhases(Phases, 2, 50000);

  AssessorConfig Config;
  Assessor Assess(Registry, Phases, Config);

  // Only thread 1 touches the object.
  ObjectAccessProfile Profile;
  Profile.PerThread.push_back({1, 50, 50 * 20});

  Assessment Result = Assess.assess(Profile, 52000);
  for (const ThreadPrediction &P : Result.Threads) {
    if (P.Tid == 2) {
      EXPECT_EQ(P.AccessesOnObject, 0u);
      EXPECT_NEAR(P.PredictedRuntime, 50000.0, 1e-6);
    }
  }
  // The phase is limited by the untouched thread: no improvement.
  EXPECT_NEAR(Result.PredictedAppRuntime, 52000.0, 1.0);
  EXPECT_NEAR(Result.ImprovementFactor, 1.0, 1e-6);
}

TEST(AssessorTest, MeasuredSerialLatencyPreferredOverDefault) {
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  populateRegistry(Registry, 1, 1000, 10, 10);
  populatePhases(Phases, 1, 1000);

  AssessorConfig Config;
  Config.DefaultSerialLatency = 99.0;
  Config.MinSerialSamples = 4;
  Assessor Assess(Registry, Phases, Config);

  OnlineStats Serial;
  for (int I = 0; I < 10; ++I)
    Serial.add(7.0);
  Assess.setSerialLatencyStats(Serial);

  bool UsedDefault = true;
  EXPECT_DOUBLE_EQ(Assess.averageNoFsLatency(&UsedDefault), 7.0);
  EXPECT_FALSE(UsedDefault);
}

TEST(AssessorTest, TooFewSerialSamplesFallsBackToDefault) {
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  populateRegistry(Registry, 1, 1000, 10, 10);
  populatePhases(Phases, 1, 1000);

  AssessorConfig Config;
  Config.DefaultSerialLatency = 6.5;
  Config.MinSerialSamples = 100;
  Assessor Assess(Registry, Phases, Config);
  OnlineStats Serial;
  Serial.add(3.0);
  Assess.setSerialLatencyStats(Serial);

  bool UsedDefault = false;
  EXPECT_DOUBLE_EQ(Assess.averageNoFsLatency(&UsedDefault), 6.5);
  EXPECT_TRUE(UsedDefault);
}

TEST(AssessorTest, SerialAverageClampedToAtLeastOneCycle) {
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  populateRegistry(Registry, 1, 1000, 10, 10);
  populatePhases(Phases, 1, 1000);
  AssessorConfig Config;
  Config.MinSerialSamples = 1;
  Assessor Assess(Registry, Phases, Config);
  OnlineStats Serial;
  Serial.add(0.0);
  Serial.add(0.0);
  Assess.setSerialLatencyStats(Serial);
  EXPECT_GE(Assess.averageNoFsLatency(), 1.0);
}

TEST(AssessorTest, PhaseLengthDeterminedByLongestThread) {
  // Two workers: a slow one dominated by the object, a fast one untouched.
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  Registry.threadStarted(0, true, 0);
  Registry.threadStarted(1, false, 1000);
  Registry.threadStarted(2, false, 1000);
  for (int I = 0; I < 100; ++I)
    Registry.recordSamples(1, 1, 100); // slow: all on object
  for (int I = 0; I < 100; ++I)
    Registry.recordSamples(2, 1, 5); // fast
  Registry.threadFinished(1, 1000 + 200000);
  Registry.threadFinished(2, 1000 + 60000);
  Registry.threadFinished(0, 202000);
  Phases.programBegin(0, 0);
  Phases.threadCreated(1, 0, 1000);
  Phases.threadCreated(2, 0, 1000);
  Phases.threadFinished(2, 61000);
  Phases.threadFinished(1, 201000);
  Phases.programEnd(202000);

  AssessorConfig Config;
  Config.DefaultSerialLatency = 5.0;
  Config.MinSerialSamples = 1000;
  Assessor Assess(Registry, Phases, Config);

  ObjectAccessProfile Profile;
  Profile.PerThread.push_back({1, 100, 100 * 100});

  Assessment Result = Assess.assess(Profile, 202000);
  // Thread 1 predicted: PredCycles = 10000-10000+500 = 500 ->
  // PredRT = 200000 * 500/10000 = 10000. Thread 2 unchanged at 60000.
  // The phase is now limited by thread 2.
  double ParallelPredicted = 60000.0;
  EXPECT_NEAR(Result.PredictedAppRuntime, 2000 + ParallelPredicted, 1.0);
}

TEST(AssessorTest, NonForkJoinFallsBackToAggregateScaling) {
  runtime::ThreadRegistry Registry;
  runtime::PhaseTracker Phases;
  populateRegistry(Registry, 2, 10000, 10, 50);
  // Nested creation: not fork-join.
  Phases.programBegin(0, 0);
  Phases.threadCreated(1, 0, 100);
  Phases.threadCreated(2, 1, 200);
  Phases.threadFinished(2, 9000);
  Phases.threadFinished(1, 10000);
  Phases.programEnd(11000);

  AssessorConfig Config;
  Assessor Assess(Registry, Phases, Config);
  ObjectAccessProfile Profile;
  Profile.PerThread.push_back({1, 10, 500});

  Assessment Result = Assess.assess(Profile, 11000);
  EXPECT_FALSE(Result.ForkJoinModel);
  EXPECT_GT(Result.ImprovementFactor, 1.0);
}

TEST(AssessorTest, ImprovementPercentMatchesPaperFormat) {
  Assessment Result;
  Result.ImprovementFactor = 5.76;
  EXPECT_NEAR(Result.improvementPercent(), 576.0, 0.1);
}

TEST(ObjectAccessProfileTest, ThreadStatsLookup) {
  ObjectAccessProfile Profile;
  Profile.PerThread = {{1, 10, 100}, {5, 20, 200}};
  ASSERT_NE(Profile.threadStats(5), nullptr);
  EXPECT_EQ(Profile.threadStats(5)->Accesses, 20u);
  EXPECT_EQ(Profile.threadStats(3), nullptr);
}

//===----------------------------------------------------------------------===//
// Report formatting
//===----------------------------------------------------------------------===//

FalseSharingReport makeSampleReport() {
  FalseSharingReport Report;
  Report.Object.IsHeap = true;
  Report.Object.CallsiteFrames = {"linear_regression-pthread.c:139"};
  Report.Object.Start = 0x400004b8;
  Report.Object.Size = 4000;
  Report.Kind = SharingKind::FalseSharing;
  Report.SampledAccesses = 1263;
  Report.Invalidations = 0x27f;
  Report.SampledWrites = 501;
  Report.LatencyCycles = 102988;
  Report.ThreadsObserved = 16;
  Report.Impact.ImprovementFactor = 5.76172748;
  Report.Impact.RealAppRuntime = 7738;
  Report.Impact.PredictedAppRuntime = 1343;
  WordReportEntry Word;
  Word.Offset = 8;
  Word.Reads = 3;
  Word.Writes = 40;
  Word.FirstThread = 2;
  Report.Words.push_back(Word);
  return Report;
}

TEST(ReportTest, Figure5ShapeAndContent) {
  std::string Text = formatReport(makeSampleReport());
  EXPECT_NE(Text.find("Detecting false sharing at the object: start "
                      "0x400004b8 end 0x40001458 (with size 4000)."),
            std::string::npos);
  EXPECT_NE(Text.find("totalThreads 16"), std::string::npos);
  EXPECT_NE(Text.find("totalPossibleImprovementRate 576.17"),
            std::string::npos);
  EXPECT_NE(Text.find("realRuntime 7738 predictedRuntime 1343"),
            std::string::npos);
  EXPECT_NE(Text.find("heap object with the following callsite"),
            std::string::npos);
  EXPECT_NE(Text.find("linear_regression-pthread.c:139"), std::string::npos);
}

TEST(ReportTest, HexCountersMirrorThePaper) {
  ReportFormatOptions Options;
  Options.HexCounters = true;
  std::string Text = formatReport(makeSampleReport(), Options);
  // The paper prints "invalidations 27f".
  EXPECT_NE(Text.find("invalidations 27f"), std::string::npos);
}

TEST(ReportTest, GlobalObjectsReportTheirSymbolName) {
  FalseSharingReport Report = makeSampleReport();
  Report.Object.IsHeap = false;
  Report.Object.GlobalName = "fig1_array";
  std::string Text = formatReport(Report);
  EXPECT_NE(Text.find("global variable: fig1_array"), std::string::npos);
  EXPECT_EQ(Text.find("callsite"), std::string::npos);
}

TEST(ReportTest, WordTableRespectsLimit) {
  FalseSharingReport Report = makeSampleReport();
  Report.Words.clear();
  for (int I = 0; I < 40; ++I) {
    WordReportEntry Word;
    Word.Offset = I * 4;
    Word.Writes = 1;
    Report.Words.push_back(Word);
  }
  ReportFormatOptions Options;
  Options.MaxWords = 8;
  std::string Text = formatReport(Report, Options);
  EXPECT_NE(Text.find("32 more words elided"), std::string::npos);
}

TEST(ReportTest, NonForkJoinNoteAppears) {
  FalseSharingReport Report = makeSampleReport();
  Report.Impact.ForkJoinModel = false;
  std::string Text = formatReport(Report);
  EXPECT_NE(Text.find("did not follow the fork-join model"),
            std::string::npos);
}

TEST(ReportTest, SummaryTableListsEveryReport) {
  std::vector<FalseSharingReport> Reports(3, makeSampleReport());
  Reports[1].Object.IsHeap = false;
  Reports[1].Object.GlobalName = "shared_counters";
  std::string Text = formatSummaryTable(Reports);
  EXPECT_NE(Text.find("linear_regression-pthread.c:139"), std::string::npos);
  EXPECT_NE(Text.find("shared_counters"), std::string::npos);
  EXPECT_NE(Text.find("5.76x"), std::string::npos);
}

} // namespace
