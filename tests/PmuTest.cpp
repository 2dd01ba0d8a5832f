//===- tests/PmuTest.cpp - PMU layer tests ---------------------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pmu/PmuConfig.h"
#include "pmu/SamplingPolicy.h"
#include "pmu/SimPmu.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

using namespace cheetah;
using namespace cheetah::pmu;

namespace {

//===----------------------------------------------------------------------===//
// SamplingPolicy
//===----------------------------------------------------------------------===//

TEST(SamplingPolicyTest, FixedPeriodFiresExactly) {
  SamplingPolicy Policy(100, /*JitterFraction=*/0.0, /*Seed=*/1);
  uint32_t Fired = 0;
  for (int I = 0; I < 1000; ++I)
    Fired += Policy.advance(1);
  EXPECT_EQ(Fired, 10u);
}

TEST(SamplingPolicyTest, LargeAdvanceCrossesMultipleSamples) {
  SamplingPolicy Policy(100, 0.0, 1);
  EXPECT_EQ(Policy.advance(1000), 10u);
}

TEST(SamplingPolicyTest, PeriodOneFiresEveryInstruction) {
  SamplingPolicy Policy(1, 0.0, 1);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(Policy.advance(1), 1u);
}

class JitterTest : public ::testing::TestWithParam<double> {};

TEST_P(JitterTest, MeanRateIsPreservedUnderJitter) {
  constexpr uint64_t Period = 256;
  SamplingPolicy Policy(Period, GetParam(), 42);
  uint64_t Fired = 0;
  constexpr uint64_t Steps = 4 << 20;
  Fired = Policy.advance(Steps);
  double Expected = static_cast<double>(Steps) / Period;
  EXPECT_NEAR(static_cast<double>(Fired), Expected, Expected * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Jitters, JitterTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.9));

TEST(SamplingPolicyTest, JitterIsDeterministicPerSeed) {
  SamplingPolicy A(64, 0.25, 7), B(64, 0.25, 7);
  for (int I = 0; I < 10000; ++I)
    EXPECT_EQ(A.advance(1), B.advance(1));
}

TEST(SamplingPolicyTest, DifferentSeedsDesynchronize) {
  SamplingPolicy A(64, 0.25, 1), B(64, 0.25, 2);
  int SameFires = 0, Fires = 0;
  for (int I = 0; I < 100000; ++I) {
    uint32_t FA = A.advance(1), FB = B.advance(1);
    if (FA && FB)
      ++SameFires;
    if (FA)
      ++Fires;
  }
  // Coincident fires should be rare (about Fires/64).
  EXPECT_LT(SameFires, Fires / 8);
}

//===----------------------------------------------------------------------===//
// SimPmu
//===----------------------------------------------------------------------===//

sim::CoherenceResult hitResult(uint64_t Latency) {
  sim::CoherenceResult Result;
  Result.Outcome = sim::AccessOutcome::LocalHit;
  Result.LatencyCycles = Latency;
  return Result;
}

/// Records the sink-side stream: lifecycle edges and batch sizes in
/// delivery order, plus every delivered sample.
struct EventLog : SampleSink {
  std::vector<std::string> Entries;
  std::vector<Sample> Samples;

  void threadStarted(ThreadId Tid, bool, uint64_t) override {
    Entries.push_back("start " + std::to_string(Tid));
  }
  void threadFinished(ThreadId Tid, bool, uint64_t) override {
    Entries.push_back("end " + std::to_string(Tid));
  }
  void ingestBatch(const Sample *Batch, size_t Count) override {
    Entries.push_back("batch " + std::to_string(Count));
    Samples.insert(Samples.end(), Batch, Batch + Count);
  }
};

TEST(SimPmuTest, DeliversSamplesAtConfiguredRate) {
  PmuConfig Config;
  Config.SamplingPeriod = 64;
  Config.JitterFraction = 0.0;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  Pmu.onThreadStart(0, true, 0);
  for (int I = 0; I < 6400; ++I)
    Pmu.onMemoryAccess(0, MemoryAccess::write(0x100), hitResult(3), I);
  Pmu.stop();
  EXPECT_EQ(Sink.Samples.size(), 100u);
  EXPECT_EQ(Pmu.samplesDelivered(), 100u);
}

TEST(SimPmuTest, SampleCarriesAddressTidKindLatency) {
  PmuConfig Config;
  Config.SamplingPeriod = 1;
  Config.JitterFraction = 0.0;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  Pmu.onThreadStart(7, false, 0);
  Pmu.onMemoryAccess(7, MemoryAccess::write(0xabcd), hitResult(99), 1234);
  Pmu.stop();
  ASSERT_EQ(Sink.Samples.size(), 1u);
  const Sample &Last = Sink.Samples.back();
  EXPECT_EQ(Last.Address, 0xabcdu);
  EXPECT_EQ(Last.Tid, 7u);
  EXPECT_TRUE(Last.IsWrite);
  EXPECT_EQ(Last.LatencyCycles, 99u);
  EXPECT_EQ(Last.Timestamp, 1234u);
}

TEST(SimPmuTest, ComputeInstructionsAdvanceButDeliverNothing) {
  PmuConfig Config;
  Config.SamplingPeriod = 10;
  Config.JitterFraction = 0.0;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  Pmu.onThreadStart(0, true, 0);
  Pmu.onInstructions(0, 1000); // crosses 100 sample points, all dropped
  EXPECT_EQ(Pmu.samplesDelivered(), 0u);
  // The countdown really advanced: the next memory access fires promptly.
  for (int I = 0; I < 10; ++I)
    Pmu.onMemoryAccess(0, MemoryAccess::read(0x10), hitResult(3), I);
  Pmu.stop();
  EXPECT_GT(Sink.Samples.size(), 0u);
  EXPECT_EQ(Sink.Samples.size(), Pmu.samplesDelivered());
}

TEST(SimPmuTest, ThreadSetupCostChargedPerThread) {
  PmuConfig Config;
  Config.ThreadSetupCycles = 1234;
  SimPmu Pmu(Config);
  EXPECT_EQ(Pmu.onThreadStart(0, true, 0), 1234u);
  EXPECT_EQ(Pmu.onThreadStart(1, false, 0), 1234u);
  EXPECT_EQ(Pmu.threadsConfigured(), 2u);
}

TEST(SimPmuTest, HandlerCostChargedOnlyOnSamples) {
  PmuConfig Config;
  Config.SamplingPeriod = 4;
  Config.JitterFraction = 0.0;
  Config.SampleHandlerCycles = 500;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  Pmu.onThreadStart(0, true, 0);
  uint64_t Charged = 0;
  for (int I = 0; I < 16; ++I)
    Charged += Pmu.onMemoryAccess(0, MemoryAccess::read(0x10), hitResult(3), I);
  EXPECT_EQ(Charged, 4 * 500u);
}

TEST(SimPmuTest, DisabledPmuIsFree) {
  PmuConfig Config;
  Config.SamplingPeriod = 1;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  Pmu.setEnabled(false);
  EXPECT_EQ(Pmu.onThreadStart(0, true, 0), 0u);
  EXPECT_EQ(Pmu.onMemoryAccess(0, MemoryAccess::read(0x10), hitResult(3), 0),
            0u);
  Pmu.stop();
  EXPECT_TRUE(Sink.Samples.empty());
  EXPECT_EQ(Pmu.samplesDelivered(), 0u);
}

TEST(SimPmuTest, PerThreadCountdownsAreIndependent) {
  PmuConfig Config;
  Config.SamplingPeriod = 100;
  Config.JitterFraction = 0.0;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  Pmu.onThreadStart(0, true, 0);
  Pmu.onThreadStart(1, false, 0);
  // 99 accesses on each thread: no thread reaches its own period.
  for (int I = 0; I < 99; ++I) {
    Pmu.onMemoryAccess(0, MemoryAccess::read(0x10), hitResult(3), I);
    Pmu.onMemoryAccess(1, MemoryAccess::read(0x20), hitResult(3), I);
  }
  Pmu.stop();
  EXPECT_TRUE(Sink.Samples.empty());
}

sim::ThreadRecord endRecord(ThreadId Tid, bool IsMain, uint64_t EndCycle) {
  sim::ThreadRecord Record;
  Record.Tid = Tid;
  Record.IsMain = IsMain;
  Record.EndCycle = EndCycle;
  return Record;
}

TEST(SimPmuTest, LifecycleForwardsToSinkEvenWhenDisabled) {
  // An attached-but-disabled PMU silences samples and cycle charges, not
  // the profiler's view of the thread set: lifecycle tracks the program.
  PmuConfig Config;
  Config.SamplingPeriod = 1;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);

  Pmu.setEnabled(false);
  EXPECT_EQ(Pmu.onThreadStart(0, true, 0), 0u);
  Pmu.onMemoryAccess(0, MemoryAccess::read(0x10), hitResult(3), 0);
  EXPECT_EQ(Sink.Entries, std::vector<std::string>{"start 0"});

  Pmu.setEnabled(true);
  for (int I = 0; I < 4; ++I)
    Pmu.onMemoryAccess(0, MemoryAccess::write(0x20), hitResult(3), I);
  // The samples wait in the buffer, and go out as one batch ahead of the
  // lifecycle event that follows them.
  EXPECT_EQ(Sink.Entries, std::vector<std::string>{"start 0"});
  Pmu.onThreadEnd(endRecord(0, true, 99));
  EXPECT_EQ(Sink.Entries,
            (std::vector<std::string>{"start 0", "batch 4", "end 0"}));
}

TEST(SimPmuTest, BatchesFollowTheAccessStreamAndNeverSpanLifecycle) {
  // Two threads' interleaved samples across their lifecycles: the sink
  // must receive them in batches of at most SampleBatchCapacity, cut
  // before every lifecycle event, with stop() handing over the partial
  // batch at the end. At period 1 with no jitter every access is a
  // sample, so joined together the batches are the accesses issued, in
  // order.
  PmuConfig Config;
  Config.SamplingPeriod = 1;
  Config.JitterFraction = 0.0;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  ASSERT_TRUE(Pmu.start().Available);

  std::vector<Sample> Issued;
  uint64_t Now = 0;
  auto Access = [&](ThreadId Tid, int Count) {
    for (int I = 0; I < Count; ++I, ++Now) {
      Sample S;
      S.Address = 0x1000 + 8 * (Now % 64);
      S.Tid = Tid;
      S.IsWrite = true;
      S.LatencyCycles = static_cast<uint32_t>(3 + Now % 7);
      S.Timestamp = Now;
      Issued.push_back(S);
      Pmu.onMemoryAccess(Tid, MemoryAccess::write(S.Address),
                         hitResult(S.LatencyCycles), Now);
    }
  };
  Pmu.onThreadStart(0, true, Now);
  Access(0, 300);
  Pmu.onThreadStart(1, false, Now);
  for (int Round = 0; Round < 100; ++Round) {
    Access(0, 2);
    Access(1, 3);
  }
  Pmu.onThreadEnd(endRecord(1, false, Now));
  Access(0, 10);
  ASSERT_TRUE(Pmu.stop().Available);

  EXPECT_EQ(Sink.Entries,
            (std::vector<std::string>{"start 0", "batch 256", "batch 44",
                                      "start 1", "batch 256", "batch 244",
                                      "end 1", "batch 10"}));
  ASSERT_EQ(Issued.size(), 810u);
  ASSERT_EQ(Sink.Samples.size(), Issued.size());
  for (size_t I = 0; I < Issued.size(); ++I) {
    EXPECT_EQ(Sink.Samples[I].Address, Issued[I].Address) << "sample " << I;
    EXPECT_EQ(Sink.Samples[I].Tid, Issued[I].Tid) << "sample " << I;
    EXPECT_EQ(Sink.Samples[I].IsWrite, Issued[I].IsWrite) << "sample " << I;
    EXPECT_EQ(Sink.Samples[I].LatencyCycles, Issued[I].LatencyCycles)
        << "sample " << I;
    EXPECT_EQ(Sink.Samples[I].Timestamp, Issued[I].Timestamp)
        << "sample " << I;
  }
}

TEST(PmuConfigTest, WithScaledPeriodKeepsOverheadDensity) {
  PmuConfig Base;
  EXPECT_EQ(Base.withScaledPeriod(65536).SampleHandlerCycles,
            Base.SampleHandlerCycles);
  PmuConfig Dense = Base.withScaledPeriod(1024);
  EXPECT_EQ(Dense.SamplingPeriod, 1024u);
  EXPECT_EQ(Dense.SampleHandlerCycles, Base.SampleHandlerCycles * 1024 / 65536);
  // Never zero, or the overhead model would vanish entirely.
  EXPECT_GE(Base.withScaledPeriod(1).SampleHandlerCycles, 1u);
}

TEST(PmuConfigTest, FromSpecRejectsInvalidValuesWithReasons) {
  PmuConfig Out;
  std::string Error;

  PmuConfig ZeroPeriod;
  ZeroPeriod.SamplingPeriod = 0;
  EXPECT_FALSE(PmuConfig::fromSpec(ZeroPeriod, Out, Error));
  EXPECT_NE(Error.find("sampling period"), std::string::npos) << Error;

  PmuConfig BadJitter;
  BadJitter.JitterFraction = 1.0; // the full-period edge would allow a
                                  // zero inter-sample gap
  EXPECT_FALSE(PmuConfig::fromSpec(BadJitter, Out, Error));
  EXPECT_NE(Error.find("jitter"), std::string::npos) << Error;

  PmuConfig NegativeJitter;
  NegativeJitter.JitterFraction = -0.1;
  Error.clear();
  EXPECT_FALSE(PmuConfig::fromSpec(NegativeJitter, Out, Error));
  EXPECT_NE(Error.find("jitter"), std::string::npos) << Error;

  PmuConfig NanJitter;
  NanJitter.JitterFraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(PmuConfig::fromSpec(NanJitter, Out, Error));

  PmuConfig Good;
  Good.SamplingPeriod = 128;
  Good.JitterFraction = 0.5;
  ASSERT_TRUE(PmuConfig::fromSpec(Good, Out, Error)) << Error;
  EXPECT_EQ(Out.SamplingPeriod, 128u);
  EXPECT_EQ(Out.JitterFraction, 0.5);
}

} // namespace
