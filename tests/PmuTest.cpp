//===- tests/PmuTest.cpp - PMU layer tests ---------------------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pmu/PmuConfig.h"
#include "pmu/SamplingPolicy.h"
#include "pmu/SimPmu.h"
#include "sim/Simulator.h"
#include "support/Random.h"

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

/// Advancing in chunks crosses exactly the sample points that single
/// steps cross, on the closed-form path (a spread of 0: no jitter, or a
/// period below 4 at 0.25) and on the jittered one, and leaves the twins
/// on the same countdown and random stream: their next 1,000 fire points
/// agree.
TEST(SamplingPolicyTest, ChunkedAdvanceMatchesSingleSteps) {
  for (uint64_t Period : {1, 2, 3, 4, 7, 64})
    for (double Jitter : {0.0, 0.25, 0.5})
      for (uint64_t Seed : {1, 2, 3}) {
        SCOPED_TRACE("period " + std::to_string(Period) + ", jitter " +
                     std::to_string(Jitter) + ", seed " +
                     std::to_string(Seed));
        SamplingPolicy Chunked(Period, Jitter, Seed);
        SamplingPolicy Stepped(Period, Jitter, Seed);
        SplitMix64 Chunks(Seed * 1000 + Period);
        uint64_t ChunkedFires = 0, SteppedFires = 0;
        for (int C = 0; C < 100; ++C) {
          uint64_t Instructions = Chunks.nextInRange(0, 5000);
          ChunkedFires += Chunked.advance(Instructions);
          for (uint64_t I = 0; I < Instructions; ++I)
            SteppedFires += Stepped.advance(1);
          ASSERT_EQ(ChunkedFires, SteppedFires) << "after chunk " << C;
        }
        EXPECT_GT(ChunkedFires, 0u);
        for (int Fire = 0; Fire < 1000; ++Fire) {
          uint64_t ChunkedGap = 1, SteppedGap = 1;
          while (Chunked.advance(1) == 0)
            ++ChunkedGap;
          while (Stepped.advance(1) == 0)
            ++SteppedGap;
          ASSERT_EQ(ChunkedGap, SteppedGap) << "fire " << Fire;
        }
      }
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
  // Six pfmon calls and six syscalls per thread (paper Section 4.1).
  PmuConfig Config;
  SimPmu Pmu(Config);
  EXPECT_EQ(Pmu.onThreadStart(0, true, 0), 50000u);
  EXPECT_EQ(Pmu.onThreadStart(1, false, 0), 50000u);
  EXPECT_EQ(Pmu.threadsConfigured(), 2u);
}

/// Cycles a SimPmu built from \p Config charges for the accesses of one
/// sampling period, which take exactly one sample without jitter.
uint64_t chargedPerSample(PmuConfig Config) {
  Config.JitterFraction = 0.0;
  SimPmu Pmu(Config);
  Pmu.onThreadStart(0, true, 0);
  uint64_t Charged = 0;
  for (uint64_t I = 0; I < Config.SamplingPeriod; ++I)
    Charged += Pmu.onMemoryAccess(0, MemoryAccess::read(0x10), hitResult(3), I);
  EXPECT_EQ(Pmu.samplesDelivered(), 1u);
  return Charged;
}

TEST(SimPmuTest, HandlerCostChargedOnlyOnSamples) {
  PmuConfig Config;
  Config.SamplingPeriod = 1024;
  Config.JitterFraction = 0.0;
  SimPmu Pmu(Config);
  Pmu.onThreadStart(0, true, 0);
  uint64_t Charged = 0, Charges = 0;
  for (int I = 0; I < 4 * 1024; ++I) {
    uint64_t Cost =
        Pmu.onMemoryAccess(0, MemoryAccess::read(0x10), hitResult(3), I);
    Charged += Cost;
    Charges += Cost != 0;
  }
  EXPECT_EQ(Charges, 4u);
  EXPECT_EQ(Charged, 4 * 46u);
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

TEST(SimPmuTest, EachThreadSamplesOnItsOwnSeededCountdown) {
  // A thread's jitter stream depends on its tid alone, not on which
  // threads came first: tid 5 arriving first must not shift tids 0 and 2.
  PmuConfig Config;
  Config.SamplingPeriod = 16;
  Config.JitterFraction = 0.5;
  Config.Seed = 77;
  SimPmu Pmu(Config);
  EventLog Sink;
  Pmu.setSink(&Sink);
  const std::vector<ThreadId> Tids = {5, 0, 2};
  std::vector<SamplingPolicy> Reference;
  for (ThreadId Tid : Tids) {
    Pmu.onThreadStart(Tid, Tid == 0, 0);
    Reference.emplace_back(Config.SamplingPeriod, Config.JitterFraction,
                           Config.Seed ^ (0x9e3779b97f4a7c15ull * (Tid + 1)));
  }
  std::vector<Sample> Expected;
  for (uint64_t I = 0; I < 3000; ++I) {
    for (size_t T = 0; T < Tids.size(); ++T) {
      Pmu.onMemoryAccess(Tids[T], MemoryAccess::read(I), hitResult(3), I);
      if (Reference[T].advance(1)) {
        Sample S;
        S.Address = I;
        S.Tid = Tids[T];
        Expected.push_back(S);
      }
    }
  }
  Pmu.stop();
  ASSERT_EQ(Sink.Samples.size(), Expected.size());
  ASSERT_GT(Expected.size(), 3 * 3000 / 32);
  for (size_t I = 0; I < Expected.size(); ++I) {
    EXPECT_EQ(Sink.Samples[I].Tid, Expected[I].Tid) << "sample " << I;
    EXPECT_EQ(Sink.Samples[I].Address, Expected[I].Address) << "sample " << I;
  }
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

TEST(PmuConfigTest, HandlerCostFollowsTheSamplingPeriod) {
  // 3,000 cycles at the deployment period of 64K, scaled linearly so
  // denser sampling keeps the overhead density, and never zero, or the
  // overhead model would vanish entirely.
  EXPECT_EQ(sampleHandlerCycles(65536), 3000u);
  EXPECT_EQ(sampleHandlerCycles(1024), 46u);
  EXPECT_EQ(sampleHandlerCycles(128), 5u);
  EXPECT_EQ(sampleHandlerCycles(1), 1u);

  PmuConfig Config;
  EXPECT_EQ(chargedPerSample(Config), 3000u);
  Config.SamplingPeriod = 128;
  EXPECT_EQ(chargedPerSample(Config), 5u);
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
