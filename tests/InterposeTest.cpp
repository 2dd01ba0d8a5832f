//===- tests/InterposeTest.cpp - interposition runtime tests ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/PreloadBridge.h"
#include "interpose/Preload.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace cheetah;
using namespace cheetah::interpose;

namespace {

class InterposeTest : public ::testing::Test {
protected:
  void SetUp() override { resetForTesting(); }
  void TearDown() override { resetForTesting(); }
};

TEST_F(InterposeTest, TimestampCounterIsMonotonic) {
  uint64_t A = readTimestampCounter();
  uint64_t B = readTimestampCounter();
  EXPECT_GE(B, A);
}

TEST_F(InterposeTest, BeginProfilingIsIdempotent) {
  beginProfiling();
  InterposeSummary First = summary();
  beginProfiling();
  InterposeSummary Second = summary();
  EXPECT_EQ(First.StartTimestamp, Second.StartTimestamp);
}

TEST_F(InterposeTest, AllocationCountersTrack) {
  beginProfiling();
  void *A = interposedMalloc(100, nullptr);
  void *B = interposedMalloc(28, nullptr);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  interposedFree(A);
  interposedFree(B);
  interposedFree(nullptr); // must be a no-op
  InterposeSummary Summary = summary();
  EXPECT_EQ(Summary.Allocations, 2u);
  EXPECT_EQ(Summary.Deallocations, 2u);
  EXPECT_EQ(Summary.BytesAllocated, 128u);
}

TEST_F(InterposeTest, ThreadLifecycleCounters) {
  beginProfiling();
  std::thread Worker([] {
    threadAttach();
    noteThreadCreate();
  });
  Worker.join();
  noteThreadJoin();
  InterposeSummary Summary = summary();
  EXPECT_EQ(Summary.ThreadsCreated, 1u);
  EXPECT_EQ(Summary.ThreadsJoined, 1u);
}

TEST_F(InterposeTest, PmuStatusIsAlwaysExplained) {
  beginProfiling();
  InterposeSummary Summary = summary();
  // Either live sampling or a concrete reason (e.g. perf_event_paranoid).
  EXPECT_FALSE(Summary.PmuStatus.empty());
  endProfiling();
}

//===----------------------------------------------------------------------===//
// Preload-to-profiler bridge: LD_PRELOAD-path samples become real reports.
//===----------------------------------------------------------------------===//

TEST_F(InterposeTest, BridgeDeliversInterposeSamplesToProfiler) {
  core::ProfilerConfig Config;
  Config.Report.MinInvalidations = 1;
  Config.Report.MinImprovementFactor = 0.0;
  Config.Detect.WriteThreshold = 0; // record every write in detail
  core::Profiler Profiler(Config);
  driver::PreloadProfilerBridge Bridge(Profiler);

  // Two "application" threads ping-pong writing disjoint words of one
  // monitored line through the per-thread interpose buffers.
  constexpr unsigned SamplesPerThread = 4000;
  std::vector<std::thread> Threads;
  for (ThreadId Tid : {1u, 2u}) {
    Bridge.attachThread(Tid);
    Threads.emplace_back([&, Tid] {
      threadAttach();
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = Config.HeapArenaBase + Tid * 8;
        Sample.Tid = Tid;
        Sample.IsWrite = true;
        Sample.LatencyCycles = 50;
        recordSample(Sample);
      }
      flushThreadSamples();
    });
  }
  for (std::thread &Thread : Threads)
    Thread.join();

  // Finish through the JSON sink: the bridge must provide the full
  // beginRun/finding/endRun lifecycle so the document is well-formed.
  std::string JsonText;
  core::JsonReportSink Sink(JsonText);
  core::ProfileResult Result = Bridge.finish(&Sink);
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  EXPECT_EQ(Document.find("run")->find("tool")->asString(),
            "cheetah-preload");
  EXPECT_EQ(Document.find("summary")->find("findings")->asUint(),
            Result.AllInstances.size());

  // Every buffered sample reached the profiler's detector.
  InterposeSummary Summary = summary();
  EXPECT_EQ(Summary.SamplesBuffered, uint64_t(2) * SamplesPerThread);
  EXPECT_EQ(Summary.SamplesIngested, uint64_t(2) * SamplesPerThread);
  EXPECT_EQ(Result.Detection.SamplesSeen, uint64_t(2) * SamplesPerThread);
  EXPECT_EQ(Result.Detection.SamplesFiltered, 0u);
  EXPECT_GT(Result.Detection.Invalidations, 0u);

  // And the LD_PRELOAD path produced a real finding, not just counters.
  ASSERT_FALSE(Result.AllInstances.empty());
  const core::FalseSharingReport &Report = Result.AllInstances.front();
  EXPECT_EQ(Report.ThreadsObserved, 2u);
  EXPECT_EQ(Report.Kind, core::SharingKind::FalseSharing);
  EXPECT_EQ(Report.SampledWrites, uint64_t(2) * SamplesPerThread);
}

TEST_F(InterposeTest, BridgeDetachStopsParallelPhase) {
  core::ProfilerConfig Config;
  core::Profiler Profiler(Config);
  driver::PreloadProfilerBridge Bridge(Profiler);
  EXPECT_FALSE(Profiler.phases().inParallelPhase());
  Bridge.attachThread(1);
  EXPECT_TRUE(Profiler.phases().inParallelPhase());
  Bridge.detachThread(1);
  EXPECT_FALSE(Profiler.phases().inParallelPhase());
  Bridge.finish();
}

TEST_F(InterposeTest, BridgeFinishRacesRecordingThreadSafely) {
  // Regression test for the finish()-vs-straggler race: the interpose
  // runtime copies the sample sink under its lock but *calls* it unlocked,
  // so a thread still hammering recordSample/flushThreadSamples could
  // deliver a batch into the profiler while finish() was building the
  // report. The bridge's ingest gate must drain in-flight deliveries and
  // drop every later one. Run under TSan this test fails without the gate;
  // in any build it must not crash or assert. No sample may vanish either:
  // each one the hammer recorded was delivered before finish() closed the
  // gate, dropped (and counted) at the closed gate, or parked after the
  // sink was removed.
  constexpr int Rounds = 6;
  for (int Round = 0; Round < Rounds; ++Round) {
    resetForTesting();
    core::ProfilerConfig Config;
    Config.Detect.WriteThreshold = 0;
    core::Profiler Profiler(Config);
    {
      driver::PreloadProfilerBridge Bridge(Profiler);
      Bridge.attachThread(1);
      std::atomic<bool> Hammering{false};
      std::atomic<bool> Stop{false};
      uint64_t Recorded = 0;
      std::thread Hammer([&] {
        threadAttach();
        while (!Stop.load(std::memory_order_acquire)) {
          pmu::Sample Sample;
          Sample.Address = Config.HeapArenaBase + 64 * (Round % 8);
          Sample.Tid = 1;
          Sample.IsWrite = true;
          Sample.LatencyCycles = 40;
          recordSample(Sample);
          ++Recorded;
          flushThreadSamples();
          Hammering.store(true, std::memory_order_release);
        }
      });
      while (!Hammering.load(std::memory_order_acquire))
        std::this_thread::yield();
      // Finish mid-hammer: deliveries already inside the sink drain,
      // everything after bounces off the closed gate.
      core::ProfileResult Result = Bridge.finish();
      Stop.store(true, std::memory_order_release);
      Hammer.join();

      // Samples flushed after finish() removed the sink were parked; a
      // counting sink installed now receives them.
      uint64_t Parked = 0;
      setSampleSink(
          [&Parked](const pmu::Sample *, size_t Count) { Parked += Count; });
      EXPECT_EQ(Recorded,
                Result.SamplesDelivered + Bridge.droppedSamples() + Parked)
          << "round " << Round;
      setSampleSink({});
    }
  }
}

TEST_F(InterposeTest, CountersThreadSafeUnderContention) {
  beginProfiling();
  constexpr int ThreadCount = 4, PerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < PerThread; ++I)
        interposedFree(interposedMalloc(16, nullptr));
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  InterposeSummary Summary = summary();
  EXPECT_EQ(Summary.Allocations, uint64_t(ThreadCount) * PerThread);
  EXPECT_EQ(Summary.Deallocations, uint64_t(ThreadCount) * PerThread);
}

} // namespace
