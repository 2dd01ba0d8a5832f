//===- tests/InterposeTest.cpp - interposition runtime tests ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/PreloadBridge.h"
#include "interpose/Preload.h"
#include "support/Json.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

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

//===----------------------------------------------------------------------===//
// Interpose-to-profiler bridge: real-thread samples become real reports.
//===----------------------------------------------------------------------===//

TEST_F(InterposeTest, BridgeDeliversInterposeSamplesToProfiler) {
  core::ProfilerConfig Config;
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
        Sample.Address = core::HeapArenaBase + Tid * 8;
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

  // The bridge retires the main thread; the report is the profiler's,
  // streamed through the JSON sink as the daemon streams its snapshots.
  Bridge.finish();
  sim::SimulationResult Run;
  Run.TotalCycles = Bridge.elapsedCycles();
  std::string JsonText;
  core::JsonReportSink Sink(JsonText);
  Sink.beginRun(core::ReportRunInfo());
  core::ProfileResult Result = Profiler.finish(Run, &Sink);
  JsonValue Document;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(JsonText, Document, Error)) << Error;
  EXPECT_EQ(Document.find("summary")->find("findings")->asUint(),
            Result.Findings.size());

  // Every buffered sample reached the profiler's detector.
  InterposeSummary Summary = summary();
  EXPECT_EQ(Summary.SamplesBuffered, uint64_t(2) * SamplesPerThread);
  EXPECT_EQ(Summary.SamplesIngested, uint64_t(2) * SamplesPerThread);
  EXPECT_EQ(Result.Detection.SamplesSeen, uint64_t(2) * SamplesPerThread);
  EXPECT_EQ(Result.Detection.SamplesFiltered, 0u);
  EXPECT_GT(Result.Detection.Invalidations, 0u);

  // And the real-thread path produced a real finding, not just counters.
  ASSERT_FALSE(Result.Findings.empty());
  const core::FalseSharingReport &Report = Result.Findings.front();
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
          Sample.Address = core::HeapArenaBase + 64 * (Round % 8);
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
      // everything after bounces off the closed gate, so the profiler can
      // be snapshotted while the hammer still runs.
      Bridge.finish();
      core::ProfileResult Result = Profiler.finish(sim::SimulationResult());
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

//===----------------------------------------------------------------------===//
// Per-thread buffers: lock-free appends, cross-thread drains, thread exit.
//===----------------------------------------------------------------------===//

constexpr uint64_t LedgerBase = 0x4000'0000;

/// Sample number \p Slot of a ledger test: its address names the slot.
pmu::Sample ledgerSample(uint64_t Slot) {
  pmu::Sample Sample;
  Sample.Address = LedgerBase + Slot * 8;
  Sample.Tid = 1;
  Sample.IsWrite = true;
  Sample.LatencyCycles = 40;
  return Sample;
}

/// Installs a sink that counts deliveries per ledger slot, so a test can
/// prove every recorded sample arrived exactly once.
class DeliveryLedger {
public:
  explicit DeliveryLedger(size_t Slots) : Seen(Slots, 0) {
    setSampleSink([this](const pmu::Sample *Samples, size_t Count) {
      std::lock_guard<std::mutex> Lock(Mutex);
      for (size_t I = 0; I < Count; ++I) {
        uint64_t Slot = (Samples[I].Address - LedgerBase) / 8;
        if (Samples[I].Address < LedgerBase || Slot >= Seen.size())
          ++Stray;
        else
          ++Seen[Slot];
      }
    });
  }
  ~DeliveryLedger() { setSampleSink({}); }

  /// Deliveries of \p Slot so far.
  uint32_t seen(uint64_t Slot) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Seen[Slot];
  }

  /// Slots not delivered exactly once, plus deliveries of no slot at all
  /// (a torn copy of a slot being rewritten).
  uint64_t misdelivered() {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Stray + static_cast<uint64_t>(std::count_if(
                       Seen.begin(), Seen.end(),
                       [](uint32_t Count) { return Count != 1; }));
  }

private:
  std::mutex Mutex;
  std::vector<uint32_t> Seen;
  uint64_t Stray = 0;
};

TEST_F(InterposeTest, DrainsRacingAppendsDeliverEverySampleOnce) {
  // The owner appends with no lock while another thread drains its buffer
  // in a loop, and claims its own batches at every 256-sample boundary and
  // at random flush points. Each claim must take a disjoint range and no
  // drain may copy a slot the owner is rewriting. Odd rounds exit without a
  // final flush, so a drain delivers the rest after the owner is gone.
  constexpr int Rounds = 20;
  constexpr uint64_t PerRound = 100000;
  for (int Round = 0; Round < Rounds; ++Round) {
    resetForTesting();
    DeliveryLedger Ledger(PerRound);
    std::atomic<bool> OwnerDone{false};
    std::thread Drainer([&] {
      while (!OwnerDone.load(std::memory_order_acquire))
        flushAllSamples();
    });
    std::thread Owner([Round] {
      SplitMix64 Rng(1000 + Round);
      for (uint64_t I = 0; I < PerRound; ++I) {
        if (Rng.nextBelow(512) == 0)
          flushThreadSamples();
        recordSample(ledgerSample(I));
      }
      if (Round % 2 == 0)
        flushThreadSamples();
    });
    Owner.join();
    OwnerDone.store(true, std::memory_order_release);
    Drainer.join();
    flushAllSamples();

    InterposeSummary Summary = summary();
    EXPECT_EQ(Ledger.misdelivered(), 0u) << "round " << Round;
    EXPECT_EQ(Summary.SamplesBuffered, PerRound) << "round " << Round;
    EXPECT_EQ(Summary.SamplesIngested, PerRound) << "round " << Round;
  }
}

TEST_F(InterposeTest, ExitedThreadsReleaseTheirBuffers) {
  // 64 short-lived threads, 8 at a time, as a daemon attaches fresh threads
  // every epoch. Each records 300 samples: one batch delivered at the
  // 256-sample boundary, 44 left over. Even threads flush those before
  // exiting; odd threads leave them for the next drain. Either way the
  // registry must forget the thread, and SamplesBuffered must still count
  // its samples.
  constexpr unsigned Threads = 64, Wave = 8, PerThread = 300;
  DeliveryLedger Ledger(Threads * PerThread);
  uint64_t LiveBuffers = summary().ThreadBuffers;
  for (unsigned First = 0; First < Threads; First += Wave) {
    std::vector<std::thread> Workers;
    for (unsigned T = First; T < First + Wave; ++T)
      Workers.emplace_back([T] {
        for (unsigned I = 0; I < PerThread; ++I)
          recordSample(ledgerSample(T * PerThread + I));
        if (T % 2 == 0)
          flushThreadSamples();
      });
    for (std::thread &Worker : Workers)
      Worker.join();
  }

  // A dying thread never calls the sink: the odd threads' leftovers wait
  // for a drain.
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(Ledger.seen(T * PerThread + PerThread - 1), T % 2 == 0 ? 1u : 0u)
        << "thread " << T;
  flushAllSamples();

  InterposeSummary Summary = summary();
  EXPECT_EQ(Ledger.misdelivered(), 0u);
  EXPECT_EQ(Summary.SamplesBuffered, uint64_t(Threads) * PerThread);
  EXPECT_EQ(Summary.SamplesIngested, uint64_t(Threads) * PerThread);
  EXPECT_EQ(Summary.ThreadBuffers, LiveBuffers);
}

} // namespace
