//===- driver/PreloadBridge.cpp - interpose-to-profiler wiring ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/PreloadBridge.h"

#include "interpose/Preload.h"
#include "support/Assert.h"

#include <algorithm>
#include <atomic>
#include <shared_mutex>

using namespace cheetah;
using namespace cheetah::driver;

namespace cheetah {
namespace driver {
/// The finish()-vs-straggler fence. The interpose runtime copies the sink
/// under its sink mutex but *calls* it unlocked (a recording thread
/// delivers each batch it claims itself), so a still-running interposed
/// thread can be mid-delivery when finish() begins — or deliver after
/// setSampleSink({}) using the copy it already took. Every delivery
/// holds the gate shared and checks Accepting; closing the gate takes it
/// exclusive, which both waits out in-flight deliveries and makes every
/// later one drop its batch instead of mutating tables being snapshotted.
/// Dropped samples are counted, so none vanishes silently.
struct IngestGate {
  std::shared_mutex Mutex;
  bool Accepting = true;
  std::atomic<uint64_t> Dropped{0};
};
} // namespace driver
} // namespace cheetah

PreloadProfilerBridge::PreloadProfilerBridge(core::Profiler &Profiler)
    : Profiler(Profiler),
      StartTimestamp(interpose::readTimestampCounter()),
      Gate(std::make_shared<IngestGate>()) {
  // Per-thread buffers drain straight into the profiler's batched ingest,
  // which is safe from any number of application threads. The sink shares
  // ownership of the gate so a straggler delivery racing bridge
  // destruction still has a live gate to bounce off.
  std::shared_ptr<IngestGate> SinkGate = Gate;
  interpose::setSampleSink(
      [&Profiler, SinkGate](const pmu::Sample *Samples, size_t Count) {
        std::shared_lock<std::shared_mutex> Lock(SinkGate->Mutex);
        if (!SinkGate->Accepting) {
          // Late delivery after finish() began: drop, but count it.
          SinkGate->Dropped.fetch_add(Count, std::memory_order_relaxed);
          return;
        }
        Profiler.ingestBatch(Samples, Count);
      });
  Profiler.threadStarted(/*Tid=*/0, /*IsMain=*/true, /*Now=*/0);
}

PreloadProfilerBridge::~PreloadProfilerBridge() {
  if (!Finished) {
    closeGate();
    interpose::setSampleSink({});
  }
}

void PreloadProfilerBridge::closeGate() {
  std::unique_lock<std::shared_mutex> Lock(Gate->Mutex);
  Gate->Accepting = false;
}

uint64_t PreloadProfilerBridge::droppedSamples() const {
  return Gate->Dropped.load(std::memory_order_relaxed);
}

uint64_t PreloadProfilerBridge::elapsedCycles() const {
  return interpose::readTimestampCounter() - StartTimestamp;
}

void PreloadProfilerBridge::attachThread(ThreadId Tid) {
  CHEETAH_ASSERT(Tid != 0, "thread 0 is the bridge's main thread");
  uint64_t Now = elapsedCycles();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    CHEETAH_ASSERT(!Finished, "attach after finish");
    Attached.push_back(Tid);
  }
  // No interpose::threadAttach() here: that registers the *calling*
  // thread's sample buffer, and attachThread may run on a coordinator. The
  // Tid thread's own buffer registers lazily on its first recordSample()
  // (or its own threadAttach() call).
  Profiler.threadStarted(Tid, /*IsMain=*/false, Now);
}

void PreloadProfilerBridge::detachThread(ThreadId Tid) {
  // The thread's staged samples must reach the detector while the thread
  // is still a live phase member: the drain copies out what a running
  // thread has published and delivers what an exited one left in its
  // retired buffer (a dying thread never calls the sink itself).
  interpose::flushAllSamples();
  uint64_t Now = elapsedCycles();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = std::find(Attached.begin(), Attached.end(), Tid);
    CHEETAH_ASSERT(It != Attached.end(), "detach of unattached thread");
    Attached.erase(It);
  }
  Profiler.threadFinished(Tid, /*IsMain=*/false, Now);
}

void PreloadProfilerBridge::finish() {
  std::vector<ThreadId> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    CHEETAH_ASSERT(!Finished, "finish twice");
    Remaining = Attached;
  }
  for (ThreadId Tid : Remaining)
    detachThread(Tid);
  // Catch samples recorded after the last detach, then close the gate:
  // everything staged so far reaches the detector, in-flight deliveries
  // drain, and anything a straggler thread records from here on is
  // dropped instead of racing a later snapshot of the tables.
  interpose::flushAllSamples();
  closeGate();
  interpose::setSampleSink({});
  Profiler.threadFinished(/*Tid=*/0, /*IsMain=*/true, elapsedCycles());

  std::lock_guard<std::mutex> Lock(Mutex);
  Finished = true;
}
