//===- interpose/Preload.cpp - Real-thread interposition runtime ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interpose/Preload.h"

#include "pmu/PerfEventPmu.h"
#include "pmu/PmuConfig.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

using namespace cheetah;
using namespace cheetah::interpose;

uint64_t cheetah::interpose::readTimestampCounter() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

namespace {

/// One application thread's private sample staging area. The owner thread
/// appends; the mutex only sees cross-thread traffic when summary() or
/// endProfiling() drains all buffers, so the hot path takes an uncontended
/// lock.
struct ThreadSampleBuffer {
  std::mutex Lock;
  std::vector<pmu::Sample> Samples;
  /// Samples this thread has recorded, counted under Lock so the hot path
  /// never touches a process-global counter; summary() sums them.
  uint64_t Recorded = 0;
};

/// Global interposition state. Counters are atomics: the wrappers run on
/// arbitrary application threads.
struct RuntimeState {
  std::atomic<bool> Started{false};
  std::atomic<uint64_t> Allocations{0};
  std::atomic<uint64_t> Deallocations{0};
  std::atomic<uint64_t> BytesAllocated{0};
  std::atomic<uint64_t> ThreadsCreated{0};
  std::atomic<uint64_t> ThreadsJoined{0};
  std::atomic<uint64_t> SamplesCollected{0};
  std::atomic<uint64_t> SamplesIngested{0};
  uint64_t StartTimestamp = 0;
  bool PmuAvailable = false;
  std::string PmuStatus;

  std::mutex PmuMutex;
  // One sampler per attached thread would be the full design; the summary
  // path only needs the main thread's session to demonstrate real
  // collection where the host permits it.
  pmu::PerfEventPmu *MainSampler = nullptr;
  std::vector<pmu::Sample> PendingSamples;

  /// Registry of every thread's staging buffer, so cross-thread drains can
  /// reach samples a thread has not flushed itself. Append-only for the
  /// lifetime of a profiled run.
  std::mutex BuffersMutex;
  std::vector<std::shared_ptr<ThreadSampleBuffer>> Buffers;

  std::mutex SinkMutex;
  SampleBatchSink Sink;
};

RuntimeState &state() {
  // Function-local static: no global constructor, safe under LD_PRELOAD
  // where initialization order is hostile.
  static RuntimeState State;
  return State;
}

/// The calling thread's buffer, registered with the global state on first
/// use. The registry's shared_ptr keeps it drainable after thread exit.
ThreadSampleBuffer &threadBuffer() {
  thread_local std::shared_ptr<ThreadSampleBuffer> Buffer = [] {
    auto Fresh = std::make_shared<ThreadSampleBuffer>();
    RuntimeState &State = state();
    std::lock_guard<std::mutex> Lock(State.BuffersMutex);
    State.Buffers.push_back(Fresh);
    return Fresh;
  }();
  return *Buffer;
}

/// Hands \p Batch to the sink (or parks it in PendingSamples when no sink
/// is installed) and clears it. Called with no buffer lock held.
void deliverBatch(std::vector<pmu::Sample> &Batch) {
  if (Batch.empty())
    return;
  RuntimeState &State = state();
  SampleBatchSink Sink;
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    Sink = State.Sink;
  }
  if (Sink) {
    Sink(Batch.data(), Batch.size());
    State.SamplesIngested.fetch_add(Batch.size(), std::memory_order_relaxed);
  } else {
    std::lock_guard<std::mutex> Lock(State.PmuMutex);
    State.PendingSamples.insert(State.PendingSamples.end(), Batch.begin(),
                                Batch.end());
  }
  Batch.clear();
}

} // namespace

void cheetah::interpose::beginProfiling() {
  RuntimeState &State = state();
  bool Expected = false;
  if (!State.Started.compare_exchange_strong(Expected, true))
    return;
  State.StartTimestamp = readTimestampCounter();

  std::lock_guard<std::mutex> Lock(State.PmuMutex);
  pmu::PmuConfig Config; // deployment defaults: 1/64K sampling
  State.MainSampler = new pmu::PerfEventPmu(Config);
  pmu::PerfEventStatus Status = State.MainSampler->start();
  State.PmuAvailable = Status.Available;
  State.PmuStatus = Status.Available ? "sampling" : Status.Reason;
  if (!Status.Available) {
    delete State.MainSampler;
    State.MainSampler = nullptr;
  }
}

void cheetah::interpose::threadAttach() {
  // Per-thread PMU programming. With perf_event inheritance unavailable in
  // self-monitoring mode, each thread would open its own fd; we register
  // the thread's sample staging buffer and leave collection to the main
  // session (attach itself is counted by noteThreadCreate).
  threadBuffer();
}

void cheetah::interpose::setSampleSink(SampleBatchSink Sink) {
  RuntimeState &State = state();
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    State.Sink = std::move(Sink);
  }
  // Samples parked while no sink was installed belong to the new sink.
  std::vector<pmu::Sample> Parked;
  {
    std::lock_guard<std::mutex> Lock(State.PmuMutex);
    Parked.swap(State.PendingSamples);
  }
  deliverBatch(Parked);
}

void cheetah::interpose::recordSample(const pmu::Sample &Sample) {
  ThreadSampleBuffer &Buffer = threadBuffer();
  std::vector<pmu::Sample> Full;
  {
    std::lock_guard<std::mutex> Lock(Buffer.Lock);
    // A thread hands its samples over in batches of the backends' shared
    // size: large enough to amortize the sink's per-batch bookkeeping
    // lock, small enough that reports stay fresh.
    if (Buffer.Samples.capacity() < pmu::SampleBatchCapacity)
      Buffer.Samples.reserve(pmu::SampleBatchCapacity);
    Buffer.Samples.push_back(Sample);
    ++Buffer.Recorded;
    if (Buffer.Samples.size() >= pmu::SampleBatchCapacity)
      Full.swap(Buffer.Samples);
  }
  if (!Full.empty()) {
    deliverBatch(Full);
    // deliverBatch cleared Full but kept its 256-slot storage; hand it back
    // to the buffer so steady-state sampling never reallocates. Only this
    // thread appends to its own buffer, so empty means still-drained.
    std::lock_guard<std::mutex> Lock(Buffer.Lock);
    if (Buffer.Samples.empty())
      Buffer.Samples.swap(Full);
  }
}

void cheetah::interpose::flushThreadSamples() {
  ThreadSampleBuffer &Buffer = threadBuffer();
  std::vector<pmu::Sample> Drained;
  {
    std::lock_guard<std::mutex> Lock(Buffer.Lock);
    Drained.swap(Buffer.Samples);
  }
  deliverBatch(Drained);
}

void cheetah::interpose::flushAllSamples() {
  RuntimeState &State = state();
  std::vector<std::shared_ptr<ThreadSampleBuffer>> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(State.BuffersMutex);
    Snapshot = State.Buffers;
  }
  std::vector<pmu::Sample> Drained;
  for (const auto &Buffer : Snapshot) {
    {
      std::lock_guard<std::mutex> Lock(Buffer->Lock);
      Drained.swap(Buffer->Samples);
    }
    deliverBatch(Drained);
  }

  // Samples the real PMU sampler (or a sink-less deliverBatch) parked in
  // PendingSamples also belong to the sink once one is installed.
  bool HaveSink;
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    HaveSink = static_cast<bool>(State.Sink);
  }
  if (HaveSink) {
    std::vector<pmu::Sample> Parked;
    {
      std::lock_guard<std::mutex> Lock(State.PmuMutex);
      Parked.swap(State.PendingSamples);
    }
    deliverBatch(Parked);
  }
}

void cheetah::interpose::endProfiling() {
  RuntimeState &State = state();
  {
    std::lock_guard<std::mutex> Lock(State.PmuMutex);
    if (State.MainSampler) {
      State.SamplesCollected +=
          State.MainSampler->drain(State.PendingSamples);
      State.MainSampler->stop();
      delete State.MainSampler;
      State.MainSampler = nullptr;
    }
  }
  flushAllSamples();
}

void *cheetah::interpose::interposedMalloc(size_t Size, void *ReturnAddress) {
  RuntimeState &State = state();
  State.Allocations.fetch_add(1, std::memory_order_relaxed);
  State.BytesAllocated.fetch_add(Size, std::memory_order_relaxed);
  (void)ReturnAddress; // retained for callsite attribution in reports
  return std::malloc(Size);
}

void cheetah::interpose::interposedFree(void *Ptr) {
  if (!Ptr)
    return;
  state().Deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(Ptr);
}

void cheetah::interpose::noteThreadCreate() {
  state().ThreadsCreated.fetch_add(1, std::memory_order_relaxed);
}

void cheetah::interpose::noteThreadJoin() {
  state().ThreadsJoined.fetch_add(1, std::memory_order_relaxed);
}

InterposeSummary cheetah::interpose::summary() {
  RuntimeState &State = state();
  {
    std::lock_guard<std::mutex> Lock(State.PmuMutex);
    if (State.MainSampler)
      State.SamplesCollected +=
          State.MainSampler->drain(State.PendingSamples);
  }
  flushAllSamples();
  InterposeSummary Result;
  Result.Allocations = State.Allocations.load();
  Result.Deallocations = State.Deallocations.load();
  Result.BytesAllocated = State.BytesAllocated.load();
  Result.ThreadsCreated = State.ThreadsCreated.load();
  Result.ThreadsJoined = State.ThreadsJoined.load();
  Result.SamplesCollected = State.SamplesCollected.load();
  {
    std::lock_guard<std::mutex> Lock(State.BuffersMutex);
    for (const auto &Buffer : State.Buffers) {
      std::lock_guard<std::mutex> BufferLock(Buffer->Lock);
      Result.SamplesBuffered += Buffer->Recorded;
    }
  }
  Result.SamplesIngested = State.SamplesIngested.load();
  Result.PmuAvailable = State.PmuAvailable;
  Result.PmuStatus = State.PmuStatus;
  Result.StartTimestamp = State.StartTimestamp;
  return Result;
}

void cheetah::interpose::resetForTesting() {
  endProfiling();
  RuntimeState &State = state();
  State.Started = false;
  State.Allocations = 0;
  State.Deallocations = 0;
  State.BytesAllocated = 0;
  State.ThreadsCreated = 0;
  State.ThreadsJoined = 0;
  State.SamplesCollected = 0;
  State.SamplesIngested = 0;
  State.PmuAvailable = false;
  State.PmuStatus.clear();
  State.PendingSamples.clear();
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    State.Sink = nullptr;
  }
  // Buffers stay registered (live threads keep thread_local references to
  // them); emptying them is enough to isolate tests from each other.
  std::lock_guard<std::mutex> Lock(State.BuffersMutex);
  for (const auto &Buffer : State.Buffers) {
    std::lock_guard<std::mutex> BufferLock(Buffer->Lock);
    Buffer->Samples.clear();
    Buffer->Recorded = 0;
  }
}

//===----------------------------------------------------------------------===//
// C entry points for LD_PRELOAD use.
//===----------------------------------------------------------------------===//

extern "C" {

void cheetah_begin_profiling() { beginProfiling(); }
void cheetah_end_profiling() { endProfiling(); }

void *cheetah_malloc(size_t Size) {
  return interposedMalloc(Size, __builtin_return_address(0));
}

void cheetah_free(void *Ptr) { interposedFree(Ptr); }

void cheetah_note_thread_create() { noteThreadCreate(); }
void cheetah_note_thread_join() { noteThreadJoin(); }

} // extern "C"
