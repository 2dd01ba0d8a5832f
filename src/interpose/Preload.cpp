//===- interpose/Preload.cpp - Real-thread interposition runtime ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interpose/Preload.h"

#include "pmu/PerfEventPmu.h"
#include "pmu/PmuConfig.h"

#include <algorithm>
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

/// One application thread's private sample staging area: a ring of one
/// batch. Head counts every sample the owner has appended; slot
/// `I % SampleBatchCapacity` holds sample I, and [Tail, Head) are the
/// published samples no one has claimed yet.
///
/// The owner appends with a plain slot store and one release store of
/// Head — no lock, no read-modify-write. It takes DrainMutex once per
/// batch: at every lap boundary and in flushThreadSamples(), it claims
/// [Tail, Head) and delivers the claimed slots in place. A cross-thread
/// drain (flushAllSamples) copies the published [Tail, Head) out under the
/// same mutex. Only the owner writes slots, and it starts a new lap only
/// after claiming the old one under the mutex, so a claim never wraps, no
/// drainer copies a slot being rewritten, and the owner waits at most for
/// one copy of at most a batch. Cache-line aligned, so the owner's
/// per-sample stores share no line with another allocation or with the
/// shared_ptr control block whose count every drain snapshot bumps.
struct alignas(64) ThreadSampleBuffer {
  /// Written only by the owner (and resetForTesting); summary() sums it,
  /// so the hot path never touches a process-global counter.
  std::atomic<uint64_t> Head{0};
  std::mutex DrainMutex;
  /// Guarded by DrainMutex.
  uint64_t Tail = 0;
  /// The owner thread has exited leaving samples behind; the next
  /// flushAllSamples() delivers them and unregisters the buffer. Guarded by
  /// DrainMutex.
  bool Retired = false;
  pmu::Sample Slots[pmu::SampleBatchCapacity];
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

  /// Registry of the staging buffers of live threads, and of exited
  /// threads' buffers still holding samples, so cross-thread drains can
  /// reach samples a thread has not flushed itself. A thread's buffer
  /// leaves it at thread exit, or at the first drain after that. Lock
  /// order: BuffersMutex before any buffer's DrainMutex.
  std::mutex BuffersMutex;
  std::vector<std::shared_ptr<ThreadSampleBuffer>> Buffers;
  /// Samples recorded by the buffers that left the registry, so
  /// SamplesBuffered stays exact. Guarded by BuffersMutex.
  uint64_t ExitedSamples = 0;

  std::mutex SinkMutex;
  SampleBatchSink Sink;
};

RuntimeState &state() {
  // Function-local static: no global constructor, safe under LD_PRELOAD
  // where initialization order is hostile.
  static RuntimeState State;
  return State;
}

/// Removes an empty \p Buffer whose owner has exited from the registry,
/// unless another drain already did. Called with BuffersMutex held.
void unregisterLocked(RuntimeState &State, const ThreadSampleBuffer *Buffer) {
  auto It = std::find_if(
      State.Buffers.begin(), State.Buffers.end(),
      [Buffer](const auto &Entry) { return Entry.get() == Buffer; });
  if (It == State.Buffers.end())
    return;
  State.ExitedSamples += Buffer->Head.load(std::memory_order_relaxed);
  State.Buffers.erase(It);
}

/// A thread's registration: created on the thread's first use of its
/// buffer and destroyed at thread exit. The registry shares ownership, so
/// a drain that took its snapshot before the exit still has a live buffer.
struct BufferHandle {
  std::shared_ptr<ThreadSampleBuffer> Buffer =
      std::make_shared<ThreadSampleBuffer>();

  BufferHandle() {
    RuntimeState &State = state();
    std::lock_guard<std::mutex> Lock(State.BuffersMutex);
    State.Buffers.push_back(Buffer);
  }

  BufferHandle(const BufferHandle &) = delete;
  BufferHandle &operator=(const BufferHandle &) = delete;

  /// An empty buffer leaves the registry now. A dying thread never calls
  /// the sink, whose own thread-locals may already be gone, so a non-empty
  /// buffer is retired for the next flushAllSamples() to deliver.
  ~BufferHandle() {
    RuntimeState &State = state();
    std::lock_guard<std::mutex> Lock(State.BuffersMutex);
    std::lock_guard<std::mutex> DrainLock(Buffer->DrainMutex);
    if (Buffer->Tail != Buffer->Head.load(std::memory_order_relaxed))
      Buffer->Retired = true;
    else
      unregisterLocked(State, Buffer.get());
  }
};

/// The calling thread's buffer, registered with the global state on first
/// use.
ThreadSampleBuffer &threadBuffer() {
  thread_local BufferHandle Handle;
  return *Handle.Buffer;
}

/// Hands \p Count samples to the sink, or parks them in PendingSamples
/// when no sink is installed. Called with no buffer lock held.
void deliverBatch(const pmu::Sample *Samples, size_t Count) {
  if (Count == 0)
    return;
  RuntimeState &State = state();
  SampleBatchSink Sink;
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    Sink = State.Sink;
  }
  if (Sink) {
    Sink(Samples, Count);
    State.SamplesIngested.fetch_add(Count, std::memory_order_relaxed);
  } else {
    std::lock_guard<std::mutex> Lock(State.PmuMutex);
    State.PendingSamples.insert(State.PendingSamples.end(), Samples,
                                Samples + Count);
  }
}

/// The owner's per-batch claim: takes every published, unclaimed sample of
/// its own buffer and delivers it from the slots. Nobody else writes the
/// slots, and the owner appends again only after the delivery returns.
void claimOwnSamples(ThreadSampleBuffer &Buffer) {
  uint64_t Head = Buffer.Head.load(std::memory_order_relaxed);
  uint64_t Tail;
  {
    std::lock_guard<std::mutex> Lock(Buffer.DrainMutex);
    Tail = Buffer.Tail;
    Buffer.Tail = Head;
  }
  deliverBatch(&Buffer.Slots[Tail % pmu::SampleBatchCapacity], Head - Tail);
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
  deliverBatch(Parked.data(), Parked.size());
}

void cheetah::interpose::recordSample(const pmu::Sample &Sample) {
  ThreadSampleBuffer &Buffer = threadBuffer();
  // Only this thread writes Head, so a relaxed load reads its own last
  // store; the release store publishes the slot to drainers.
  uint64_t Head = Buffer.Head.load(std::memory_order_relaxed);
  Buffer.Slots[Head % pmu::SampleBatchCapacity] = Sample;
  Buffer.Head.store(Head + 1, std::memory_order_release);
  // A thread hands its samples over in batches of the backends' shared
  // size: large enough to amortize the sink's per-batch bookkeeping lock,
  // small enough that reports stay fresh.
  if ((Head + 1) % pmu::SampleBatchCapacity == 0)
    claimOwnSamples(Buffer);
}

void cheetah::interpose::flushThreadSamples() {
  claimOwnSamples(threadBuffer());
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
    bool Retired;
    {
      std::lock_guard<std::mutex> Lock(Buffer->DrainMutex);
      uint64_t Head = Buffer->Head.load(std::memory_order_acquire);
      const pmu::Sample *First =
          &Buffer->Slots[Buffer->Tail % pmu::SampleBatchCapacity];
      Drained.assign(First, First + (Head - Buffer->Tail));
      Buffer->Tail = Head;
      Retired = Buffer->Retired;
    }
    deliverBatch(Drained.data(), Drained.size());
    if (Retired) {
      std::lock_guard<std::mutex> Lock(State.BuffersMutex);
      unregisterLocked(State, Buffer.get());
    }
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
    deliverBatch(Parked.data(), Parked.size());
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
    Result.SamplesBuffered = State.ExitedSamples;
    for (const auto &Buffer : State.Buffers)
      Result.SamplesBuffered += Buffer->Head.load(std::memory_order_acquire);
    Result.ThreadBuffers = State.Buffers.size();
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
  {
    std::lock_guard<std::mutex> Lock(State.PmuMutex);
    State.PendingSamples.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    State.Sink = nullptr;
  }
  // Live threads' buffers stay registered (their thread_local handles own
  // them); emptying them is enough to isolate tests from each other.
  std::lock_guard<std::mutex> Lock(State.BuffersMutex);
  State.ExitedSamples = 0;
  for (const auto &Buffer : State.Buffers) {
    std::lock_guard<std::mutex> BufferLock(Buffer->DrainMutex);
    Buffer->Head.store(0, std::memory_order_relaxed);
    Buffer->Tail = 0;
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
