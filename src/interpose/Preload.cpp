//===- interpose/Preload.cpp - Real-thread interposition runtime ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interpose/Preload.h"

#include <algorithm>
#include <atomic>
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

/// Global interposition state, shared by every recording thread.
struct RuntimeState {
  std::atomic<uint64_t> SamplesIngested{0};

  /// Samples delivered while no sink was installed, kept for the next one.
  std::mutex PendingMutex;
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
  // Function-local static: constructed on first use, whatever the order
  // of static initialization.
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
    std::lock_guard<std::mutex> Lock(State.PendingMutex);
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

void cheetah::interpose::threadAttach() { threadBuffer(); }

void cheetah::interpose::setSampleSink(SampleBatchSink Sink) {
  RuntimeState &State = state();
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    State.Sink = std::move(Sink);
  }
  // Samples parked while no sink was installed belong to the new sink.
  std::vector<pmu::Sample> Parked;
  {
    std::lock_guard<std::mutex> Lock(State.PendingMutex);
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

  // A delivery that found no sink, racing setSampleSink(), may have parked
  // its samples after the new sink took the parked ones: they belong to
  // the sink too.
  bool HaveSink;
  {
    std::lock_guard<std::mutex> Lock(State.SinkMutex);
    HaveSink = static_cast<bool>(State.Sink);
  }
  if (HaveSink) {
    std::vector<pmu::Sample> Parked;
    {
      std::lock_guard<std::mutex> Lock(State.PendingMutex);
      Parked.swap(State.PendingSamples);
    }
    deliverBatch(Parked.data(), Parked.size());
  }
}

InterposeSummary cheetah::interpose::summary() {
  RuntimeState &State = state();
  flushAllSamples();
  InterposeSummary Result;
  {
    std::lock_guard<std::mutex> Lock(State.BuffersMutex);
    Result.SamplesBuffered = State.ExitedSamples;
    for (const auto &Buffer : State.Buffers)
      Result.SamplesBuffered += Buffer->Head.load(std::memory_order_acquire);
    Result.ThreadBuffers = State.Buffers.size();
  }
  Result.SamplesIngested = State.SamplesIngested.load();
  return Result;
}

void cheetah::interpose::resetForTesting() {
  flushAllSamples();
  RuntimeState &State = state();
  State.SamplesIngested = 0;
  {
    std::lock_guard<std::mutex> Lock(State.PendingMutex);
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
