//===- interpose/Preload.h - Real-thread interposition runtime -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-deployment face of Cheetah: an interposition runtime that can
/// be linked (or LD_PRELOADed as libcheetah_preload.so) into an unmodified
/// pthreads program. It intercepts allocations and thread creation exactly
/// as the paper describes — "there is no need for a custom OS, nor
/// recompilation and changing of programs" — records allocation callsites
/// and thread lifetimes with RDTSC timestamps, and, when the host exposes
/// precise PMU sampling, drains real samples into the same Detector the
/// simulator path uses.
///
/// On hosts without PMU access (most containers) everything except sample
/// collection still works, and `interpose::summary()` reports why samples
/// are unavailable. The two-API contract from the paper's Section 5 maps
/// to `beginProfiling()` / `threadAttach()`.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_INTERPOSE_PRELOAD_H
#define CHEETAH_INTERPOSE_PRELOAD_H

#include "pmu/Sample.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace cheetah {
namespace interpose {

/// Aggregate state of the interposition runtime.
struct InterposeSummary {
  uint64_t Allocations = 0;
  uint64_t Deallocations = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ThreadsCreated = 0;
  uint64_t ThreadsJoined = 0;
  uint64_t SamplesCollected = 0;
  /// Samples recorded into the per-thread buffers, exited threads'
  /// included: each buffer's append index, plus the indices of buffers
  /// that left the registry.
  uint64_t SamplesBuffered = 0;
  /// Buffers still registered: one per live recording thread, plus those of
  /// exited threads that left samples behind, until the next drain
  /// delivers them.
  uint64_t ThreadBuffers = 0;
  /// Samples delivered to the registered batch sink.
  uint64_t SamplesIngested = 0;
  bool PmuAvailable = false;
  std::string PmuStatus;
  /// TSC at beginProfiling().
  uint64_t StartTimestamp = 0;
};

/// Starts the runtime on the calling thread: records the baseline RDTSC
/// timestamp and attempts to start PMU sampling (API one of the paper's
/// two-API contract). Idempotent.
void beginProfiling();

/// Attaches the current thread to the profiler: programs its PMU sampling
/// and registers its start timestamp (API two). Called automatically for
/// threads created through the interposed pthread_create.
void threadAttach();

/// Stops sampling and freezes counters.
void endProfiling();

/// Intercepted allocation entry points (also exported with C linkage from
/// the shared library for LD_PRELOAD use).
void *interposedMalloc(size_t Size, void *ReturnAddress);
void interposedFree(void *Ptr);

/// Notifies the runtime of a thread creation/join observed by the
/// pthread_create/pthread_join wrappers.
void noteThreadCreate();
void noteThreadJoin();

/// Batch consumer for drained samples. The driver typically wires this to
/// core::Profiler::ingestBatch, which is safe to call from many threads —
/// any sink installed here must be equally thread-safe.
using SampleBatchSink = std::function<void(const pmu::Sample *, size_t)>;

/// Installs (or, with an empty function, removes) the sink that drained
/// sample batches are delivered to. Without a sink, drained samples are
/// retained until one is installed or the state is reset.
void setSampleSink(SampleBatchSink Sink);

/// Appends one sample to the calling thread's private buffer with a slot
/// store and one release store of the buffer's append index: no lock and
/// no read-modify-write, so many application threads record concurrently
/// without serializing on any global state. Every 256th sample the thread
/// takes its buffer's drain mutex once to claim the batch and delivers it
/// to the sink in place.
void recordSample(const pmu::Sample &Sample);

/// Delivers the calling thread's buffered samples to the sink now.
void flushThreadSamples();

/// Drains every registered buffer (also done by summary()/endProfiling()):
/// copies out the samples each live thread has published but not yet
/// claimed, delivers what exited threads left behind, and unregisters those
/// buffers. A thread that exits never calls the sink itself.
void flushAllSamples();

/// Drains any pending PMU samples and returns the current counters.
InterposeSummary summary();

/// Resets all state (tests only). No thread may be recording: it empties
/// live threads' buffers in place.
void resetForTesting();

/// Reads the time-stamp counter (RDTSC on x86, a monotonic clock
/// elsewhere) — the paper's per-thread timing source.
uint64_t readTimestampCounter();

} // namespace interpose
} // namespace cheetah

#endif // CHEETAH_INTERPOSE_PRELOAD_H
