//===- interpose/Preload.h - Real-thread interposition runtime -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-thread ingest path: application threads record samples into
/// private per-thread buffers without taking a lock, and full batches are
/// delivered to one installed sink. driver::PreloadProfilerBridge installs
/// core::Profiler::ingestBatch as that sink; cheetah-daemon and the
/// end-to-end benchmark drive it from real OS threads. Timestamps come
/// from the paper's per-thread RDTSC source, readTimestampCounter().
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_INTERPOSE_PRELOAD_H
#define CHEETAH_INTERPOSE_PRELOAD_H

#include "pmu/Sample.h"

#include <cstddef>
#include <cstdint>
#include <functional>

namespace cheetah {
namespace interpose {

/// Buffer counters of the interposition runtime.
struct InterposeSummary {
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
};

/// Registers the calling thread's sample buffer now rather than at its
/// first recordSample().
void threadAttach();

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

/// Drains every registered buffer (also done by summary()): copies out the
/// samples each live thread has published but not yet claimed, delivers
/// what exited threads left behind, and unregisters those buffers. A
/// thread that exits never calls the sink itself.
void flushAllSamples();

/// Drains every registered buffer and returns the current counters.
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
