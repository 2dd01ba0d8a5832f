//===- driver/PreloadBridge.h - interpose-to-profiler wiring ----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adapter between the interpose layer's per-thread sample buffers and
/// a live profiler: it installs core::Profiler::ingestBatch as the
/// interpose sample sink (per-thread buffers drain straight into the
/// lock-free detection path), mirrors thread attach/detach into the
/// profiler's registry and phase tracker, and at finish() flushes every
/// staged sample and produces the same ProfileResult — reports included —
/// that the simulator path yields. Timestamps come from the paper's
/// per-thread RDTSC source via interpose::readTimestampCounter.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_DRIVER_PRELOADBRIDGE_H
#define CHEETAH_DRIVER_PRELOADBRIDGE_H

#include "core/Profiler.h"

#include <memory>
#include <mutex>
#include <vector>

namespace cheetah {
namespace driver {

struct IngestGate;

/// Scoped wiring between the interpose runtime and a live profiler. At
/// most one bridge may be live at a time (the interpose sink is global).
class PreloadProfilerBridge {
public:
  /// Installs the batch sink and registers the calling thread as the
  /// profiled program's main thread (ThreadId 0).
  explicit PreloadProfilerBridge(core::Profiler &Profiler);

  /// Uninstalls the sink (idempotent with finish()).
  ~PreloadProfilerBridge();

  PreloadProfilerBridge(const PreloadProfilerBridge &) = delete;
  PreloadProfilerBridge &operator=(const PreloadProfilerBridge &) = delete;

  /// Registers application thread \p Tid (> 0) with the profiler; entering
  /// the first child thread begins a parallel phase, enabling detailed
  /// tracking exactly as in the simulator path. Callable from any thread
  /// (e.g. the one that starts Tid's thread); the Tid thread's own
  /// sample buffer registers itself lazily on first use and leaves the
  /// interpose registry once that thread has exited and been drained.
  void attachThread(ThreadId Tid);

  /// Marks \p Tid finished.
  void detachThread(ThreadId Tid);

  /// Flushes every per-thread sample buffer into the profiler, retires any
  /// still-attached threads and the main thread, and finalizes reports.
  /// The bridge is inert afterwards. \p Sink streams findings as in
  /// Profiler::finish. Samples delivered by a still-running interposed
  /// thread after the final flush are dropped behind the ingest gate and
  /// counted in droppedSamples() (the gate close waits out deliveries
  /// already in flight), so nothing mutates the tables while they are
  /// being snapshotted.
  core::ProfileResult finish(core::ReportSink *Sink = nullptr);

  /// Samples dropped at the closed ingest gate: delivered by a straggler
  /// thread after finish() (or destruction) began. They never reach the
  /// profiler, so they are not in finish()'s SamplesDelivered.
  uint64_t droppedSamples() const;

  /// Cycles elapsed since the bridge was created (TSC delta).
  uint64_t elapsedCycles() const;

private:
  /// Closes the ingest gate: waits for in-flight sink deliveries to drain,
  /// then marks the gate non-accepting so later deliveries are dropped.
  void closeGate();

  core::Profiler &Profiler;
  uint64_t StartTimestamp;
  /// Shared with the installed sink closure: a straggler thread still
  /// executing the old sink after finish()/destruction holds it alive.
  std::shared_ptr<IngestGate> Gate;
  std::mutex Mutex;
  std::vector<ThreadId> Attached; // live child threads
  bool Finished = false;
};

} // namespace driver
} // namespace cheetah

#endif // CHEETAH_DRIVER_PRELOADBRIDGE_H
