//===- pmu/SampleSource.h - Pluggable sampling-backend seam -----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend seam of the paper's data-collection module: samples are
/// samples whether a simulator, a trace file, or a hardware PMU produced
/// them, so everything above this interface (the profiler core, the
/// drivers, the tools) is written against SampleSource/SampleSink and
/// never against a concrete backend. Three conformers exist:
///
///   - SimPmu        instruction-based sampling over the multicore simulator
///   - TraceSource   record mode tees any backend's stream into a versioned
///                   `cheetah-trace-v1` file; replay mode feeds a recorded
///                   file back through the same sink deterministically
///   - PerfEventPmu  real perf_event_open(2) sampling behind its probe()
///                   gate (hardware- and container-dependent)
///
/// The sink shape mirrors what the analysis side already consumes: batched
/// samples via ingestBatch plus the thread lifecycle events the phase
/// tracker needs. Delivery order is the contract — a sink fed the same
/// event sequence twice must build byte-identical reports, which is what
/// makes trace replay an executable determinism gate.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_PMU_SAMPLESOURCE_H
#define CHEETAH_PMU_SAMPLESOURCE_H

#include "pmu/Sample.h"

#include <cstdint>
#include <string>

namespace cheetah {
namespace sim {
class SimObserver;
} // namespace sim

namespace pmu {

/// Outcome of a backend lifecycle operation (start/attach/stop).
struct SourceStatus {
  bool Available = false;
  /// Empty when available; otherwise a human-readable reason (e.g. EACCES
  /// from perf_event_paranoid, a trace-file parse error with byte offset).
  std::string Reason;
};

/// Consumer side of the seam: where every backend delivers its stream.
/// core::Profiler implements this; tests and tools provide small adapters.
class SampleSink {
public:
  virtual ~SampleSink() = default;

  /// Thread \p Tid (the main thread is Tid 0 / IsMain) began execution at
  /// \p Now. Backends report every profiled thread exactly once, before any
  /// of its samples.
  virtual void threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) = 0;

  /// Thread \p Tid finished at \p EndCycle, after its last sample.
  virtual void threadFinished(ThreadId Tid, bool IsMain,
                              uint64_t EndCycle) = 0;

  /// Delivers \p Count samples, in the order they were taken. Every
  /// backend buffers: the simulated PMU and trace replay pass batches of at
  /// most SampleBatchCapacity, handed over before each lifecycle event;
  /// perf_event ring drains and interpose thread buffers pass whatever
  /// they have collected.
  virtual void ingestBatch(const Sample *Samples, size_t Count) = 0;
};

/// Producer side of the seam: one sampling backend driving one sink.
///
/// Lifecycle: setSink() then start(); for pull-style backends, drain()
/// moves buffered samples into the sink; stop() ends the session (and is
/// where file-backed sources flush — its status carries I/O errors).
class SampleSource {
public:
  virtual ~SampleSource() = default;

  /// Stable backend identifier ("sim", "perf_event", "trace-record",
  /// "trace-replay") for banners and diagnostics.
  virtual const char *name() const = 0;

  /// Installs the consumer. Must precede start(); the source never owns
  /// the sink.
  void setSink(SampleSink *NewSink) { Sink = NewSink; }
  SampleSink *sink() const { return Sink; }

  /// Begins the sampling session. On failure the source stays inert and
  /// Reason says why (a probe-gated backend reports its gate here).
  virtual SourceStatus start() = 0;

  /// Registers thread \p Tid with the backend (per-thread PMU fds on real
  /// hardware). Backends that learn about threads from their own stream
  /// accept the default no-op.
  virtual SourceStatus attachThread(ThreadId Tid) {
    (void)Tid;
    return {true, ""};
  }

  /// Pull-style delivery: moves any buffered samples into the sink.
  /// \returns samples delivered by this call. Push-style backends (the
  /// simulator observer) deliver from their own event hooks and return 0.
  virtual size_t drain() { return 0; }

  /// Ends the session (idempotent). File-backed sources report write
  /// failures here — callers must check, this is the loud-error path.
  virtual SourceStatus stop() = 0;

  /// Total samples this source has delivered to its sink.
  virtual uint64_t samplesDelivered() const = 0;

  /// Non-null for backends driven by the simulator's observer hooks; the
  /// driver attaches this to the Simulator. Pull-style backends return
  /// nullptr.
  virtual sim::SimObserver *simObserver() { return nullptr; }

private:
  SampleSink *Sink = nullptr;
};

} // namespace pmu
} // namespace cheetah

#endif // CHEETAH_PMU_SAMPLESOURCE_H
