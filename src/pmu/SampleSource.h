//===- pmu/SampleSource.h - Pluggable sampling-backend seam -----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend seam of the paper's data-collection module: samples are
/// samples whether a simulator or a trace file produced them, so
/// everything above this interface (the profiler core, the drivers, the
/// tools) is written against SampleSource/SampleSink and never against a
/// concrete backend. Two conformers exist:
///
///   - SimPmu        instruction-based sampling over the multicore simulator
///   - TraceSource   record mode tees any backend's stream into a versioned
///                   `cheetah-trace-v1` file; replay mode feeds a recorded
///                   file back through the same sink deterministically
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

/// Outcome of a backend lifecycle operation (start/stop).
struct SourceStatus {
  bool Available = false;
  /// Empty when available; otherwise a human-readable reason (e.g. a
  /// trace-file parse error with byte offset, a failed trace write).
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

  /// Delivers \p Count samples, in the order they were taken. Both
  /// backends buffer: the simulated PMU and trace replay pass batches of at
  /// most SampleBatchCapacity, handed over before each lifecycle event.
  virtual void ingestBatch(const Sample *Samples, size_t Count) = 0;
};

/// Producer side of the seam: one sampling backend driving one sink.
///
/// Lifecycle: setSink() then start(); the simulated PMU then delivers from
/// the simulator's hooks, trace replay from TraceSource::drain(); stop()
/// ends the session (and is where file-backed sources flush — its status
/// carries I/O errors).
class SampleSource {
public:
  virtual ~SampleSource() = default;

  /// Installs the consumer. Must precede start(); the source never owns
  /// the sink.
  void setSink(SampleSink *NewSink) { Sink = NewSink; }
  SampleSink *sink() const { return Sink; }

  /// Begins the sampling session. On failure the source stays inert and
  /// Reason says why.
  virtual SourceStatus start() = 0;

  /// Ends the session (idempotent). File-backed sources report write
  /// failures here — callers must check, this is the loud-error path.
  virtual SourceStatus stop() = 0;

  /// Total samples this source has delivered to its sink.
  virtual uint64_t samplesDelivered() const = 0;

  /// Non-null for backends driven by the simulator's observer hooks; the
  /// driver attaches this to the Simulator. Trace replay returns nullptr.
  virtual sim::SimObserver *simObserver() { return nullptr; }

private:
  SampleSink *Sink = nullptr;
};

} // namespace pmu
} // namespace cheetah

#endif // CHEETAH_PMU_SAMPLESOURCE_H
