//===- pmu/TraceSource.h - Sample-trace record and replay -------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace record/replay as a first-class sampling backend. In record mode a
/// TraceSource wraps any other SampleSource, installs itself as that
/// backend's sink, and tees the full event stream — thread lifecycle and
/// samples, in delivery order — into a versioned `cheetah-trace-v1` JSON
/// file while forwarding everything to the outer sink unchanged. In replay
/// mode it parses such a file (loudly: schema mismatches, truncation, and
/// field-kind surprises are descriptive errors, never crashes), checks
/// that its thread lifecycle is one the profiler can follow (one main
/// thread started first, each thread started once and ended at most once,
/// dense tids), and feeds the recorded stream back through the same sink
/// shape deterministically: lifecycle events in place, samples in recorded
/// order in batches of at most pmu::SampleBatchCapacity, each handed over
/// before the next lifecycle event, exactly as the simulated PMU delivers
/// them.
///
/// Because detection is delivery-order-sensitive, a replayed trace must
/// produce a byte-identical `cheetah-report-v6` to the live run that
/// recorded it — CI records two NUMA workloads, replays them, and `cmp`s
/// the reports.
///
/// serialize() writes one canonical layout (members in a fixed order, no
/// whitespace, decimal integers) by appending each event's fixed member
/// text and its numbers straight into the output. parse() first reads that
/// exact layout byte by byte; at the first byte it does not expect, it
/// drops its work and runs the token decoder from the start. The decoder
/// takes any JSON spelling of the document (members in any order,
/// whitespace, repeats, numbers with a fraction or an exponent) and writes
/// every error, so a trace that jq rewrote replays too, only more slowly.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_PMU_TRACESOURCE_H
#define CHEETAH_PMU_TRACESOURCE_H

#include "pmu/Sample.h"
#include "pmu/SampleSource.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cheetah {
namespace pmu {

/// One recorded event: a thread lifecycle edge or a sample, in the order
/// the recording backend delivered it. A replaying source keeps one per
/// recorded event for its whole life, so the members are ordered widest
/// first to pack into 32 bytes.
struct TraceEvent {
  enum class Kind : uint8_t { ThreadStart, SamplePoint, ThreadEnd };
  /// Lifecycle start/end cycle, or the sample timestamp.
  uint64_t Time = 0;
  /// Sample payload (SamplePoint only).
  uint64_t Address = 0;
  /// Issuing thread (all kinds).
  ThreadId Tid = 0;
  uint32_t LatencyCycles = 0;
  Kind K = Kind::SamplePoint;
  /// Lifecycle: whether this is the main thread.
  bool IsMain = false;
  bool IsWrite = false;

  friend bool operator==(const TraceEvent &, const TraceEvent &) = default;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent grew past 32 bytes");

/// The serializable content of a `cheetah-trace-v1` file: the recording
/// backend's sampling period, the live run's total cycles (so replay can
/// reproduce the report's runtime field), and the ordered event stream.
struct TraceData {
  uint64_t SamplingPeriod = 0;
  uint64_t RunCycles = 0;
  std::vector<TraceEvent> Events;

  /// \returns the `cheetah-trace-v1` document in its canonical layout
  /// (deterministic: same data, same bytes).
  std::string serialize() const;

  /// Parses \p Text into \p Out without a document tree: the canonical
  /// layout in one pass, any other spelling through the token decoder.
  /// \returns false with a descriptive \p Error — unsupported schema,
  /// malformed JSON with byte offset, missing/mistyped/out-of-range fields
  /// with the event index — on any surprise. Never asserts or crashes on
  /// hostile input.
  static bool parse(const std::string &Text, TraceData &Out,
                    std::string &Error);
};

/// The trace backend. Construct in one of two modes; the SampleSource
/// surface is identical either way, so drivers treat it like any backend.
class TraceSource : public SampleSource, public SampleSink {
public:
  /// Record mode: wraps \p Inner (which must outlive nothing — the
  /// TraceSource owns it), tees its stream, and forwards to the outer
  /// sink. \p Path is where stop() writes the trace; empty records
  /// in-memory only (the daemon's capture pass). \p SamplingPeriod is
  /// stamped into the header.
  TraceSource(std::unique_ptr<SampleSource> Inner, std::string Path,
              uint64_t SamplingPeriod);

  /// Replay mode: start() parses \p Path and checks its thread lifecycle
  /// ("'PATH': event N: ..." on a violation), drain() delivers the stream.
  explicit TraceSource(std::string Path);

  // SampleSource implementation.
  SourceStatus start() override;
  SourceStatus stop() override;
  /// Total samples this source has delivered to its sink.
  uint64_t samplesDelivered() const { return SamplesDelivered; }
  sim::SimObserver *simObserver() override {
    return Inner ? Inner->simObserver() : nullptr;
  }

  // SampleSink implementation (the record-mode tee).
  void threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) override;
  void threadFinished(ThreadId Tid, bool IsMain, uint64_t EndCycle) override;
  void ingestBatch(const Sample *Samples, size_t Count) override;

  /// Record mode: stamps the live run's total cycles before stop() writes
  /// the file.
  void setRunCycles(uint64_t Cycles) { Data.RunCycles = Cycles; }
  /// Replay mode (after start()): the recorded run's total cycles.
  uint64_t runCycles() const { return Data.RunCycles; }
  /// The header's sampling period (replay: as recorded).
  uint64_t samplingPeriod() const { return Data.SamplingPeriod; }
  /// The buffered event stream (record: what was teed so far; replay:
  /// what start() parsed).
  const TraceData &data() const { return Data; }

  /// Replay mode (after start()): delivers the parsed stream to the sink
  /// through replayInto(). \returns samples delivered; 0 in record mode,
  /// whose inner backend delivers as it samples.
  size_t drain();

  /// Delivers the buffered stream into \p Out in recorded order —
  /// lifecycle edges in place, samples in batches of at most
  /// pmu::SampleBatchCapacity that never span a lifecycle edge. Callable
  /// repeatedly (the daemon replays one trace every epoch).
  /// \returns samples delivered by this pass.
  size_t replayInto(SampleSink &Out) const;

private:
  /// Record-mode inner backend; null in replay mode.
  std::unique_ptr<SampleSource> Inner;
  std::string Path;
  TraceData Data;
  uint64_t SamplesDelivered = 0;
  bool Started = false;
  bool Stopped = false;
};

} // namespace pmu
} // namespace cheetah

#endif // CHEETAH_PMU_TRACESOURCE_H
