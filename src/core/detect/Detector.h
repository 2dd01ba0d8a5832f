//===- core/detect/Detector.h - FS detection over samples ------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "FS detection" module of Figure 2: consumes the PMU sample stream,
/// filters it to the monitored heap/global regions, and runs one identical
/// pipeline per active *grain stage* (line granularity, page granularity):
/// maintain the stage-1 write counters, materialize detailed tracking for
/// susceptible grains (write count above threshold), decode the sample
/// into the grain's actor/bucket coordinates, and record it into the
/// grain. Detailed tracking is gated to parallel phases to avoid reporting
/// initialize-then-share objects as shared (Section 2.4).
///
/// handleBatch is the only way samples reach the shadow tables; a single
/// sample is a batch of one. It is safe to call from many ingesting
/// threads concurrently, and entirely lock-free. Every grain and counter
/// update is applied as soon as the call returns: nothing needs folding
/// back before the tables are read.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_DETECTOR_H
#define CHEETAH_CORE_DETECT_DETECTOR_H

#include "core/detect/PageTable.h"
#include "core/detect/ShadowMemory.h"
#include "mem/CacheGeometry.h"
#include "mem/NumaTopology.h"
#include "pmu/Sample.h"

#include <atomic>
#include <cstdint>

namespace cheetah {
namespace core {

/// Detection tunables.
struct DetectorConfig {
  /// Lines with at most this many sampled writes never get detailed
  /// tracking ("only tracks detailed information for cache lines with more
  /// than two writes").
  uint32_t WriteThreshold = 2;
  /// Pages with at most this many sampled writes never get detailed page
  /// tracking (the stage-1 susceptibility filter, one level up).
  static constexpr uint32_t PageWriteThreshold = 2;
  /// Run the line-granularity (cache false sharing) stage.
  bool TrackLines = true;
  /// Run the page-granularity (NUMA / remote-DRAM sharing) stage; requires
  /// attachPageTable.
  bool TrackPages = false;
  /// Byte budget for the line shadow table (0 = unbounded). When set, cold
  /// grains are evicted at epoch boundaries until footprintBytes() fits.
  size_t LineShadowBudgetBytes = 0;
  /// Byte budget for the page shadow table (0 = unbounded).
  size_t PageShadowBudgetBytes = 0;
};

/// Counters describing what the detector has seen.
struct DetectorStats {
  uint64_t SamplesSeen = 0;
  uint64_t SamplesFiltered = 0; // outside monitored regions
  uint64_t SamplesRecorded = 0; // reached detailed line tracking
  uint64_t Invalidations = 0;
  // Page-granularity stage (zero unless TrackPages).
  uint64_t PageSamplesRecorded = 0; // reached detailed page tracking
  uint64_t PageInvalidations = 0;   // cross-node invalidations
  uint64_t RemoteSamples = 0;       // recorded from a non-home node
};

/// Sample-driven false-sharing detection state machine.
class Detector {
public:
  Detector(const CacheGeometry &Geometry, ShadowMemory &Shadow,
           const DetectorConfig &Config)
      : Shadow(Shadow), Config(Config), LineMask(Geometry.lineSize() - 1) {}

  /// Enables the page-granularity stage: samples additionally update
  /// \p PageTable, with thread ids mapped to NUMA nodes through
  /// \p Topology. Both must outlive the detector. Call before ingestion
  /// starts (not thread-safe against concurrent handleBatch).
  void attachPageTable(PageTable &Table, const NumaTopology &T) {
    Pages = &Table;
    Topology = &T;
  }

  /// Processes \p Count samples through the staged batch pipeline, in
  /// chunks of pmu::SampleBatchCapacity: one coverage pass over the chunk,
  /// then per grain stage a software-prefetched stage-1 write-counter
  /// sweep, a branchless susceptibility filter that keeps cold samples
  /// from ever dereferencing grain details, a grouping of the survivors by
  /// grain, and distance-pipelined lookup + record sweeps over the grains
  /// (only the samples that reach the record sweep are decoded into grain
  /// coordinates). A grain hit several times in one chunk records the
  /// whole run with one fold of its summed statistics, and the detector's
  /// counters are added once per chunk. Every grain ends exactly
  /// as recording the samples one by one in order would leave it, so how a
  /// stream is split into batches never shows. \p InParallelPhase reflects
  /// the phase tracker's state at delivery time; \p AccessBytes is the
  /// access width for word marking, shared by the batch. Thread-safe:
  /// concurrent ingesters may deliver batches simultaneously. What each
  /// grain recorded shows in stats().
  void handleBatch(const pmu::Sample *Samples, size_t Count,
                   bool InParallelPhase, uint8_t AccessBytes = 4);

  /// Snapshot of the counters (consistent once ingestion stops).
  DetectorStats stats() const {
    DetectorStats Result;
    Result.SamplesSeen = SamplesSeen.load(std::memory_order_relaxed);
    Result.SamplesFiltered = SamplesFiltered.load(std::memory_order_relaxed);
    Result.SamplesRecorded = SamplesRecorded.load(std::memory_order_relaxed);
    Result.Invalidations = Invalidations.load(std::memory_order_relaxed);
    Result.PageSamplesRecorded =
        PageSamplesRecorded.load(std::memory_order_relaxed);
    Result.PageInvalidations =
        PageInvalidations.load(std::memory_order_relaxed);
    Result.RemoteSamples = RemoteSamples.load(std::memory_order_relaxed);
    return Result;
  }

  /// The shadow memory the detector writes into.
  ShadowMemory &shadow() { return Shadow; }
  const ShadowMemory &shadow() const { return Shadow; }

  /// The attached page table (nullptr when page tracking is off).
  PageTable *pageTable() { return Pages; }
  const PageTable *pageTable() const { return Pages; }

private:
  struct LineStage;
  struct PageStage;

  /// One grain stage's pipeline over a chunk: stage-1 write counting with
  /// prefetch plus stage-specific preparation (runs before the phase gate
  /// — e.g. first-touch home publication), the parallel-phase gate, the
  /// branchless susceptibility filter, grouping by grain, and the
  /// prefetched lookup, materialization and per-grain record sweeps.
  template <typename Stage>
  void runGrainStageBatch(Stage &S, const pmu::Sample *Samples, size_t Count,
                          const uint8_t *Covered, bool InParallelPhase);

  ShadowMemory &Shadow;
  DetectorConfig Config;
  PageTable *Pages = nullptr;
  const NumaTopology *Topology = nullptr;
  std::atomic<uint64_t> SamplesSeen{0};
  std::atomic<uint64_t> SamplesFiltered{0};
  std::atomic<uint64_t> SamplesRecorded{0};
  std::atomic<uint64_t> Invalidations{0};
  std::atomic<uint64_t> PageSamplesRecorded{0};
  std::atomic<uint64_t> PageInvalidations{0};
  std::atomic<uint64_t> RemoteSamples{0};
  /// lineSize() - 1: both the offset-in-line mask and the last valid byte
  /// offset a straddling access is clamped to.
  uint64_t LineMask;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_DETECTOR_H
