//===- tests/PerSampleReference.h - One-sample-at-a-time oracle -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detector's semantics restated one sample at a time, written only
/// against the public ShadowMemory / PageTable / GrainInfo API: the state
/// Detector::handleBatch must leave behind however a stream is split into
/// batches. For each covered sample, at each active grain (page first, then
/// line, like the detector): count the write in the stage-1 counter (reads
/// only look at it), publish the first-touch home (page grain, in every
/// phase), stop outside parallel phases, materialize the grain once its
/// count passes the threshold, and record the access.
///
/// BatchDecodeTest (its line decode edge cases included), PropertyTest's
/// BatchDecodeFuzzTest and GrainRunFuzzTest, and ThreadedIngestTest's
/// serial references compare handleBatch against it.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_TESTS_PERSAMPLEREFERENCE_H
#define CHEETAH_TESTS_PERSAMPLEREFERENCE_H

#include "core/detect/Detector.h"
#include "core/detect/PageTable.h"
#include "core/detect/ShadowMemory.h"
#include "mem/NumaTopology.h"
#include "pmu/Sample.h"

#include <cstdint>

namespace cheetah {
namespace test {

/// Single-threaded per-sample detector over caller-owned tables.
class PerSampleReference {
public:
  PerSampleReference(core::ShadowMemory &Shadow,
                     const core::DetectorConfig &Config)
      : Shadow(Shadow), Config(Config) {}

  /// Mirrors Detector::attachPageTable.
  void attachPageTable(core::PageTable &Table, const NumaTopology &T) {
    Pages = &Table;
    Topology = &T;
  }

  /// Processes one sample; stats() counts what each grain recorded.
  void handleSample(const pmu::Sample &Sample, bool InParallelPhase,
                    uint8_t AccessBytes = 4) {
    ++Stats.SamplesSeen;
    if (!Shadow.covers(Sample.Address)) {
      ++Stats.SamplesFiltered;
      return;
    }
    if (Pages && Config.TrackPages)
      recordPage(Sample, InParallelPhase);
    if (Config.TrackLines)
      recordLine(Sample, InParallelPhase, AccessBytes);
  }

  /// The counters a Detector fed the same stream would report.
  core::DetectorStats stats() const { return Stats; }

private:
  static AccessKind kindOf(const pmu::Sample &Sample) {
    return Sample.IsWrite ? AccessKind::Write : AccessKind::Read;
  }

  /// Stage 1 and the gates shared by both grains. \returns the grain's
  /// detail, materialized if the sample makes it susceptible, or nullptr
  /// when the sample stops short of detailed tracking.
  template <typename TableT>
  typename TableT::Info *detailFor(TableT &Table, const pmu::Sample &Sample,
                                   uint32_t Threshold, bool InParallelPhase) {
    uint32_t Writes = Sample.IsWrite ? Table.noteWrite(Sample.Address)
                                     : Table.writeCount(Sample.Address);
    if (!InParallelPhase)
      return nullptr;
    typename TableT::Info *Info = Table.detail(Sample.Address);
    if (!Info && Writes > Threshold)
      Info = &Table.materializeDetail(Sample.Address);
    return Info;
  }

  void recordLine(const pmu::Sample &Sample, bool InParallelPhase,
                  uint8_t AccessBytes) {
    core::CacheLineInfo *Info =
        detailFor(Shadow, Sample, Config.WriteThreshold, InParallelPhase);
    if (!Info)
      return;
    // Words from the access's first byte to its last, clamped at the line
    // end: a straddling access marks words only within its first line.
    const CacheGeometry &Geometry = Shadow.geometry();
    uint64_t Word = Geometry.wordInLine(Sample.Address);
    uint64_t LastByte = Geometry.offsetInLine(Sample.Address) +
                        (AccessBytes ? AccessBytes : 1) - 1;
    if (LastByte >= Geometry.lineSize())
      LastByte = Geometry.lineSize() - 1;
    Stats.Invalidations +=
        Info->record(Sample.Tid, Sample.Tid, kindOf(Sample), Word,
                     LastByte / WordSize - Word + 1, Sample.LatencyCycles);
    ++Stats.SamplesRecorded;
  }

  void recordPage(const pmu::Sample &Sample, bool InParallelPhase) {
    // The home is published whatever the phase: placement happens on first
    // touch.
    NodeId Node = Topology->nodeOf(Sample.Tid);
    NodeId Home = Pages->noteTouch(Sample.Address, Node);
    core::PageInfo *Info =
        detailFor(*Pages, Sample, core::DetectorConfig::PageWriteThreshold,
                  InParallelPhase);
    if (!Info)
      return;
    bool Remote = Node != Home;
    uint32_t Distance = Remote ? Topology->distance(Node, Home) : 0;
    Stats.PageInvalidations +=
        Info->record(Sample.Tid, Node, kindOf(Sample),
                     Pages->lineIndexInPage(Sample.Address), 1,
                     Sample.LatencyCycles, {Remote, Distance});
    ++Stats.PageSamplesRecorded;
    Stats.RemoteSamples += Remote;
  }

  core::ShadowMemory &Shadow;
  core::DetectorConfig Config;
  core::PageTable *Pages = nullptr;
  const NumaTopology *Topology = nullptr;
  core::DetectorStats Stats;
};

} // namespace test
} // namespace cheetah

#endif // CHEETAH_TESTS_PERSAMPLEREFERENCE_H
