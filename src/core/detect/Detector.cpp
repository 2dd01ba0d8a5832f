//===- core/detect/Detector.cpp - FS detection over samples ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/detect/Detector.h"

#include "support/Assert.h"
#include "support/Prefetch.h"

#include <algorithm>
#include <type_traits>

using namespace cheetah;
using namespace cheetah::core;

namespace {

/// How many iterations ahead the batched sweeps issue their software
/// prefetches: far enough that a DRAM miss has left by the time the demand
/// access arrives, near enough that the prefetched line is still cached.
constexpr size_t PrefetchDistance = 8;

/// Terminates a grain's chain of kept samples in BatchScratch::Next.
constexpr uint32_t EndOfRun = ~uint32_t(0);

/// Per-ingesting-thread scratch behind the staged batch pipeline: the
/// chunk's coverage flags plus the per-stage working arrays. Thread-local
/// so concurrent batch deliveries never share it and no batch allocates.
struct BatchScratch {
  /// Samples per chunk: handleBatch cuts larger batches.
  static constexpr size_t Capacity = pmu::SampleBatchCapacity;
  /// Open-addressed grain map slots: twice the chunk size keeps the load
  /// factor at or below one half.
  static constexpr unsigned SlotBits = 9;
  static_assert((size_t(1) << SlotBits) >= 2 * Capacity);

  /// 1 if the sample address falls inside a monitored region, else 0.
  uint8_t Covered[Capacity];
  /// Post-sample stage-1 write counts (0 for uncovered samples).
  uint32_t Writes[Capacity];
  /// Indices of samples that survived the susceptibility filter.
  uint32_t Kept[Capacity];
  /// Page-stage prepare results (node of the accessing thread, settled
  /// first-touch home).
  NodeId Node[Capacity];
  NodeId Home[Capacity];

  /// Survivors grouped by grain. Groups are numbered in first-appearance
  /// order; each chains its survivors (indices into Kept) in batch order
  /// from Head through Next to EndOfRun.
  uint32_t Next[Capacity];
  uint32_t Head[Capacity];
  uint32_t Tail[Capacity];
  /// Per group: the grain's detail pointer (nullptr until materialized).
  void *Infos[Capacity];

  /// Grain base address -> group, valid only where Stamp matches the
  /// current grouping pass, so the map is not cleared between passes.
  struct GrainSlot {
    uint64_t Grain = 0;
    uint32_t Stamp = 0;
    uint32_t Group = 0;
  };
  GrainSlot Slots[size_t(1) << SlotBits];
  uint32_t Stamp = 0;
};

BatchScratch &batchScratch() {
  static thread_local BatchScratch Scratch;
  return Scratch;
}

/// The calling thread's reusable run accumulator for one grain kind.
template <typename RunT> RunT &grainRun() {
  static thread_local RunT Run;
  return Run;
}

/// Groups the first \p NumKept survivors in \p Scratch by grain, keeping
/// batch order within each grain. \returns the number of groups.
template <typename TableT>
size_t groupByGrain(const TableT &Table, const pmu::Sample *Samples,
                    BatchScratch &Scratch, size_t NumKept) {
  if (++Scratch.Stamp == 0) {
    // The stamp wrapped: forget every slot once, then start again at 1.
    for (BatchScratch::GrainSlot &Slot : Scratch.Slots)
      Slot.Stamp = 0;
    Scratch.Stamp = 1;
  }
  constexpr uint64_t Mask = (uint64_t(1) << BatchScratch::SlotBits) - 1;
  size_t NumGroups = 0;
  for (size_t J = 0; J < NumKept; ++J) {
    uint64_t Grain = Table.grainBase(Samples[Scratch.Kept[J]].Address);
    // Fibonacci hashing: the product's top bits mix every address bit.
    uint64_t Index =
        (Grain * 0x9e3779b97f4a7c15ull) >> (64 - BatchScratch::SlotBits);
    BatchScratch::GrainSlot *Slot = &Scratch.Slots[Index];
    while (Slot->Stamp == Scratch.Stamp && Slot->Grain != Grain) {
      Index = (Index + 1) & Mask;
      Slot = &Scratch.Slots[Index];
    }
    Scratch.Next[J] = EndOfRun;
    if (Slot->Stamp != Scratch.Stamp) {
      *Slot = {Grain, Scratch.Stamp, static_cast<uint32_t>(NumGroups)};
      Scratch.Head[NumGroups] = static_cast<uint32_t>(J);
      Scratch.Tail[NumGroups] = static_cast<uint32_t>(J);
      ++NumGroups;
      continue;
    }
    uint32_t Group = Slot->Group;
    Scratch.Next[Scratch.Tail[Group]] = static_cast<uint32_t>(J);
    Scratch.Tail[Group] = static_cast<uint32_t>(J);
  }
  return NumGroups;
}

} // namespace

/// The line grain stage: actors are threads, buckets are the line's 4-byte
/// words, and an access wider than a word spans several buckets.
struct Detector::LineStage {
  Detector &D;
  /// The batch's access width in bytes (a width of 0 counts as 1).
  uint64_t AccessBytes;

  struct Decoded {
    ThreadId Actor;
    uint64_t Bucket;
    uint64_t Span;
    LineAccessContext Ctx;
  };

  ShadowMemory &table() { return D.Shadow; }
  uint32_t threshold() const { return D.Config.WriteThreshold; }

  // Pipeline hooks: stage-1 state to pull ahead of the counter sweep,
  // per-sample preparation (none at line grain), and the line coordinates,
  // computed only for the samples that reach the record sweep.
  void prefetchStage1(uint64_t Address) { D.Shadow.prefetchWriteCounter(Address); }
  void prepareAt(size_t, const pmu::Sample &) {}
  Decoded decodeAt(size_t, const pmu::Sample &Sample) {
    uint64_t Offset = Sample.Address & D.LineMask;
    uint64_t Word = Offset / WordSize;
    // Clamp the access's last byte to the line end: a straddling access
    // marks words only within its first line.
    uint64_t LastByte = std::min(Offset + AccessBytes - 1, D.LineMask);
    return {Sample.Tid, Word, LastByte / WordSize - Word + 1, {}};
  }

  // Tallies for one stage call, published to the detector's shared
  // counters once by commit().
  uint64_t Recorded = 0;
  uint64_t Invalidations = 0;

  void tally(const Decoded &) { ++Recorded; }
  void commit() {
    if (Invalidations)
      D.Invalidations.fetch_add(Invalidations, std::memory_order_relaxed);
    if (Recorded)
      D.SamplesRecorded.fetch_add(Recorded, std::memory_order_relaxed);
  }
};

/// The page grain stage: actors are NUMA nodes, buckets are the page's
/// cache lines, and preparation publishes the first-touch home — on every
/// covered sample regardless of phase, exactly like the OS placement
/// policy being modeled.
struct Detector::PageStage {
  Detector &D;
  /// Preparation results, stored per sample index (the scratch Node/Home
  /// arrays) so decodeAt can run in a later sweep.
  NodeId *Nodes;
  NodeId *Homes;

  struct Decoded {
    NodeId Actor;
    uint64_t Bucket;
    uint64_t Span;
    PageAccessContext Ctx;
  };

  PageTable &table() { return *D.Pages; }
  uint32_t threshold() const { return DetectorConfig::PageWriteThreshold; }

  // Pipeline hooks. Preparation (first-touch home publication) runs in the
  // stage-1 sweep for every covered sample regardless of phase: homes are a
  // placement property, not a sharing observation.
  void prefetchStage1(uint64_t Address) {
    D.Pages->prefetchWriteCounter(Address);
    D.Pages->prefetchHome(Address);
  }
  void prepareAt(size_t I, const pmu::Sample &Sample) {
    Nodes[I] = D.Topology->nodeOf(Sample.Tid);
    Homes[I] = D.Pages->noteTouch(Sample.Address, Nodes[I]);
  }
  Decoded decodeAt(size_t I, const pmu::Sample &Sample) {
    NodeId Node = Nodes[I], Home = Homes[I];
    bool Remote = Node != Home;
    // Which node pair the sample crossed: the distance evidence behind the
    // remoteByDistance report breakdown and the distance-weighted page
    // assessment. Local samples cross nothing.
    uint32_t Distance = Remote ? D.Topology->distance(Node, Home) : 0;
    return {Node, D.Pages->lineIndexInPage(Sample.Address), 1,
            {Remote, Distance}};
  }

  // Tallies for one stage call, published to the detector's shared
  // counters once by commit().
  uint64_t Recorded = 0;
  uint64_t Invalidations = 0;
  uint64_t Remote = 0;

  void tally(const Decoded &A) {
    ++Recorded;
    Remote += A.Ctx.Remote;
  }
  void commit() {
    if (Invalidations)
      D.PageInvalidations.fetch_add(Invalidations, std::memory_order_relaxed);
    if (Remote)
      D.RemoteSamples.fetch_add(Remote, std::memory_order_relaxed);
    if (Recorded)
      D.PageSamplesRecorded.fetch_add(Recorded, std::memory_order_relaxed);
  }
};

template <typename Stage>
void Detector::runGrainStageBatch(Stage &S, const pmu::Sample *Samples,
                                  size_t Count, const uint8_t *Covered,
                                  bool InParallelPhase) {
  using InfoT = typename std::remove_reference_t<decltype(S.table())>::Info;
  auto &Table = S.table();
  BatchScratch &Scratch = batchScratch();

  // Stage-1 sweep: write counters (and stage preparation) for every
  // covered sample, with the counter slots software-prefetched a fixed
  // distance ahead — the walk is random-address, so without the prefetch
  // each miss would serialize behind the previous one.
  for (size_t I = 0; I < Count; ++I) {
    size_t Ahead = I + PrefetchDistance;
    if (Ahead < Count && Covered[Ahead])
      S.prefetchStage1(Samples[Ahead].Address);
    Scratch.Writes[I] = 0;
    if (!Covered[I])
      continue;
    const pmu::Sample &Sample = Samples[I];
    Scratch.Writes[I] = Sample.IsWrite ? Table.noteWrite(Sample.Address)
                                       : Table.writeCount(Sample.Address);
    S.prepareAt(I, Sample);
  }

  if (!InParallelPhase)
    return;

  // Branchless stage-1 filter: compact the survivors' indices without a
  // single data-dependent branch, and without loading any detail pointer —
  // cold samples never dereference the shadow. The count-only predicate is
  // exactly the detail-or-threshold check because write counts are
  // monotone: a grain's detail exists iff some earlier sample already saw
  // its count above the threshold.
  const uint32_t Threshold = S.threshold();
  size_t NumKept = 0;
  for (size_t I = 0; I < Count; ++I) {
    Scratch.Kept[NumKept] = static_cast<uint32_t>(I);
    NumKept += Covered[I] &
               static_cast<uint8_t>(Scratch.Writes[I] > Threshold);
  }

  // Grouping sweep: chain the survivors by grain, in batch order.
  size_t NumGroups = groupByGrain(Table, Samples, Scratch, NumKept);

  // Lookup sweep: resolve each grain's detail pointer once, with the slot
  // array prefetched ahead (distance-pipelined — the first few iterations
  // pay their miss, the rest overlap).
  for (size_t G = 0; G < NumGroups; ++G) {
    size_t Ahead = G + PrefetchDistance;
    if (Ahead < NumGroups)
      Table.prefetchDetail(
          Samples[Scratch.Kept[Scratch.Head[Ahead]]].Address);
    Scratch.Infos[G] =
        Table.detail(Samples[Scratch.Kept[Scratch.Head[G]]].Address);
  }

  // Record sweep, one grain at a time, with the grain records prefetched
  // ahead. A grain's state depends only on its own access sequence, so
  // taking grains in first-appearance order while keeping batch order
  // within each grain leaves every grain exactly as recording the samples
  // one by one would. A grain with one survivor records straight into its
  // atomics; a run of several is summed in this thread's accumulator and
  // folded in once, so contended grains take one set of atomic updates per
  // run.
  auto &Run = grainRun<typename InfoT::Run>();
  for (size_t G = 0; G < NumGroups; ++G) {
    size_t Ahead = G + PrefetchDistance;
    if (Ahead < NumGroups && Scratch.Infos[Ahead])
      support::prefetchForWrite(Scratch.Infos[Ahead]);
    uint32_t J = Scratch.Head[G];
    auto *Info = static_cast<InfoT *>(Scratch.Infos[G]);
    if (!Info)
      Info = &Table.materializeDetail(Samples[Scratch.Kept[J]].Address);
    if (Scratch.Next[J] == EndOfRun) {
      size_t I = Scratch.Kept[J];
      const pmu::Sample &Sample = Samples[I];
      auto Decoded = S.decodeAt(I, Sample);
      S.Invalidations += Info->record(
          Sample.Tid, Decoded.Actor,
          Sample.IsWrite ? AccessKind::Write : AccessKind::Read,
          Decoded.Bucket, Decoded.Span, Sample.LatencyCycles, Decoded.Ctx);
      S.tally(Decoded);
      continue;
    }
    Run.begin(Info->bucketCount());
    for (; J != EndOfRun; J = Scratch.Next[J]) {
      size_t I = Scratch.Kept[J];
      const pmu::Sample &Sample = Samples[I];
      auto Decoded = S.decodeAt(I, Sample);
      Run.add(Sample.Tid, Decoded.Actor,
              Sample.IsWrite ? AccessKind::Write : AccessKind::Read,
              Decoded.Bucket, Decoded.Span, Sample.LatencyCycles, Decoded.Ctx);
      S.tally(Decoded);
    }
    S.Invalidations += Info->recordRun(Run);
  }
  S.commit();
}

void Detector::handleBatch(const pmu::Sample *Samples, size_t Count,
                           bool InParallelPhase, uint8_t AccessBytes) {
  BatchScratch &Scratch = batchScratch();
  for (size_t Offset = 0; Offset < Count; Offset += BatchScratch::Capacity) {
    size_t Chunk = std::min(Count - Offset, BatchScratch::Capacity);
    const pmu::Sample *ChunkSamples = Samples + Offset;

    // Coverage pass: which samples fall inside a monitored region (the
    // page table's coverage is the shadow's by the attach contract).
    SamplesSeen.fetch_add(Chunk, std::memory_order_relaxed);
    uint64_t CoveredCount = 0;
    for (size_t I = 0; I < Chunk; ++I) {
      Scratch.Covered[I] = Shadow.covers(ChunkSamples[I].Address);
      CoveredCount += Scratch.Covered[I];
    }
    if (CoveredCount != Chunk)
      SamplesFiltered.fetch_add(Chunk - CoveredCount,
                                std::memory_order_relaxed);

    if (Pages && Config.TrackPages) {
      PageStage Stage{*this, Scratch.Node, Scratch.Home};
      runGrainStageBatch(Stage, ChunkSamples, Chunk, Scratch.Covered,
                         InParallelPhase);
    }
    if (Config.TrackLines) {
      LineStage Stage{*this, AccessBytes ? AccessBytes : uint64_t(1)};
      runGrainStageBatch(Stage, ChunkSamples, Chunk, Scratch.Covered,
                         InParallelPhase);
    }
  }
}
