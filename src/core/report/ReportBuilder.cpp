//===- core/report/ReportBuilder.cpp - Incremental report builder ---------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/report/ReportBuilder.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::core;

/// Aggregation bucket: one reportable object (heap object or global) plus
/// everything observed on its cache lines.
struct ReportBuilder::ObjectAggregate {
  ReportedObject Object;
  ObjectAccessProfile Profile;
  uint32_t Lines = 0;
  uint64_t SharedWordAccesses = 0;
  uint64_t TotalWordAccesses = 0;
  uint32_t FalseLines = 0, TrueLines = 0, MixedLines = 0, SharedLines = 0;
  /// The ReportTableRows hottest touched words, as a heap under
  /// hotterFirst: the coldest kept word is at the front.
  std::vector<WordReportEntry> Words;
  /// Touched words, kept or not.
  uint64_t WordsTotal = 0;
  uint32_t MaxThreadsOnLine = 0;
};

ReportBuilder::ReportBuilder(const runtime::HeapAllocator &Heap,
                             const runtime::GlobalRegistry &Globals,
                             const runtime::CallsiteTable &Callsites,
                             const CacheGeometry &Geometry,
                             const ReportGate &Gate)
    : Heap(Heap), Globals(Globals), Callsites(Callsites), Geometry(Geometry),
      Gate(Gate) {}

ReportBuilder::~ReportBuilder() = default;

ReportBuilder::ObjectAggregate &ReportBuilder::aggregateFor(uint64_t LineBase) {
  // Key: the object start address packed with a 2-bit tag in the top bits —
  // heap object start (tag 0), global start (tag 1), or raw line base
  // (tag 2) for unattributed heap-range lines. Addresses are user-space
  // (< 2^48), so the tag can never collide with address bits.
  auto PackKey = [](int Tag, uint64_t Start) {
    return (static_cast<uint64_t>(Tag) << 62) | Start;
  };

  if (const runtime::HeapObject *Object = Heap.objectAt(LineBase)) {
    ObjectAggregate &Aggregate = Aggregates[PackKey(0, Object->Start)];
    if (Aggregate.Lines == 0) {
      Aggregate.Object.IsHeap = true;
      Aggregate.Object.Start = Object->Start;
      Aggregate.Object.Size = Object->Size;
      Aggregate.Object.RequestedSize = Object->RequestedSize;
      Aggregate.Object.AllocatedBy = Object->Owner;
      Aggregate.Object.CallsiteFrames = Callsites.get(Object->Site).Frames;
    }
    return Aggregate;
  }
  if (const runtime::GlobalVariable *Var = Globals.globalAt(LineBase)) {
    ObjectAggregate &Aggregate = Aggregates[PackKey(1, Var->Start)];
    if (Aggregate.Lines == 0) {
      Aggregate.Object.IsHeap = false;
      Aggregate.Object.GlobalName = Var->Name;
      Aggregate.Object.Start = Var->Start;
      Aggregate.Object.Size = Var->Size;
    }
    return Aggregate;
  }
  // Line inside the arena but before any object (allocator metadata or a
  // freed region): report it as an anonymous range.
  ObjectAggregate &Aggregate = Aggregates[PackKey(2, LineBase)];
  if (Aggregate.Lines == 0) {
    Aggregate.Object.IsHeap = Heap.covers(LineBase);
    Aggregate.Object.Start = LineBase;
    Aggregate.Object.Size = Geometry.lineSize();
  }
  return Aggregate;
}

void ReportBuilder::addLine(const GrainSnapshot &Line) {
  if (Line.Accesses == 0)
    return;
  ObjectAggregate &Aggregate = aggregateFor(Line.Base);

  // The snapshot's one consistent view of each lock-free structure serves
  // every use below: buckets feed classification and the per-word entries,
  // threads feed the per-thread merge and the classifier's distinct-thread
  // count.
  const std::vector<WordStats> &Words = Line.Buckets;
  const std::vector<ThreadLineStats> &LineThreads = Line.Threads;

  ++Aggregate.Lines;
  Aggregate.Profile.SampledAccesses += Line.Accesses;
  Aggregate.Profile.SampledWrites += Line.Writes;
  Aggregate.Profile.SampledCycles += Line.Cycles;
  Aggregate.Profile.Invalidations += Line.Invalidations;

  for (const ThreadLineStats &Stats : LineThreads) {
    auto &PerThread = Aggregate.Profile.PerThread;
    auto It = std::lower_bound(PerThread.begin(), PerThread.end(), Stats.Tid,
                               [](const ThreadLineStats &S, ThreadId T) {
                                 return S.Tid < T;
                               });
    if (It != PerThread.end() && It->Tid == Stats.Tid) {
      It->Accesses += Stats.Accesses;
      It->Cycles += Stats.Cycles;
    } else {
      PerThread.insert(It, Stats);
    }
  }

  LineClassification Verdict =
      classifySharing(Words, static_cast<uint32_t>(LineThreads.size()));
  Aggregate.SharedWordAccesses += Verdict.SharedWordAccesses;
  Aggregate.TotalWordAccesses +=
      Verdict.SharedWordAccesses + Verdict.PrivateWordAccesses;
  Aggregate.MaxThreadsOnLine =
      std::max(Aggregate.MaxThreadsOnLine, Verdict.Threads);
  switch (Verdict.Kind) {
  case SharingKind::FalseSharing:
    ++Aggregate.FalseLines;
    ++Aggregate.SharedLines;
    break;
  case SharingKind::TrueSharing:
    ++Aggregate.TrueLines;
    ++Aggregate.SharedLines;
    break;
  case SharingKind::Mixed:
    ++Aggregate.MixedLines;
    ++Aggregate.SharedLines;
    break;
  case SharingKind::NotShared:
    break;
  }

  // Per-word entries, offsets relative to the object. Only the hottest
  // ReportTableRows are kept: an object's touched words can number in the
  // thousands, and an insignificant object's table is never printed.
  for (size_t W = 0; W < Words.size(); ++W) {
    if (Words[W].accesses() == 0)
      continue;
    WordReportEntry Entry;
    uint64_t WordAddress = Line.Base + W * WordSize;
    Entry.Offset = WordAddress >= Aggregate.Object.Start
                       ? WordAddress - Aggregate.Object.Start
                       : 0;
    Entry.Reads = Words[W].Reads;
    Entry.Writes = Words[W].Writes;
    Entry.Cycles = Words[W].Cycles;
    Entry.FirstThread = Words[W].FirstThread;
    Entry.MultiThread = Words[W].MultiThread;
    ++Aggregate.WordsTotal;
    std::vector<WordReportEntry> &Kept = Aggregate.Words;
    if (Kept.size() < ReportTableRows) {
      Kept.push_back(Entry);
      std::push_heap(Kept.begin(), Kept.end(), hotterFirst<WordReportEntry>);
    } else if (hotterFirst(Entry, Kept.front())) {
      std::pop_heap(Kept.begin(), Kept.end(), hotterFirst<WordReportEntry>);
      Kept.back() = Entry;
      std::push_heap(Kept.begin(), Kept.end(), hotterFirst<WordReportEntry>);
    }
  }
}

std::pair<FalseSharingReport, bool>
ReportBuilder::buildReport(const ObjectAggregate &Aggregate,
                           const Assessor &Assess, uint64_t AppRuntime) const {
  FalseSharingReport Report;
  Report.Object = Aggregate.Object;
  Report.LinesTracked = Aggregate.Lines;
  Report.SampledAccesses = Aggregate.Profile.SampledAccesses;
  Report.SampledWrites = Aggregate.Profile.SampledWrites;
  Report.Invalidations = Aggregate.Profile.Invalidations;
  Report.LatencyCycles = Aggregate.Profile.SampledCycles;
  Report.ThreadsObserved =
      static_cast<uint32_t>(Aggregate.Profile.PerThread.size());
  Report.SharedWordFraction =
      Aggregate.TotalWordAccesses
          ? static_cast<double>(Aggregate.SharedWordAccesses) /
                static_cast<double>(Aggregate.TotalWordAccesses)
          : 0.0;

  // Object-level sharing verdict from the per-line verdicts.
  if (Aggregate.SharedLines == 0)
    Report.Kind = SharingKind::NotShared;
  else if (Aggregate.FalseLines > 0 && Aggregate.TrueLines == 0 &&
           Aggregate.MixedLines == 0)
    Report.Kind = SharingKind::FalseSharing;
  else if (Aggregate.TrueLines > 0 && Aggregate.FalseLines == 0 &&
           Aggregate.MixedLines == 0)
    Report.Kind = SharingKind::TrueSharing;
  else
    Report.Kind = SharingKind::Mixed;

  Report.Impact = Assess.assess(Aggregate.Profile, AppRuntime);
  bool Significant =
      (Report.Kind == SharingKind::FalseSharing ||
       Report.Kind == SharingKind::Mixed) &&
      Report.Invalidations >= Gate.MinInvalidations &&
      Report.Impact.ImprovementFactor >= Gate.MinImprovementFactor;

  // The padding-guidance table, for significant objects only. Word
  // offsets within one object are distinct, so hotterFirst is a strict
  // order and the kept rows are the hottest ReportTableRows.
  Report.WordsTotal = Aggregate.WordsTotal;
  if (Significant) {
    Report.Words = Aggregate.Words;
    std::sort_heap(Report.Words.begin(), Report.Words.end(),
                   hotterFirst<WordReportEntry>);
  }
  return {std::move(Report), Significant};
}

ReportBuilder::Output ReportBuilder::finalize(const Assessor &Assess,
                                              uint64_t AppRuntime,
                                              ReportSink *Sink) {
  std::vector<std::pair<FalseSharingReport, bool>> Instances;
  Instances.reserve(Aggregates.size());
  for (const auto &[Key, Aggregate] : Aggregates)
    Instances.push_back(buildReport(Aggregate, Assess, AppRuntime));

  std::sort(Instances.begin(), Instances.end(),
            [](const auto &A, const auto &B) {
              if (A.first.Impact.ImprovementFactor !=
                  B.first.Impact.ImprovementFactor)
                return A.first.Impact.ImprovementFactor >
                       B.first.Impact.ImprovementFactor;
              return A.first.Object.Start < B.first.Object.Start;
            });

  Output Result;
  Result.AllInstances.reserve(Instances.size());
  for (auto &[Report, Significant] : Instances) {
    if (Sink)
      Sink->finding(Report, Significant);
    if (Significant)
      Result.Reports.push_back(Report);
    Result.AllInstances.push_back(std::move(Report));
  }
  return Result;
}
