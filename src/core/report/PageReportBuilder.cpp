//===- core/report/PageReportBuilder.cpp - Page finding builder -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/report/PageReportBuilder.h"

#include <algorithm>
#include <map>

using namespace cheetah;
using namespace cheetah::core;

PageReportBuilder::PageReportBuilder(const runtime::HeapAllocator &Heap,
                                     const runtime::GlobalRegistry &Globals,
                                     const runtime::CallsiteTable &Callsites,
                                     const NumaTopology &Topology,
                                     const CacheGeometry &Geometry)
    : Heap(Heap), Globals(Globals), Callsites(Callsites), Topology(Topology),
      Geometry(Geometry) {}

namespace {
/// Whether \p Report passes the page gate. Reads only NodesObserved,
/// Invalidations and RemoteAccesses.
bool significant(const PageSharingReport &Report) {
  bool MultiNodeSharing = Report.NodesObserved >= 2 &&
                          Report.Invalidations >= PageMinInvalidations;
  // The placement gate is for pages *without* node contention: a
  // multi-node page below the invalidation bar is insignificant sharing,
  // not a misplacement finding.
  bool RemotePlacement = Report.NodesObserved < 2 &&
                         Report.RemoteAccesses >= PageMinRemoteAccesses;
  return MultiNodeSharing || RemotePlacement;
}
} // namespace

PageReportBuilder::PendingPage
PageReportBuilder::buildReport(const GrainSnapshot &Page, NodeId Home,
                               const PageNumaEvidence &Numa) const {
  PendingPage Pending;
  PageSharingReport &Report = Pending.Report;
  Report.PageBase = Page.Base;
  Report.PageSize = Topology.pageSize();
  Report.HomeNode = Home;
  Report.SampledAccesses = Page.Accesses;
  Report.SampledWrites = Page.Writes;
  Report.RemoteAccesses = Numa.RemoteAccesses;
  Report.Invalidations = Page.Invalidations;
  Report.LatencyCycles = Page.Cycles;
  Report.RemoteLatencyCycles = Numa.RemoteCycles;
  Report.RemoteByDistance = Numa.RemoteByDistance;
  Report.NodesObserved = static_cast<uint32_t>(Numa.NodesObserved);

  // The snapshot's one consistent view serves classification and the
  // per-line entries. The classifier is the word-granularity one applied
  // unchanged: lines are the page's "words", nodes are its "threads".
  const std::vector<WordStats> &Lines = Page.Buckets;
  LineClassification Verdict = classifySharing(Lines, Report.NodesObserved);
  Report.Kind = Verdict.Kind;
  Report.SharedLineFraction = Verdict.sharedFraction();
  Pending.Significant = significant(Report);

  // Heap blocks and globals never overlap, so every line that starts
  // inside the last object found belongs to it: each object is looked up
  // and named once per run of lines it covers.
  uint64_t ObjectEnd = 0;
  for (size_t L = 0; L < Lines.size(); ++L) {
    if (Lines[L].accesses() == 0)
      continue;
    ++Report.LinesTotal;
    uint64_t Offset = L << Geometry.lineShift();
    // Only a significant page gets a placement-guidance table.
    if (Pending.Significant) {
      PageLineEntry Entry;
      Entry.Offset = Offset;
      Entry.Reads = Lines[L].Reads;
      Entry.Writes = Lines[L].Writes;
      Entry.Cycles = Lines[L].Cycles;
      Entry.FirstNode = Lines[L].FirstThread; // node id in the thread field
      Entry.MultiNode = Lines[L].MultiThread;
      Report.Lines.push_back(Entry);
    }

    // Every touched line, not only the rows a table keeps, names its
    // owning object, so the finding says what to move, not just a raw
    // page address.
    uint64_t LineAddress = Page.Base + Offset;
    if (LineAddress < ObjectEnd)
      continue;
    std::string Name;
    if (const runtime::HeapObject *Object = Heap.objectAt(LineAddress)) {
      const auto &Frames = Callsites.get(Object->Site).Frames;
      Name = Frames.empty() ? std::string("<heap>") : Frames.front();
      ObjectEnd = Object->end();
    } else if (const runtime::GlobalVariable *Var =
                   Globals.globalAt(LineAddress)) {
      Name = Var->Name;
      ObjectEnd = Var->end();
    }
    if (!Name.empty() &&
        std::find(Report.Objects.begin(), Report.Objects.end(), Name) ==
            Report.Objects.end())
      Report.Objects.push_back(std::move(Name));
  }

  if (Pending.Significant) {
    // The table keeps only its hottest rows.
    size_t Kept = std::min(Report.Lines.size(), ReportTableRows);
    std::partial_sort(Report.Lines.begin(), Report.Lines.begin() + Kept,
                      Report.Lines.end(), hotterFirst<PageLineEntry>);
    Report.Lines.resize(Kept);
  }

  // The per-thread evidence EQ.2 consumes, plus the remote totals the
  // EQ.1 local baseline is derived from.
  Pending.Profile.SampledAccesses = Report.SampledAccesses;
  Pending.Profile.SampledWrites = Report.SampledWrites;
  Pending.Profile.SampledCycles = Report.LatencyCycles;
  Pending.Profile.Invalidations = Report.Invalidations;
  Pending.Profile.RemoteAccesses = Report.RemoteAccesses;
  Pending.Profile.RemoteCycles = Report.RemoteLatencyCycles;
  // The assessment becomes distance-weighted only when distances actually
  // differ; uniform topologies (the binary local/remote model) keep the
  // pre-distance arithmetic — and thus their goldens — bit for bit.
  if (!Topology.uniformRemoteDistances())
    Pending.Profile.RemoteByDistance = Report.RemoteByDistance;
  Pending.Profile.PerThread = Page.Threads;
  return Pending;
}

void PageReportBuilder::addPage(const GrainSnapshot &Page, NodeId Home,
                                const PageNumaEvidence &Numa) {
  if (Page.Accesses == 0)
    return;
  PendingPage Built = buildReport(Page, Home, Numa);
  LocalAccesses += Built.Profile.localAccesses();
  LocalCycles += Built.Profile.localCycles();
  Pending.push_back(std::move(Built));
}

PageReportBuilder::Output PageReportBuilder::finalize(const Assessor &Assess,
                                                      uint64_t AppRuntime,
                                                      ReportSink *Sink) {
  // The unit of *fix* for a page finding is the allocation site's
  // placement policy (page-aligned node-local slots, parallel first
  // touch): fixing it moves every page of the site at once. Assessing a
  // lone page against EQ.4's phase-max composition would predict ~1.0
  // whenever sibling pages keep other threads slow, so pages are grouped
  // by overlapping-object identity and each finding carries the predicted
  // improvement of fixing its whole site — exactly how the line layer
  // aggregates cache lines into objects before assessing.
  std::map<std::string, ObjectAccessProfile> SiteProfiles;
  auto SiteKey = [](const PageSharingReport &Report) {
    if (Report.Objects.empty()) {
      // Constructed and appended: GCC 12 flags `"@" + ...` and string
      // assignment here under -Wrestrict.
      std::string Key(1, '@');
      Key += std::to_string(Report.PageBase);
      return Key;
    }
    std::string Key;
    for (const std::string &Name : Report.Objects) {
      if (!Key.empty())
        Key += "+";
      Key += Name;
    }
    return Key;
  };
  std::vector<std::string> Keys;
  Keys.reserve(Pending.size());
  for (const PendingPage &Page : Pending) {
    Keys.push_back(SiteKey(Page.Report));
    ObjectAccessProfile &Site = SiteProfiles[Keys.back()];
    const ObjectAccessProfile &Profile = Page.Profile;
    Site.SampledAccesses += Profile.SampledAccesses;
    Site.SampledWrites += Profile.SampledWrites;
    Site.SampledCycles += Profile.SampledCycles;
    Site.Invalidations += Profile.Invalidations;
    Site.RemoteAccesses += Profile.RemoteAccesses;
    Site.RemoteCycles += Profile.RemoteCycles;
    for (const RemoteDistanceStats &Bucket : Profile.RemoteByDistance) {
      auto At = std::lower_bound(
          Site.RemoteByDistance.begin(), Site.RemoteByDistance.end(),
          Bucket.Distance,
          [](const RemoteDistanceStats &S, uint32_t D) {
            return S.Distance < D;
          });
      if (At != Site.RemoteByDistance.end() &&
          At->Distance == Bucket.Distance) {
        At->Accesses += Bucket.Accesses;
        At->Cycles += Bucket.Cycles;
      } else {
        Site.RemoteByDistance.insert(At, Bucket);
      }
    }
    for (const ThreadLineStats &Stats : Profile.PerThread) {
      auto It = std::lower_bound(
          Site.PerThread.begin(), Site.PerThread.end(), Stats.Tid,
          [](const ThreadLineStats &S, ThreadId T) { return S.Tid < T; });
      if (It != Site.PerThread.end() && It->Tid == Stats.Tid) {
        It->Accesses += Stats.Accesses;
        It->Cycles += Stats.Cycles;
      } else {
        Site.PerThread.insert(It, Stats);
      }
    }
  }
  // One EQ.2-EQ.4 pass per site, not per page: sibling pages share the
  // assessment by construction.
  std::map<std::string, Assessment> SiteImpacts;
  for (const auto &[Key, Profile] : SiteProfiles)
    SiteImpacts.emplace(Key, Assess.assessPage(Profile, AppRuntime));
  for (size_t I = 0; I < Pending.size(); ++I)
    Pending[I].Report.Impact = SiteImpacts.at(Keys[I]);

  // Highest predicted improvement first (what Cheetah prints), breaking
  // ties by cross-node invalidations, then remote traffic, then the
  // address for determinism.
  std::sort(Pending.begin(), Pending.end(),
            [](const PendingPage &PA, const PendingPage &PB) {
              const PageSharingReport &A = PA.Report;
              const PageSharingReport &B = PB.Report;
              if (A.Impact.ImprovementFactor != B.Impact.ImprovementFactor)
                return A.Impact.ImprovementFactor >
                       B.Impact.ImprovementFactor;
              if (A.Invalidations != B.Invalidations)
                return A.Invalidations > B.Invalidations;
              if (A.RemoteAccesses != B.RemoteAccesses)
                return A.RemoteAccesses > B.RemoteAccesses;
              return A.PageBase < B.PageBase;
            });

  Output Result;
  Result.AllInstances.reserve(Pending.size());
  for (PendingPage &Page : Pending) {
    PageSharingReport &Report = Page.Report;
    if (Sink)
      Sink->pageFinding(Report, Page.Significant);
    if (Page.Significant)
      Result.Reports.push_back(Report);
    Result.AllInstances.push_back(std::move(Report));
  }
  Pending.clear();
  LocalAccesses = 0;
  LocalCycles = 0;
  return Result;
}
