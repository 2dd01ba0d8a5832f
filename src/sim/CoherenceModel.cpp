//===- sim/CoherenceModel.cpp - Private-cache coherence model ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CoherenceModel.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::sim;

CoherenceModel::LineState &CoherenceModel::lineFor(uint64_t Address) {
  return Lines[Geometry.lineIndex(Address)];
}

bool CoherenceModel::holds(const LineState &Line, ThreadId Tid) {
  return std::binary_search(Line.Holders.begin(), Line.Holders.end(), Tid);
}

void CoherenceModel::addHolder(LineState &Line, ThreadId Tid) {
  auto It = std::lower_bound(Line.Holders.begin(), Line.Holders.end(), Tid);
  if (It == Line.Holders.end() || *It != Tid)
    Line.Holders.insert(It, Tid);
}

CoherenceResult CoherenceModel::access(ThreadId Tid,
                                       const MemoryAccess &Access,
                                       uint64_t Now) {
  LineState &Line = lineFor(Access.Address);
  CoherenceResult Result;
  ++Stats.Accesses;

  bool Held = holds(Line, Tid);
  bool OthersHold = Line.Holders.size() > (Held ? 1u : 0u);
  bool EverTouched = !Line.Holders.empty() || Line.Dirty;

  if (Access.Kind == AccessKind::Read) {
    if (Held) {
      Result.Outcome = AccessOutcome::LocalHit;
    } else if (!EverTouched) {
      Result.Outcome = AccessOutcome::ColdMiss;
    } else if (Line.Dirty && OthersHold) {
      // Another core holds the line modified: dirty cache-to-cache transfer.
      // The supplier's copy downgrades to shared; the line is now clean.
      Result.Outcome = AccessOutcome::DirtyTransfer;
      Line.Dirty = false;
    } else if (OthersHold) {
      Result.Outcome = AccessOutcome::CleanTransfer;
    } else {
      // Touched in the past but no current holder (everyone was
      // invalidated and the writer itself re-read elsewhere): with infinite
      // caches this means a fetch from the shared level, model as clean
      // transfer cost.
      Result.Outcome = AccessOutcome::CleanTransfer;
    }
    addHolder(Line, Tid);
  } else {
    // Write: every other holder must be invalidated.
    uint32_t Victims =
        static_cast<uint32_t>(Line.Holders.size()) - (Held ? 1u : 0u);
    if (Held && Victims == 0) {
      // Exclusive (or modified) in our cache already.
      Result.Outcome = AccessOutcome::LocalHit;
    } else if (Held) {
      // We hold it shared; upgrade to exclusive.
      Result.Outcome = AccessOutcome::Upgrade;
    } else if (!EverTouched) {
      Result.Outcome = AccessOutcome::ColdMiss;
    } else if (Line.Dirty && Victims > 0) {
      Result.Outcome = AccessOutcome::DirtyTransfer;
    } else {
      Result.Outcome = AccessOutcome::CleanTransfer;
    }
    Result.Invalidated = Victims;
    Stats.InvalidationsSent += Victims;
    Line.Holders.clear();
    Line.Holders.push_back(Tid);
    Line.Dirty = true;
  }

  uint64_t Cost = LatencyModel::baseCost(Result.Outcome);
  if (LatencyModel::involvesCoherence(Result.Outcome)) {
    // Coherence transactions serialize on the line's directory slot: a
    // request issued while a previous transfer is still in flight waits for
    // it. This is the queueing effect that makes N contending writers see
    // latency grow with N — saturating once the directory pipeline absorbs
    // the backlog.
    uint64_t MaxWait =
        static_cast<uint64_t>(LatencyModel::MaxQueuedServices) *
        LatencyModel::LineServiceCycles;
    uint64_t Start = std::max(Now, std::min(Line.BusyUntil, Now + MaxWait));
    uint64_t Finish = Start + LatencyModel::LineServiceCycles;
    Line.BusyUntil = Finish;
    Cost += Finish - Now;
  }
  Result.LatencyCycles = Cost;
  Stats.TotalLatency += Cost;

  switch (Result.Outcome) {
  case AccessOutcome::LocalHit:
    ++Stats.LocalHits;
    break;
  case AccessOutcome::ColdMiss:
    ++Stats.ColdMisses;
    break;
  case AccessOutcome::CleanTransfer:
    ++Stats.CleanTransfers;
    break;
  case AccessOutcome::DirtyTransfer:
    ++Stats.DirtyTransfers;
    break;
  case AccessOutcome::Upgrade:
    ++Stats.Upgrades;
    break;
  }
  return Result;
}

std::vector<ThreadId> CoherenceModel::holdersOf(uint64_t Address) const {
  auto It = Lines.find(Geometry.lineIndex(Address));
  if (It == Lines.end())
    return {};
  return It->second.Holders;
}
