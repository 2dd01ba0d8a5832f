//===- sim/CoherenceModel.cpp - Private-cache coherence model ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CoherenceModel.h"

#include <algorithm>
#include <bit>
#include <utility>

using namespace cheetah;
using namespace cheetah::sim;

namespace {
/// Tids below this live in LineState::LowHolders.
constexpr ThreadId MaskTids = 64;
} // namespace

CoherenceModel::CoherenceModel(const CacheGeometry &Geometry)
    : Geometry(Geometry), Slots(size_t(1) << InitialSlotBits) {}

size_t CoherenceModel::homeSlot(uint64_t Line) const {
  // Fibonacci hashing: the top bits of the product spread consecutive line
  // indices across the table.
  return static_cast<size_t>((Line * 0x9e3779b97f4a7c15ull) >>
                             (64 - SlotBits));
}

const CoherenceModel::LineState *
CoherenceModel::findLine(uint64_t Line) const {
  size_t Mask = Slots.size() - 1;
  for (size_t I = homeSlot(Line);; I = (I + 1) & Mask) {
    if (Slots[I].Line == Line)
      return &Slots[I];
    if (Slots[I].Line == EmptyLine)
      return nullptr;
  }
}

CoherenceModel::LineState &CoherenceModel::lineFor(uint64_t Line) {
  size_t Mask = Slots.size() - 1;
  for (size_t I = homeSlot(Line);; I = (I + 1) & Mask) {
    LineState &Slot = Slots[I];
    if (Slot.Line == Line)
      return Slot;
    if (Slot.Line != EmptyLine)
      continue;
    if ((Used + 1) * 4 > Slots.size() * 3) {
      grow();
      return lineFor(Line);
    }
    ++Used;
    Slot.Line = Line;
    return Slot;
  }
}

void CoherenceModel::grow() {
  std::vector<LineState> Old =
      std::exchange(Slots, std::vector<LineState>(size_t(1) << ++SlotBits));
  size_t Mask = Slots.size() - 1;
  for (const LineState &Entry : Old) {
    if (Entry.Line == EmptyLine)
      continue;
    size_t I = homeSlot(Entry.Line);
    while (Slots[I].Line != EmptyLine)
      I = (I + 1) & Mask;
    Slots[I] = Entry;
  }
}

bool CoherenceModel::holdsHigh(const LineState &Line, ThreadId Tid) const {
  if (!Line.Overflow)
    return false;
  const std::vector<ThreadId> &High = HighHolders[Line.Overflow - 1];
  return std::binary_search(High.begin(), High.end(), Tid);
}

void CoherenceModel::addHighHolder(LineState &Line, ThreadId Tid) {
  if (!Line.Overflow) {
    HighHolders.emplace_back();
    Line.Overflow = static_cast<uint32_t>(HighHolders.size());
  }
  std::vector<ThreadId> &High = HighHolders[Line.Overflow - 1];
  auto It = std::lower_bound(High.begin(), High.end(), Tid);
  if (It == High.end() || *It != Tid)
    High.insert(It, Tid);
}

CoherenceResult CoherenceModel::access(ThreadId Tid,
                                       const MemoryAccess &Access,
                                       uint64_t Now) {
  LineState &Line = lineFor(Geometry.lineIndex(Access.Address));
  CoherenceResult Result;
  ++Stats.Accesses;

  // Split the holders into this thread and the others. Most lines have one
  // holder, so the popcount (a libgcc call on baseline x86-64) runs only
  // when another tid below 64 holds the line.
  uint64_t Self = Tid < MaskTids ? uint64_t(1) << Tid : 0;
  bool Held = Self ? (Line.LowHolders & Self) != 0 : holdsHigh(Line, Tid);
  uint64_t OtherLow = Line.LowHolders & ~Self;
  uint32_t Others =
      OtherLow ? static_cast<uint32_t>(std::popcount(OtherLow)) : 0;
  if (Line.Overflow)
    Others += static_cast<uint32_t>(HighHolders[Line.Overflow - 1].size()) -
              (Held && !Self ? 1u : 0u);
  bool OthersHold = Others != 0;
  bool EverTouched = Held || OthersHold || Line.Dirty;

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
    if (Self)
      Line.LowHolders |= Self;
    else
      addHighHolder(Line, Tid);
  } else {
    // Write: every other holder must be invalidated.
    uint32_t Victims = Others;
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
    Line.LowHolders = Self;
    if (Line.Overflow)
      HighHolders[Line.Overflow - 1].clear();
    if (!Self)
      addHighHolder(Line, Tid);
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
  const LineState *Line = findLine(Geometry.lineIndex(Address));
  if (!Line)
    return {};
  std::vector<ThreadId> Holders;
  for (uint64_t Bits = Line->LowHolders; Bits; Bits &= Bits - 1)
    Holders.push_back(static_cast<ThreadId>(std::countr_zero(Bits)));
  if (Line->Overflow) {
    const std::vector<ThreadId> &High = HighHolders[Line->Overflow - 1];
    Holders.insert(Holders.end(), High.begin(), High.end());
  }
  return Holders;
}
