//===- sim/CoherenceModel.h - Private-cache coherence model -----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A directory-style invalidation coherence model matching the paper's two
/// assumptions (Section 2): every thread runs on its own core with a private
/// cache, and caches are infinite (no capacity evictions). A line is held by
/// a set of cores; a write invalidates every other holder. Contended lines
/// serialize ownership transfers through a per-line busy window, so the cost
/// of false sharing grows with the number of concurrent writers — the
/// physical effect behind Figure 1's 13x degradation.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SIM_COHERENCEMODEL_H
#define CHEETAH_SIM_COHERENCEMODEL_H

#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "sim/LatencyModel.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace sim {

/// Result of presenting one access to the coherence model.
struct CoherenceResult {
  AccessOutcome Outcome = AccessOutcome::LocalHit;
  /// Total cycles the access took, including any time spent queued behind
  /// other transfers of the same line.
  uint64_t LatencyCycles = 0;
  /// Number of other cores whose copies were invalidated by this access.
  uint32_t Invalidated = 0;
};

/// Aggregate counters over one simulation, used by tests and benchmarks.
struct CoherenceStats {
  uint64_t Accesses = 0;
  uint64_t LocalHits = 0;
  uint64_t ColdMisses = 0;
  uint64_t CleanTransfers = 0;
  uint64_t DirtyTransfers = 0;
  uint64_t Upgrades = 0;
  uint64_t InvalidationsSent = 0;
  uint64_t TotalLatency = 0;
};

/// Tracks, for every touched cache line, which cores hold a valid copy and
/// whether one of them holds it modified.
class CoherenceModel {
public:
  explicit CoherenceModel(const CacheGeometry &Geometry);

  /// Presents one access by \p Tid at virtual time \p Now.
  /// \returns the outcome and total latency (base cost + queueing delay).
  CoherenceResult access(ThreadId Tid, const MemoryAccess &Access,
                         uint64_t Now);

  /// Counters accumulated since construction.
  const CoherenceStats &stats() const { return Stats; }

  /// Number of distinct cache lines ever touched.
  size_t touchedLines() const { return Used; }

  /// \returns the holders of the line containing \p Address, ascending
  /// (for tests).
  std::vector<ThreadId> holdersOf(uint64_t Address) const;

private:
  /// No line index reaches this: a line is at least 8 bytes.
  static constexpr uint64_t EmptyLine = ~uint64_t(0);

  /// Per-line directory entry, stored inline in the open-addressed table.
  /// The holder set needs no allocation of its own: bit T of LowHolders
  /// stands for tid T below 64, and tids from 64 up sit in a sorted,
  /// duplicate-free overflow list that the entry names by index and keeps
  /// once it has one (empty after a write by a tid below 64). Only programs
  /// with more than 64 threads ever create an overflow list.
  struct LineState {
    /// Line index this slot holds, or EmptyLine for a free slot.
    uint64_t Line = EmptyLine;
    uint64_t LowHolders = 0;
    /// Virtual time until which the line's directory slot is busy serving a
    /// previous ownership transfer.
    uint64_t BusyUntil = 0;
    /// 1 + index into HighHolders, or 0 while no tid >= 64 ever held it.
    uint32_t Overflow = 0;
    bool Dirty = false;
  };

  static constexpr unsigned InitialSlotBits = 8;

  /// The slot of \p Line, claimed (and the table grown) on first touch.
  LineState &lineFor(uint64_t Line);
  /// The slot of \p Line, or null if it was never touched.
  const LineState *findLine(uint64_t Line) const;
  size_t homeSlot(uint64_t Line) const;
  void grow();

  /// Overflow-list membership and insertion, for tids >= 64.
  bool holdsHigh(const LineState &Line, ThreadId Tid) const;
  void addHighHolder(LineState &Line, ThreadId Tid);

  CacheGeometry Geometry;
  /// Open-addressed, linearly probed; the size is a power of two and at
  /// most three quarters of the slots are used.
  std::vector<LineState> Slots;
  unsigned SlotBits = InitialSlotBits;
  size_t Used = 0;
  /// Sorted holder lists for tids >= 64, one per line that ever had one.
  std::vector<std::vector<ThreadId>> HighHolders;
  CoherenceStats Stats;
};

} // namespace sim
} // namespace cheetah

#endif // CHEETAH_SIM_COHERENCEMODEL_H
