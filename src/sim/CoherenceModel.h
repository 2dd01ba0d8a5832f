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
#include <unordered_map>
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
  explicit CoherenceModel(const CacheGeometry &Geometry)
      : Geometry(Geometry) {}

  /// Presents one access by \p Tid at virtual time \p Now.
  /// \returns the outcome and total latency (base cost + queueing delay).
  CoherenceResult access(ThreadId Tid, const MemoryAccess &Access,
                         uint64_t Now);

  /// Counters accumulated since construction.
  const CoherenceStats &stats() const { return Stats; }

  /// Number of distinct cache lines ever touched.
  size_t touchedLines() const { return Lines.size(); }

  /// \returns the holders of the line containing \p Address (for tests).
  std::vector<ThreadId> holdersOf(uint64_t Address) const;

private:
  /// Per-line directory entry. Holders is kept sorted and deduplicated; it
  /// is tiny for private data and grows only for genuinely shared lines.
  struct LineState {
    std::vector<ThreadId> Holders;
    bool Dirty = false;
    /// Virtual time until which the line's directory slot is busy serving a
    /// previous ownership transfer.
    uint64_t BusyUntil = 0;
  };

  LineState &lineFor(uint64_t Address);
  static bool holds(const LineState &Line, ThreadId Tid);
  static void addHolder(LineState &Line, ThreadId Tid);

  CacheGeometry Geometry;
  std::unordered_map<uint64_t, LineState> Lines;
  CoherenceStats Stats;
};

} // namespace sim
} // namespace cheetah

#endif // CHEETAH_SIM_COHERENCEMODEL_H
