//===- core/detect/CacheLineInfo.h - Per-line detailed tracking -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detailed per-cache-line state, allocated lazily for "susceptible" lines
/// only (those with more than a threshold of sampled writes — the paper's
/// filter that avoids tracking write-once memory). A thin instantiation of
/// the granularity-generic GrainInfo: the actors are threads, the buckets
/// are the line's 4-byte words, and there are no per-grain extras. See
/// GrainInfo.h for the machinery (two-entry invalidation table, per-bucket
/// histogram, per-thread EQ.2 accumulators, batch runs).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_CACHELINEINFO_H
#define CHEETAH_CORE_DETECT_CACHELINEINFO_H

#include "core/detect/GrainInfo.h"

namespace cheetah {
namespace core {

/// Everything Cheetah tracks about one susceptible cache line.
class CacheLineInfo : public GrainInfo<LineGrainTraits> {
public:
  explicit CacheLineInfo(uint64_t WordsPerLine)
      : GrainInfo(WordsPerLine) {}

  /// Records one sampled access landing on this line. Lock-free:
  /// concurrent calls from many ingesting threads never lose an update.
  /// \returns true if it incurred a cache invalidation.
  bool recordAccess(ThreadId Tid, AccessKind Kind, uint64_t WordIndex,
                    uint64_t WordSpan, uint64_t LatencyCycles) {
    return record(Tid, Tid, Kind, WordIndex, WordSpan, LatencyCycles);
  }

  /// Value snapshot of the per-word statistics, one entry per word of the
  /// line (consistent once ingestion quiesces).
  std::vector<WordStats> words() const { return buckets(); }
};

// The empty line extras must overlay completely ([[no_unique_address]]) so
// the line record is exactly as wide as the pre-generalization layout —
// the shadow-bytes accounting embedded in the report goldens depends on
// this staying put.
static_assert(sizeof(CacheLineInfo) ==
                  sizeof(CacheLineTable) + 4 * sizeof(std::atomic<uint64_t>) +
                      sizeof(std::unique_ptr<AtomicBucketStats[]>) +
                      sizeof(uint64_t) + sizeof(ThreadStatsChain),
              "empty line extras must not widen the grain record");

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_CACHELINEINFO_H
