//===- core/detect/SharingClassifier.h - FS vs TS classification -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differentiates false sharing from true sharing using the per-word access
/// information (paper Section 2.4): in true sharing multiple threads access
/// the *same* words, in false sharing they access logically independent
/// words of the same line. The classifier scores each line by the fraction
/// of accesses landing on multi-thread words: at most 0.3 is false
/// sharing, at least 0.7 true sharing, and anything between is mixed.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_SHARINGCLASSIFIER_H
#define CHEETAH_CORE_DETECT_SHARINGCLASSIFIER_H

#include "core/detect/CacheLineInfo.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace core {

/// The sharing verdict for one line (or one object, by aggregation).
enum class SharingKind : uint8_t {
  /// Fewer than two threads observed: no sharing at all.
  NotShared,
  /// Threads access disjoint words: the fixable case.
  FalseSharing,
  /// Threads access the same words: unavoidable communication.
  TrueSharing,
  /// Both patterns present on the same line.
  Mixed,
};

/// \returns a stable display name for \p Kind.
const char *sharingKindName(SharingKind Kind);

/// Per-line classification result with its evidence.
struct LineClassification {
  SharingKind Kind = SharingKind::NotShared;
  /// Accesses to words touched by >= 2 threads.
  uint64_t SharedWordAccesses = 0;
  /// Accesses to single-thread words.
  uint64_t PrivateWordAccesses = 0;
  /// Distinct threads on the line.
  uint32_t Threads = 0;

  double sharedFraction() const {
    uint64_t Total = SharedWordAccesses + PrivateWordAccesses;
    return Total ? static_cast<double>(SharedWordAccesses) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Classifies one line from its word-level evidence.
LineClassification classifySharing(const CacheLineInfo &Info);

/// Same, over an already-taken words() snapshot — callers that need the
/// snapshot for other work too (the report builder) avoid materializing
/// it twice. \p ThreadsOnLine is the line's distinct-thread count.
LineClassification classifySharing(const std::vector<WordStats> &Words,
                                   uint32_t ThreadsOnLine);

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_SHARINGCLASSIFIER_H
