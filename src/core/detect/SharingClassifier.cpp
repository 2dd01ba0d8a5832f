//===- core/detect/SharingClassifier.cpp - FS vs TS classification --------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/detect/SharingClassifier.h"

using namespace cheetah;
using namespace cheetah::core;

const char *cheetah::core::sharingKindName(SharingKind Kind) {
  switch (Kind) {
  case SharingKind::NotShared:
    return "not-shared";
  case SharingKind::FalseSharing:
    return "false-sharing";
  case SharingKind::TrueSharing:
    return "true-sharing";
  case SharingKind::Mixed:
    return "mixed-sharing";
  }
  return "unknown";
}

namespace {
/// A line is false sharing when at most this fraction of its accesses land
/// on words touched by multiple threads.
constexpr double FalseSharingMaxSharedFraction = 0.3;
/// A line is true sharing when at least this fraction of its accesses land
/// on multi-thread words.
constexpr double TrueSharingMinSharedFraction = 0.7;
} // namespace

LineClassification cheetah::core::classifySharing(const CacheLineInfo &Info) {
  return classifySharing(Info.words(),
                         static_cast<uint32_t>(Info.threadCount()));
}

LineClassification
cheetah::core::classifySharing(const std::vector<WordStats> &Words,
                               uint32_t ThreadsOnLine) {
  LineClassification Result;
  Result.Threads = ThreadsOnLine;

  for (const WordStats &Word : Words) {
    if (Word.accesses() == 0)
      continue;
    if (Word.MultiThread)
      Result.SharedWordAccesses += Word.accesses();
    else
      Result.PrivateWordAccesses += Word.accesses();
  }

  if (Result.Threads < 2) {
    Result.Kind = SharingKind::NotShared;
    return Result;
  }

  double Shared = Result.sharedFraction();
  if (Shared <= FalseSharingMaxSharedFraction)
    Result.Kind = SharingKind::FalseSharing;
  else if (Shared >= TrueSharingMinSharedFraction)
    Result.Kind = SharingKind::TrueSharing;
  else
    Result.Kind = SharingKind::Mixed;
  return Result;
}
