//===- runtime/PhaseTracker.h - Fork-join phase tracking --------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks thread creations and joins to (a) verify the application follows
/// the fork-join model of Figure 3 — a prerequisite for the whole-program
/// assessment of Section 3.3 — and (b) segment the execution into serial
/// and parallel phases with their cycle spans. The detector also consults
/// the tracker to record detailed accesses only inside parallel phases,
/// Cheetah's fix for the init-then-share false positives Predator suffers
/// from (Section 2.4).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_RUNTIME_PHASETRACKER_H
#define CHEETAH_RUNTIME_PHASETRACKER_H

#include "mem/MemoryAccess.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace runtime {

/// One serial or parallel span of the execution.
struct ExecutionPhase {
  bool Parallel = false;
  uint64_t StartTime = 0;
  uint64_t EndTime = 0;
  /// Child threads of this phase (parallel phases only).
  std::vector<ThreadId> Members;

  /// Guarded like ThreadProfile::runtime(): a phase still open at
  /// assessment time (EndTime 0) spans zero cycles, it does not wrap.
  uint64_t span() const {
    return EndTime < StartTime ? 0 : EndTime - StartTime;
  }
};

/// Online fork-join phase segmentation from thread lifecycle events.
class PhaseTracker {
public:
  /// Marks the beginning of the program (main thread running, serial).
  void programBegin(ThreadId MainTid, uint64_t Now);

  /// \p Creator created \p Child at time \p Now.
  void threadCreated(ThreadId Child, ThreadId Creator, uint64_t Now);

  /// \p Tid finished at \p Now (child threads only; the main thread ends
  /// via programEnd).
  void threadFinished(ThreadId Tid, uint64_t Now);

  /// Marks the end of the program.
  void programEnd(uint64_t Now);

  /// True while at least one child thread is live.
  bool inParallelPhase() const { return LiveChildren > 0; }

  /// True if every thread was created by the main thread and phases never
  /// overlapped — the fork-join model Cheetah's assessment supports.
  bool isForkJoin() const { return ForkJoin; }

  /// Completed phases in execution order (valid after programEnd).
  const std::vector<ExecutionPhase> &phases() const { return Phases; }

  /// Total tracked time.
  uint64_t totalCycles() const { return EndTime - BeginTime; }

private:
  void closeCurrentPhase(uint64_t Now);

  ThreadId MainTid = 0;
  bool Started = false;
  bool Ended = false;
  bool ForkJoin = true;
  uint64_t BeginTime = 0;
  uint64_t EndTime = 0;
  uint64_t CurrentPhaseStart = 0;
  uint32_t LiveChildren = 0;
  std::vector<ThreadId> CurrentMembers;
  std::vector<ExecutionPhase> Phases;
};

} // namespace runtime
} // namespace cheetah

#endif // CHEETAH_RUNTIME_PHASETRACKER_H
