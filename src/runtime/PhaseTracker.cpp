//===- runtime/PhaseTracker.cpp - Fork-join phase tracking ----------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/PhaseTracker.h"

#include "support/Assert.h"

#include <utility>

using namespace cheetah;
using namespace cheetah::runtime;

void PhaseTracker::programBegin(ThreadId Main, uint64_t Now) {
  CHEETAH_ASSERT(!Started, "programBegin called twice");
  Started = true;
  MainTid = Main;
  BeginTime = Now;
  CurrentPhaseStart = Now;
}

void PhaseTracker::closeCurrentPhase(uint64_t Now) {
  ExecutionPhase Phase;
  Phase.Parallel = !CurrentMembers.empty();
  Phase.StartTime = CurrentPhaseStart;
  Phase.EndTime = Now;
  Phase.Members = std::move(CurrentMembers);
  CurrentMembers.clear();
  // Zero-length serial gaps between back-to-back parallel phases are
  // dropped; they carry no time and would only add noise to reports.
  if (Phase.span() > 0 || Phase.Parallel)
    Phases.push_back(std::move(Phase));
  CurrentPhaseStart = Now;
}

void PhaseTracker::threadCreated(ThreadId Child, ThreadId Creator,
                                 uint64_t Now) {
  CHEETAH_ASSERT(Started && !Ended, "thread created outside program span");
  // Nested parallelism (a child creating threads) leaves the fork-join
  // model; Cheetah then skips the whole-program assessment (Section 3.3).
  if (Creator != MainTid)
    ForkJoin = false;
  if (LiveChildren == 0) {
    // Transition serial -> parallel: the serial phase ends here.
    closeCurrentPhase(Now);
  }
  CurrentMembers.push_back(Child);
  ++LiveChildren;
}

void PhaseTracker::threadFinished(ThreadId Tid, uint64_t Now) {
  CHEETAH_ASSERT(Started && !Ended, "thread finished outside program span");
  CHEETAH_ASSERT(LiveChildren > 0, "join without live children");
  --LiveChildren;
  if (LiveChildren == 0) {
    // Transition parallel -> serial: "an application leaves a parallel
    // phase after all child threads have been successfully joined".
    closeCurrentPhase(Now);
  }
}

void PhaseTracker::programEnd(uint64_t Now) {
  CHEETAH_ASSERT(Started && !Ended, "programEnd without begin");
  if (LiveChildren > 0)
    ForkJoin = false; // Main exits while children run: not fork-join.
  closeCurrentPhase(Now);
  Ended = true;
  EndTime = Now;
}
