//===- runtime/ThreadRegistry.cpp - Per-thread profiling state -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadRegistry.h"

#include "support/Assert.h"

using namespace cheetah;
using namespace cheetah::runtime;

ThreadProfile &ThreadRegistry::mutableProfile(ThreadId Tid) {
  CHEETAH_ASSERT(Tid < Profiles.size(), "unknown thread id");
  return Profiles[Tid];
}

void ThreadRegistry::threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) {
  if (Tid >= Profiles.size())
    Profiles.resize(Tid + 1);
  ThreadProfile &Profile = Profiles[Tid];
  CHEETAH_ASSERT(!Profile.Registered, "thread id registered twice");
  Profile.Registered = true;
  Profile.Tid = Tid;
  Profile.IsMain = IsMain;
  Profile.StartTime = Now;
}

void ThreadRegistry::threadFinished(ThreadId Tid, uint64_t Now) {
  ThreadProfile &Profile = mutableProfile(Tid);
  CHEETAH_ASSERT(!Profile.Finished, "thread finished twice");
  CHEETAH_ASSERT(Now >= Profile.StartTime, "thread ends before it starts");
  Profile.EndTime = Now;
  Profile.Finished = true;
}

void ThreadRegistry::recordSamples(ThreadId Tid, uint64_t Count,
                                   uint64_t Cycles) {
  ThreadProfile &Profile = mutableProfile(Tid);
  Profile.SampledAccesses += Count;
  Profile.SampledCycles += Cycles;
}

const ThreadProfile &ThreadRegistry::profile(ThreadId Tid) const {
  CHEETAH_ASSERT(Tid < Profiles.size(), "unknown thread id");
  return Profiles[Tid];
}

bool ThreadRegistry::known(ThreadId Tid) const {
  return Tid < Profiles.size() && Profiles[Tid].Registered;
}

uint64_t ThreadRegistry::totalSampledAccesses() const {
  uint64_t Total = 0;
  for (const ThreadProfile &Profile : Profiles)
    Total += Profile.SampledAccesses;
  return Total;
}

uint64_t ThreadRegistry::totalSampledCycles() const {
  uint64_t Total = 0;
  for (const ThreadProfile &Profile : Profiles)
    Total += Profile.SampledCycles;
  return Total;
}
