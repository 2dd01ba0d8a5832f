//===- pmu/SimPmu.cpp - Simulator-backed address sampling ----------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pmu/SimPmu.h"

using namespace cheetah;
using namespace cheetah::pmu;

void SimPmu::flush() {
  if (!Pending.empty() && sink())
    sink()->ingestBatch(Pending.data(), Pending.size());
  Pending.clear();
}

SamplingPolicy &SimPmu::policyFor(ThreadId Tid) {
  // Each thread gets its own jitter stream so threads don't sample in
  // lock-step; seeds derive from the thread id for reproducibility.
  for (ThreadId T = static_cast<ThreadId>(Policies.size()); T <= Tid; ++T)
    Policies.emplace_back(Config.SamplingPeriod, Config.JitterFraction,
                          Config.Seed ^ (0x9e3779b97f4a7c15ull * (T + 1)));
  return Policies[Tid];
}

uint64_t SimPmu::onThreadStart(ThreadId Tid, bool IsMain, uint64_t Now) {
  // Lifecycle reaches the sink whether or not sampling is enabled: the
  // profiler's thread registry and phase model track the program, not the
  // PMU's on/off state. The samples taken before it go first.
  flush();
  if (sink())
    sink()->threadStarted(Tid, IsMain, Now);
  if (!Enabled)
    return 0;
  // Programming the PMU registers happens for every thread, main included
  // (Cheetah turns on sampling "before the main routine").
  policyFor(Tid);
  ++ThreadsConfigured;
  return ThreadSetupCycles;
}

void SimPmu::onThreadEnd(const sim::ThreadRecord &Record) {
  flush();
  if (sink())
    sink()->threadFinished(Record.Tid, Record.IsMain, Record.EndCycle);
}

void SimPmu::onInstructions(ThreadId Tid, uint64_t Count) {
  if (!Enabled)
    return;
  // Pure-compute instructions advance the countdown but cannot deliver an
  // address sample: the PMU tags only memory operations with an address.
  // Real IBS behaves the same way — a sample landing on a non-memory
  // instruction produces no data address and is dropped by the handler.
  policyFor(Tid).advance(Count);
}

uint64_t SimPmu::onMemoryAccess(ThreadId Tid, const MemoryAccess &Access,
                                const sim::CoherenceResult &Result,
                                uint64_t Now) {
  if (!Enabled)
    return 0;
  uint32_t Fired = policyFor(Tid).advance(1);
  if (Fired == 0)
    return 0;

  ++SamplesDelivered;
  if (sink()) {
    Sample S;
    S.Address = Access.Address;
    S.Tid = Tid;
    S.IsWrite = Access.isWrite();
    S.LatencyCycles = static_cast<uint32_t>(Result.LatencyCycles);
    S.Timestamp = Now;
    Pending.push_back(S);
    if (Pending.size() == SampleBatchCapacity)
      flush();
  }
  // One trap per crossing; multiple crossings within one instruction are
  // impossible for memory ops (they advance the countdown by exactly 1).
  return HandlerCycles;
}
