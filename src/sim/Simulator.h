//===- sim/Simulator.h - Multicore discrete-event simulator -----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a ForkJoinProgram on a simulated multicore: one virtual core per
/// thread (the paper's Assumption 1), infinite private caches (Assumption 2),
/// and a per-thread virtual cycle clock. Threads within a parallel phase are
/// interleaved in virtual-time order (the runnable thread with the smallest
/// clock steps next), which yields realistic fine-grained interleavings of
/// contending writers without real concurrency — essential on a single-core
/// build host.
///
/// Observers (the Cheetah profiler, the full-instrumentation baseline) hook
/// thread lifecycle and every memory access; any cycles they return are
/// charged to the observed thread's clock, which is how profiling *overhead*
/// is modeled and measured (Figure 4).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SIM_SIMULATOR_H
#define CHEETAH_SIM_SIMULATOR_H

#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "mem/NumaTopology.h"
#include "sim/CoherenceModel.h"
#include "sim/ForkJoinProgram.h"
#include "sim/LatencyModel.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace cheetah {
namespace sim {

/// Exact per-thread execution record (what RDTSC-based interception measures
/// in the real system).
struct ThreadRecord {
  ThreadId Tid = 0;
  /// Index of the phase this thread ran in; main thread uses phase 0 but
  /// spans the program.
  uint32_t PhaseIndex = 0;
  uint64_t StartCycle = 0;
  uint64_t EndCycle = 0;
  uint64_t Instructions = 0;
  uint64_t MemoryAccesses = 0;
  /// Sum of all memory-access latencies (exact, not sampled).
  uint64_t MemoryCycles = 0;
  bool IsMain = false;

  /// Guarded like runtime::ThreadProfile::runtime(): a record inspected
  /// before the thread retired (EndCycle still 0) must read as zero, not
  /// wrap to ~2^64.
  uint64_t runtime() const {
    return EndCycle < StartCycle ? 0 : EndCycle - StartCycle;
  }
};

/// Exact record of one serial or parallel phase.
struct PhaseRecord {
  std::string Name;
  bool Parallel = false;
  uint64_t StartCycle = 0;
  uint64_t EndCycle = 0;
  std::vector<ThreadId> Members;

  uint64_t span() const {
    return EndCycle < StartCycle ? 0 : EndCycle - StartCycle;
  }
};

/// Everything a run produces.
struct SimulationResult {
  uint64_t TotalCycles = 0;
  std::vector<ThreadRecord> Threads;
  std::vector<PhaseRecord> Phases;
  CoherenceStats Coherence;
  /// NUMA accounting (zero on single-node topologies): accesses that missed
  /// the local cache on a page homed on another node, and the interconnect
  /// cycles they paid.
  uint64_t RemoteNumaAccesses = 0;
  uint64_t RemoteNumaExtraCycles = 0;

  const ThreadRecord &thread(ThreadId Tid) const;
};

/// Callback interface for tools riding along with a simulation. Cycle values
/// returned from the lifecycle/access hooks are charged to the thread,
/// modeling the tool's runtime overhead.
class SimObserver {
public:
  virtual ~SimObserver() = default;

  /// A thread (including the main thread, Tid 0) begins execution.
  /// \returns extra cycles charged to the thread (e.g. PMU setup syscalls).
  virtual uint64_t onThreadStart(ThreadId Tid, bool IsMain, uint64_t Now) {
    return 0;
  }

  /// A thread finished; \p Record holds its exact counters.
  virtual void onThreadEnd(const ThreadRecord &Record) {}

  /// One memory access retired on \p Tid with the given coherence result.
  /// \returns extra cycles charged to the thread (e.g. a sampling trap).
  virtual uint64_t onMemoryAccess(ThreadId Tid, const MemoryAccess &Access,
                                  const CoherenceResult &Result,
                                  uint64_t Now) {
    return 0;
  }

  /// \p Count non-memory instructions retired on \p Tid.
  virtual void onInstructions(ThreadId Tid, uint64_t Count) {}
};

/// Discrete-event executor for ForkJoinPrograms.
class Simulator {
public:
  /// Every LatencyModel value is a constant, so the model argument carries
  /// no state.
  Simulator(const CacheGeometry &Geometry, const LatencyModel &)
      : Geometry(Geometry) {}

  /// Attaches an observer; at most a handful are expected. Observers are
  /// invoked in attachment order and all overhead cycles accumulate.
  void addObserver(SimObserver *Observer);

  /// Attaches a NUMA topology: on multi-node topologies the simulator
  /// assigns each page a home node at its first touch (first-touch
  /// placement) and charges the LatencyModel's remote surcharges to
  /// cache-missing accesses issued from nodes other than the page's home —
  /// DRAM fetches pay RemoteDramExtraCycles, coherence activity pays
  /// RemoteTransferExtraCycles for the detour through the home node's
  /// directory (locality is keyed to the home, not the supplying cache).
  /// Every surcharge scales hop-proportionally with the topology's
  /// node-pair distance, normalized so the minimum remote distance pays
  /// exactly the base cost (uniform topologies reproduce the binary
  /// local/remote model bit for bit). The surcharge lands in the access
  /// latency *before* observers run, so sampled latencies carry the
  /// remote-DRAM cost. Null or single-node leaves behavior untouched.
  /// \p Topology must outlive the simulator.
  void setTopology(const NumaTopology *T) { Topology = T; }

  /// Runs \p Program to completion. May be called repeatedly; coherence,
  /// clock, and page-home state reset between runs.
  SimulationResult run(const ForkJoinProgram &Program);

private:
  struct RunningThread;

  uint64_t notifyThreadStart(ThreadId Tid, bool IsMain, uint64_t Now);
  uint64_t notifyAccess(ThreadId Tid, const MemoryAccess &Access,
                        const CoherenceResult &Result, uint64_t Now);

  /// Advances \p Thread by exactly one event. \returns false when the
  /// thread's generator is exhausted.
  bool step(RunningThread &Thread, CoherenceModel &Coherence,
            SimulationResult &Result);

  CacheGeometry Geometry;
  std::vector<SimObserver *> Observers;
  const NumaTopology *Topology = nullptr;
  /// First-touch page homes of the current run (page index -> node).
  std::unordered_map<uint64_t, NodeId> PageHomes;
};

} // namespace sim
} // namespace cheetah

#endif // CHEETAH_SIM_SIMULATOR_H
