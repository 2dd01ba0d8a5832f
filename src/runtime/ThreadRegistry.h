//===- runtime/ThreadRegistry.h - Per-thread profiling state ---*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread counters the assessment engine needs (paper Section 3.2):
/// each thread's execution time RT_t (measured exactly via interception —
/// RDTSC in the real system, virtual clocks in simulation), and the
/// sample-derived totals Accesses_t and Cycles_t. Every thread records its
/// own sample events (the paper's F_SETOWN_EX trick), so there is no
/// cross-thread lookup on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_RUNTIME_THREADREGISTRY_H
#define CHEETAH_RUNTIME_THREADREGISTRY_H

#include "mem/MemoryAccess.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace runtime {

/// Profiling state for one thread.
struct ThreadProfile {
  ThreadId Tid = 0;
  bool IsMain = false;
  bool Registered = false;
  bool Finished = false;
  /// Interception timestamps (virtual cycles / TSC).
  uint64_t StartTime = 0;
  uint64_t EndTime = 0;
  /// Sample-derived totals: number of sampled accesses and the sum of their
  /// latencies (the paper's Accesses_t and Cycles_t).
  uint64_t SampledAccesses = 0;
  uint64_t SampledCycles = 0;

  /// RT_t: wall-clock of the thread body. A thread that never detached
  /// (EndTime still 0, or clock skew putting it before StartTime) has no
  /// measurable runtime; without the guard the subtraction wraps to ~2^64
  /// and poisons every EQ.2 prediction built on it.
  uint64_t runtime() const {
    return EndTime < StartTime ? 0 : EndTime - StartTime;
  }
};

/// Registry of all threads seen during one profiled execution.
class ThreadRegistry {
public:
  /// Records a thread starting at \p Now. Ids must be unique per run.
  void threadStarted(ThreadId Tid, bool IsMain, uint64_t Now);

  /// Records the thread's end time.
  void threadFinished(ThreadId Tid, uint64_t Now);

  /// Accumulates a pre-aggregated batch of \p Count sampled accesses whose
  /// latencies sum to \p Cycles.
  void recordSamples(ThreadId Tid, uint64_t Count, uint64_t Cycles);

  /// \returns the profile for \p Tid; the thread must have started.
  const ThreadProfile &profile(ThreadId Tid) const;

  /// \returns true if \p Tid has been registered.
  bool known(ThreadId Tid) const;

  /// All profiles ordered by thread id.
  const std::vector<ThreadProfile> &threads() const { return Profiles; }

  /// Sum of SampledAccesses over all threads.
  uint64_t totalSampledAccesses() const;

  /// Sum of SampledCycles over all threads.
  uint64_t totalSampledCycles() const;

private:
  ThreadProfile &mutableProfile(ThreadId Tid);

  /// Dense by thread id: simulator ids are consecutive from 0.
  std::vector<ThreadProfile> Profiles;
};

} // namespace runtime
} // namespace cheetah

#endif // CHEETAH_RUNTIME_THREADREGISTRY_H
