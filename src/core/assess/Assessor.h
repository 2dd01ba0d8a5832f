//===- core/assess/Assessor.h - Performance-impact prediction --*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline contribution (Section 3): predicting the speedup of
/// fixing a false-sharing instance without fixing it. Three steps:
///
///   1. Object level (3.1): replace the sampled cycles of accesses to the
///      object O with the average no-false-sharing latency, approximated by
///      the average latency observed in serial phases:
///        PredCycles_O = AverCycles_nofs * Accesses_O            (EQ.1)
///   2. Thread level (3.2): propagate into each related thread:
///        PredCycles_t = Cycles_t - Cycles_O(t) + PredCycles_O(t) (EQ.2)
///        PredRT_t     = (PredCycles_t / Cycles_t) * RT_t         (EQ.3)
///      assuming execution time proportional to sampled access cycles.
///   3. Application level (3.3): for fork-join programs, recompute each
///      parallel phase's length as the longest member thread's predicted
///      runtime, sum phases, and report
///        PerfImprove = RT_App / PredRT_App                       (EQ.4)
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_ASSESS_ASSESSOR_H
#define CHEETAH_CORE_ASSESS_ASSESSOR_H

#include "core/detect/CacheLineInfo.h"
#include "mem/NumaTopology.h"
#include "runtime/PhaseTracker.h"
#include "runtime/ThreadRegistry.h"
#include "support/Statistics.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace core {

/// Per-object access evidence aggregated over the object's cache lines —
/// or, for page-granularity assessment, over one page's samples.
struct ObjectAccessProfile {
  uint64_t SampledAccesses = 0;
  uint64_t SampledWrites = 0;
  uint64_t SampledCycles = 0;
  uint64_t Invalidations = 0;
  /// Remote (non-home-node) sampled accesses and the cycles they
  /// accumulated. Page-granularity only; zero for line-level objects.
  uint64_t RemoteAccesses = 0;
  uint64_t RemoteCycles = 0;
  /// Remote traffic bucketed by crossed node-pair distance (sorted by
  /// distance). Populated only for distance-asymmetric topologies: it
  /// turns the page assessment's removable-cycle estimate distance-aware
  /// (far buckets carry more removable excess per access), while uniform
  /// topologies keep the pre-distance arithmetic bit for bit.
  std::vector<RemoteDistanceStats> RemoteByDistance;
  /// Per-thread accesses/cycles on this object (sorted by thread id).
  std::vector<ThreadLineStats> PerThread;

  const ThreadLineStats *threadStats(ThreadId Tid) const;

  /// Sampled accesses/cycles issued from the page's home node.
  uint64_t localAccesses() const { return SampledAccesses - RemoteAccesses; }
  uint64_t localCycles() const { return SampledCycles - RemoteCycles; }
};

/// Assessment tunables.
struct AssessorConfig {
  /// Fallback AverCycles_nofs when serial phases produced too few samples
  /// ("a default value learned from experience").
  double DefaultSerialLatency = 6.0;
  /// Minimum serial-phase samples to trust the measured average.
  uint64_t MinSerialSamples = 32;
};

/// EQ.2/EQ.3 outcome for one thread.
struct ThreadPrediction {
  ThreadId Tid = 0;
  uint64_t RealRuntime = 0;       // RT_t
  double PredictedRuntime = 0.0;  // PredRT_t
  uint64_t SampledCycles = 0;     // Cycles_t
  double PredictedCycles = 0.0;   // PredCycles_t
  uint64_t CyclesOnObject = 0;    // Cycles_O restricted to t
  uint64_t AccessesOnObject = 0;  // Accesses_O restricted to t
};

/// Full assessment of one false-sharing instance.
struct Assessment {
  /// AverCycles_nofs used in EQ.1.
  double AverageNoFsLatency = 0.0;
  /// True when the fallback default was used instead of measured serial
  /// latency.
  bool UsedDefaultLatency = false;
  /// RT_App (cycles).
  uint64_t RealAppRuntime = 0;
  /// PredRT_App (cycles).
  double PredictedAppRuntime = 0.0;
  /// EQ.4: RT_App / PredRT_App; > 1 means fixing helps.
  double ImprovementFactor = 1.0;
  /// Whole-program recomposition only happens for fork-join programs.
  bool ForkJoinModel = true;
  std::vector<ThreadPrediction> Threads;

  /// Improvement as the percentage the paper prints (e.g. 576.17%).
  double improvementPercent() const { return ImprovementFactor * 100.0; }
};

/// Computes assessments from the runtime's collected state.
class Assessor {
public:
  Assessor(const runtime::ThreadRegistry &Registry,
           const runtime::PhaseTracker &Phases, const AssessorConfig &Config)
      : Registry(Registry), Phases(Phases), Config(Config) {}

  /// Installs the latency statistics of serial-phase samples (no false
  /// sharing there, so their mean approximates AverCycles_nofs).
  void setSerialLatencyStats(const OnlineStats &Stats) { SerialStats = Stats; }

  /// Installs the run-wide local (home-node) page sample totals: the
  /// fallback EQ.1 baseline for pages whose own local population is too
  /// small (e.g. a 100%-remote first-touch victim page).
  void setLocalLatencyTotals(uint64_t Accesses, uint64_t Cycles) {
    RunLocalAccesses = Accesses;
    RunLocalCycles = Cycles;
  }

  /// Assesses fixing the object described by \p Profile.
  /// \param AppRuntime measured whole-program runtime RT_App.
  Assessment assess(const ObjectAccessProfile &Profile,
                    uint64_t AppRuntime) const;

  /// Assesses fixing the *placement/sharing* of one page described by
  /// \p Profile (EQ.1–EQ.4 at page granularity): the baseline is the
  /// no-remote-access local latency from averageLocalLatency, and the
  /// per-thread object prediction is clamped to the measured cycles — a
  /// placement fix can only remove the remote-DRAM surcharge, never make
  /// an access slower than observed. When \p Profile carries a
  /// remoteByDistance breakdown (distance-asymmetric topologies), the
  /// total removed cycles are additionally capped by the distance-weighted
  /// removable excess: per bucket, what the remote traffic cost beyond the
  /// local baseline — so only cycles the interconnect actually charged
  /// (more per access at far distances) count as removable. The resulting
  /// ImprovementFactor is therefore >= 1, and == 1 exactly when nothing is
  /// predicted removable.
  Assessment assessPage(const ObjectAccessProfile &Profile,
                        uint64_t AppRuntime) const;

  /// The AverCycles_nofs the next assessment would use.
  double averageNoFsLatency(bool *UsedDefault = nullptr) const;

  /// The no-remote-access AverCycles baseline EQ.1 uses for a page: the
  /// page's own local-access mean when it has enough local samples, else
  /// the run-wide local mean, else the serial-phase chain (serial mean,
  /// then the config default — \p UsedDefault set only in that last case).
  double averageLocalLatency(const ObjectAccessProfile &Profile,
                             bool *UsedDefault = nullptr) const;

private:
  /// Shared EQ.2–EQ.4 machinery: \p AverCycles is the EQ.1 baseline;
  /// \p ClampToMeasured caps each thread's predicted object cycles at its
  /// measured object cycles (the page-assessment contract).
  Assessment assessWithLatency(const ObjectAccessProfile &Profile,
                               uint64_t AppRuntime, double AverCycles,
                               bool UsedDefault, bool ClampToMeasured) const;

  const runtime::ThreadRegistry &Registry;
  const runtime::PhaseTracker &Phases;
  AssessorConfig Config;
  OnlineStats SerialStats;
  uint64_t RunLocalAccesses = 0;
  uint64_t RunLocalCycles = 0;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_ASSESS_ASSESSOR_H
