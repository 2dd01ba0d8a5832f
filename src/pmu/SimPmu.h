//===- pmu/SimPmu.h - Simulator-backed address sampling ---------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated PMU: a SampleSource driven by the multicore simulator's
/// observer hooks, performing instruction-based address sampling over the
/// instruction stream the simulator retires. Plays the role AMD IBS /
/// Intel PEBS plays in the paper — it sees every retired instruction,
/// fires every `SamplingPeriod` instructions on average, and produces
/// (address, tid, r/w, latency) samples at the sampled access. Sample
/// delivery and per-thread setup charge virtual cycles to the profiled
/// thread, which is how Cheetah's runtime overhead becomes measurable
/// inside the simulation (Figure 4).
///
/// Samples reach the sink in delivery order through one buffer, handed
/// over as a batch at pmu::SampleBatchCapacity samples, before every
/// lifecycle event is forwarded, and in stop(). One buffer, not
/// one per thread: invalidation counts depend on the cross-thread
/// interleaving. No batch spans a lifecycle event, so none spans a phase
/// change either.
///
/// Thread lifecycle events forward to the sink even when sampling is
/// disabled: an attached-but-disabled PMU stops the samples and the cycle
/// charges, not the profiler's view of the thread set.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_PMU_SIMPMU_H
#define CHEETAH_PMU_SIMPMU_H

#include "pmu/PmuConfig.h"
#include "pmu/Sample.h"
#include "pmu/SampleSource.h"
#include "pmu/SamplingPolicy.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cheetah {
namespace pmu {

/// Instruction-based sampling backend over the simulator.
class SimPmu : public SampleSource, public sim::SimObserver {
public:
  explicit SimPmu(const PmuConfig &Config) : Config(Config) {
    Pending.reserve(SampleBatchCapacity);
  }

  /// Enables or disables sampling (an attached-but-disabled PMU charges no
  /// cycles and delivers nothing; used for native-baseline runs).
  void setEnabled(bool NewEnabled) { Enabled = NewEnabled; }

  /// Total threads that paid PMU setup.
  uint64_t threadsConfigured() const { return ThreadsConfigured; }

  // SampleSource implementation. The simulator pushes through the observer
  // hooks, so start/stop only toggle delivery (stop() also hands over the
  // buffered samples).
  SourceStatus start() override {
    setEnabled(true);
    return {true, ""};
  }
  SourceStatus stop() override {
    flush();
    setEnabled(false);
    return {true, ""};
  }
  /// Counts samples as they are taken; buffered ones reach the sink by
  /// the next lifecycle event or stop().
  uint64_t samplesDelivered() const override { return SamplesDelivered; }
  sim::SimObserver *simObserver() override { return this; }

  // SimObserver implementation.
  uint64_t onThreadStart(ThreadId Tid, bool IsMain, uint64_t Now) override;
  void onThreadEnd(const sim::ThreadRecord &Record) override;
  uint64_t onMemoryAccess(ThreadId Tid, const MemoryAccess &Access,
                          const sim::CoherenceResult &Result,
                          uint64_t Now) override;
  void onInstructions(ThreadId Tid, uint64_t Count) override;

private:
  SamplingPolicy &policyFor(ThreadId Tid);
  /// Hands the buffered samples to the sink as one batch.
  void flush();

  PmuConfig Config;
  /// Samples not yet handed to the sink, in delivery order.
  std::vector<Sample> Pending;
  bool Enabled = true;
  uint64_t SamplesDelivered = 0;
  uint64_t ThreadsConfigured = 0;
  std::unordered_map<ThreadId, SamplingPolicy> Policies;
};

} // namespace pmu
} // namespace cheetah

#endif // CHEETAH_PMU_SIMPMU_H
