//===- core/assess/Assessor.cpp - Performance-impact prediction ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/assess/Assessor.h"

#include "support/Assert.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::core;

namespace {
/// Fallback AverCycles_nofs when serial phases produced too few samples
/// ("a default value learned from experience").
constexpr double DefaultSerialLatency = 6.0;
/// Minimum serial-phase samples to trust the measured average.
constexpr uint64_t MinSerialSamples = 32;
/// Minimum local (home-node) samples on one page before its own measured
/// local average is trusted as the page EQ.1 baseline; below this the
/// run-wide local average, then the serial average, then the default is
/// used (in that order).
constexpr uint64_t MinPageLocalSamples = 16;
} // namespace

const ThreadLineStats *
ObjectAccessProfile::threadStats(ThreadId Tid) const {
  auto It = std::lower_bound(PerThread.begin(), PerThread.end(), Tid,
                             [](const ThreadLineStats &S, ThreadId T) {
                               return S.Tid < T;
                             });
  if (It != PerThread.end() && It->Tid == Tid)
    return &*It;
  return nullptr;
}

double Assessor::averageNoFsLatency(bool *UsedDefault) const {
  if (SerialStats.count() >= MinSerialSamples) {
    if (UsedDefault)
      *UsedDefault = false;
    return std::max(1.0, SerialStats.mean());
  }
  if (UsedDefault)
    *UsedDefault = true;
  return DefaultSerialLatency;
}

double Assessor::averageLocalLatency(const ObjectAccessProfile &Profile,
                                     bool *UsedDefault) const {
  // The page's own local accesses are the most faithful no-remote
  // baseline: same lines, same threads, no interconnect surcharge.
  if (Profile.localAccesses() >= MinPageLocalSamples) {
    if (UsedDefault)
      *UsedDefault = false;
    return std::max(1.0, static_cast<double>(Profile.localCycles()) /
                             static_cast<double>(Profile.localAccesses()));
  }
  // A fully-remote page (the first-touch pathology) has no local samples
  // of its own; other pages of the same run do.
  if (RunLocalAccesses >= MinPageLocalSamples) {
    if (UsedDefault)
      *UsedDefault = false;
    return std::max(1.0, static_cast<double>(RunLocalCycles) /
                             static_cast<double>(RunLocalAccesses));
  }
  return averageNoFsLatency(UsedDefault);
}

Assessment Assessor::assess(const ObjectAccessProfile &Profile,
                            uint64_t AppRuntime) const {
  bool UsedDefault = false;
  double Aver = averageNoFsLatency(&UsedDefault);
  return assessWithLatency(Profile, AppRuntime, Aver, UsedDefault,
                           /*ClampToMeasured=*/false);
}

Assessment Assessor::assessPage(const ObjectAccessProfile &Profile,
                                uint64_t AppRuntime) const {
  bool UsedDefault = false;
  double Aver = averageLocalLatency(Profile, &UsedDefault);
  return assessWithLatency(Profile, AppRuntime, Aver, UsedDefault,
                           /*ClampToMeasured=*/true);
}

Assessment Assessor::assessWithLatency(const ObjectAccessProfile &Profile,
                                       uint64_t AppRuntime, double AverCycles,
                                       bool UsedDefault,
                                       bool ClampToMeasured) const {
  Assessment Result;
  Result.RealAppRuntime = AppRuntime;
  Result.ForkJoinModel = Phases.isForkJoin();
  Result.AverageNoFsLatency = AverCycles;
  Result.UsedDefaultLatency = UsedDefault;

  // --- Step 2 (EQ.2, EQ.3): predict every thread's runtime after the fix.
  // Pass 1 computes each thread's object prediction (clamped for pages)
  // and how many object cycles the fix would remove from it.
  std::vector<double> ObjectPredictions;
  double TotalRemoval = 0.0;
  for (const runtime::ThreadProfile &Thread : Registry.threads()) {
    if (!Thread.Registered)
      continue;
    ThreadPrediction Prediction;
    Prediction.Tid = Thread.Tid;
    Prediction.RealRuntime = Thread.runtime();
    Prediction.SampledCycles = Thread.SampledCycles;

    const ThreadLineStats *OnObject = Profile.threadStats(Thread.Tid);
    if (OnObject) {
      Prediction.CyclesOnObject = OnObject->Cycles;
      Prediction.AccessesOnObject = OnObject->Accesses;
    }

    // EQ.1 restricted to thread t: PredCycles_O(t) = Aver * Accesses_O(t).
    double PredCyclesO = Result.AverageNoFsLatency *
                         static_cast<double>(Prediction.AccessesOnObject);
    // Page assessment: the fix removes surcharges, it cannot make the
    // thread's accesses slower than it measured them.
    if (ClampToMeasured)
      PredCyclesO = std::min(
          PredCyclesO, static_cast<double>(Prediction.CyclesOnObject));
    TotalRemoval +=
        std::max(0.0, static_cast<double>(Prediction.CyclesOnObject) -
                          PredCyclesO);
    ObjectPredictions.push_back(PredCyclesO);
    Result.Threads.push_back(Prediction);
  }

  // Distance-weighted removal cap (page assessment with a remoteByDistance
  // breakdown only): what a placement fix can remove is the excess the
  // remote traffic cost beyond the local baseline, bucket by bucket — a
  // far-distance bucket carries proportionally more removable excess per
  // access than a near one. When the per-thread removals claim more than
  // that, each thread's removal scales down proportionally. Uniform
  // topologies carry no breakdown and keep the pre-distance arithmetic
  // exactly.
  double RemovalScale = 1.0;
  if (ClampToMeasured && !Profile.RemoteByDistance.empty() &&
      TotalRemoval > 0.0) {
    double Removable = 0.0;
    for (const RemoteDistanceStats &Bucket : Profile.RemoteByDistance)
      Removable += std::max(
          0.0, static_cast<double>(Bucket.Cycles) -
                   Result.AverageNoFsLatency *
                       static_cast<double>(Bucket.Accesses));
    if (Removable < TotalRemoval)
      RemovalScale = Removable / TotalRemoval;
  }

  // Pass 2: compose EQ.2/EQ.3 from the (possibly capped) removals.
  for (size_t I = 0; I < Result.Threads.size(); ++I) {
    ThreadPrediction &Prediction = Result.Threads[I];
    if (Prediction.SampledCycles == 0) {
      // No samples: no evidence of memory time, predict no change.
      Prediction.PredictedCycles = 0.0;
      Prediction.PredictedRuntime = static_cast<double>(Prediction.RealRuntime);
      continue;
    }
    double PredCyclesO = ObjectPredictions[I];
    if (RemovalScale < 1.0) {
      double Removal = std::max(
          0.0, static_cast<double>(Prediction.CyclesOnObject) - PredCyclesO);
      PredCyclesO = static_cast<double>(Prediction.CyclesOnObject) -
                    Removal * RemovalScale;
    }
    // EQ.2. Cycles_O(t) <= Cycles_t by construction, but clamp anyway so
    // a pathological profile cannot predict negative cycles.
    double PredCycles = static_cast<double>(Prediction.SampledCycles) -
                        static_cast<double>(Prediction.CyclesOnObject) +
                        PredCyclesO;
    PredCycles = std::max(PredCycles, PredCyclesO);
    Prediction.PredictedCycles = PredCycles;
    // EQ.3: runtime scales with sampled access cycles.
    Prediction.PredictedRuntime =
        PredCycles / static_cast<double>(Prediction.SampledCycles) *
        static_cast<double>(Prediction.RealRuntime);
  }

  auto PredictionFor = [&](ThreadId Tid) -> const ThreadPrediction * {
    for (const ThreadPrediction &P : Result.Threads)
      if (P.Tid == Tid)
        return &P;
    return nullptr;
  };

  // --- Step 3 (EQ.4): recompose the application from its phases.
  if (Result.ForkJoinModel && !Phases.phases().empty()) {
    double Predicted = 0.0;
    for (const runtime::ExecutionPhase &Phase : Phases.phases()) {
      if (!Phase.Parallel) {
        // Serial phases have no false sharing by definition; unchanged.
        Predicted += static_cast<double>(Phase.span());
        continue;
      }
      // "The length of each phase is decided by the thread with the longest
      // execution time." The gap between the phase span and the longest
      // thread (spawn/join bookkeeping) is preserved.
      uint64_t MaxReal = 0;
      double MaxPredicted = 0.0;
      for (ThreadId Member : Phase.Members) {
        const ThreadPrediction *P = PredictionFor(Member);
        if (!P)
          continue;
        MaxReal = std::max(MaxReal, P->RealRuntime);
        MaxPredicted = std::max(MaxPredicted, P->PredictedRuntime);
      }
      double Overhead =
          static_cast<double>(Phase.span()) - static_cast<double>(MaxReal);
      Predicted += std::max(0.0, Overhead) + MaxPredicted;
    }
    Result.PredictedAppRuntime = Predicted;
  } else {
    // Outside the fork-join model the paper offers no composition rule; we
    // fall back to scaling the program by the aggregate thread prediction,
    // flagged via ForkJoinModel=false.
    double RealSum = 0.0, PredSum = 0.0;
    for (const ThreadPrediction &P : Result.Threads) {
      RealSum += static_cast<double>(P.RealRuntime);
      PredSum += P.PredictedRuntime;
    }
    double Scale = RealSum > 0.0 ? PredSum / RealSum : 1.0;
    Result.PredictedAppRuntime = static_cast<double>(AppRuntime) * Scale;
  }

  if (Result.PredictedAppRuntime > 0.0)
    Result.ImprovementFactor =
        static_cast<double>(AppRuntime) / Result.PredictedAppRuntime;
  return Result;
}
