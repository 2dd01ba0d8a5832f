//===- pmu/SamplingPolicy.h - Instruction-based sampling policy -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread instruction countdown implementing "one sample out of a
/// predefined number of instructions" (paper Section 2.1, default one out of
/// 64K). Real PMUs randomize the exact reset value to avoid lock-step
/// aliasing with loop bodies; the policy reproduces that with a deterministic
/// PRNG so simulations stay repeatable.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_PMU_SAMPLINGPOLICY_H
#define CHEETAH_PMU_SAMPLINGPOLICY_H

#include "support/Assert.h"
#include "support/Random.h"

#include <cstdint>

namespace cheetah {
namespace pmu {

/// Countdown-based sampling decision for one thread.
class SamplingPolicy {
public:
  /// \param Period mean instructions between samples (must be >= 1).
  /// \param JitterFraction fraction of the period randomized around the
  ///        mean, in [0, 1); 0 means a strict fixed period.
  /// \param Seed PRNG seed for the jitter.
  /// Asserts on invalid values: flag-sourced ones pass PmuConfig::fromSpec
  /// first.
  SamplingPolicy(uint64_t Period, double JitterFraction, uint64_t Seed)
      : Period(Period), JitterFraction(JitterFraction), Rng(Seed) {
    CHEETAH_ASSERT(Period >= 1, "sampling period must be at least 1");
    CHEETAH_ASSERT(JitterFraction >= 0.0 && JitterFraction < 1.0,
                   "jitter fraction must be in [0, 1)");
    Remaining = nextInterval();
  }

  /// Advances by \p Instructions retired instructions.
  /// \returns the number of sample points crossed (usually 0 or 1; large
  /// compute blocks can cross several).
  uint32_t advance(uint64_t Instructions) {
    uint32_t Fired = 0;
    while (Instructions >= Remaining) {
      Instructions -= Remaining;
      Remaining = nextInterval();
      ++Fired;
    }
    Remaining -= Instructions;
    return Fired;
  }

  /// Mean sampling period.
  uint64_t period() const { return Period; }

private:
  uint64_t nextInterval() {
    if (JitterFraction <= 0.0)
      return Period;
    // Uniform in [Period*(1-j), Period*(1+j)], at least 1.
    uint64_t Spread =
        static_cast<uint64_t>(static_cast<double>(Period) * JitterFraction);
    if (Spread == 0)
      return Period;
    uint64_t Lo = Period > Spread ? Period - Spread : 1;
    return Rng.nextInRange(Lo, Period + Spread);
  }

  uint64_t Period;
  double JitterFraction;
  SplitMix64 Rng;
  uint64_t Remaining;
};

} // namespace pmu
} // namespace cheetah

#endif // CHEETAH_PMU_SAMPLINGPOLICY_H
