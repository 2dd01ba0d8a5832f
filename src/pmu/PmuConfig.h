//===- pmu/PmuConfig.h - PMU configuration ----------------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration shared by all PMU backends, and the modeled cost of the
/// sampling machinery. The costs reproduce the overhead sources the paper
/// calls out in Section 4.1: the signal-handler work per sample, which
/// follows from the sampling period, and the six pfmon APIs plus six
/// syscalls of per-thread PMU setup that dominate for thread-heavy
/// applications (kmeans, x264).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_PMU_PMUCONFIG_H
#define CHEETAH_PMU_PMUCONFIG_H

#include <cstdint>
#include <string>

namespace cheetah {
namespace pmu {

/// The paper's deployment sampling period: one out of 64K instructions.
inline constexpr uint64_t DeploymentSamplingPeriod = 65536;

/// Modeled cycles consumed by one sample delivery at the deployment period:
/// trap, signal dispatch to the owning thread (F_SETOWN_EX), handler body,
/// sigreturn.
inline constexpr uint64_t DeploymentHandlerCycles = 3000;

/// Modeled cycles to program the PMU registers for a new thread: six pfmon
/// API calls and six additional system calls (paper Section 4.1).
inline constexpr uint64_t ThreadSetupCycles = 50000;

/// \returns the modeled cycles of one sample delivery at \p SamplingPeriod:
/// DeploymentHandlerCycles scaled linearly from the deployment period, and
/// at least 1. Simulations compress execution length by orders of
/// magnitude versus the paper's >=5-second runs; sampling denser for
/// statistical richness must not inflate the modeled overhead, so the
/// per-sample cost scales with the density.
constexpr uint64_t sampleHandlerCycles(uint64_t SamplingPeriod) {
  uint64_t Cycles =
      DeploymentHandlerCycles * SamplingPeriod / DeploymentSamplingPeriod;
  return Cycles ? Cycles : 1;
}

/// Tunables for a sampling PMU.
struct PmuConfig {
  /// Mean instructions between samples.
  uint64_t SamplingPeriod = DeploymentSamplingPeriod;
  /// Randomization applied to each inter-sample interval.
  double JitterFraction = 0.25;
  /// PRNG seed for the jitter streams.
  uint64_t Seed = 0x43484545; // "CHEE"

  /// Checks \p Config against the constraints every backend's sampling
  /// policy asserts on (PR-5 convention: flag- and file-reachable values
  /// go through a fallible validator, never straight into an asserting
  /// constructor). \returns false with a descriptive \p Error on the
  /// first violation.
  static bool validateSpec(const PmuConfig &Config, std::string &Error) {
    if (Config.SamplingPeriod < 1) {
      Error = "sampling period must be at least 1";
      return false;
    }
    if (!(Config.JitterFraction >= 0.0) || Config.JitterFraction >= 1.0) {
      // The negated >= also rejects NaN, which a plain < would let through.
      Error = "jitter fraction must be in [0, 1)";
      return false;
    }
    return true;
  }

  /// Validates \p Spec and copies it into \p Out on success.
  static bool fromSpec(const PmuConfig &Spec, PmuConfig &Out,
                       std::string &Error) {
    if (!validateSpec(Spec, Error))
      return false;
    Out = Spec;
    return true;
  }
};

} // namespace pmu
} // namespace cheetah

#endif // CHEETAH_PMU_PMUCONFIG_H
