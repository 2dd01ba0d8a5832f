//===- driver/SessionOptions.h - CLI flag -> session config ----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validated bridge between `cheetah-profile`'s command line and a
/// SessionConfig: one function registers every profiling flag, another
/// checks each value against the constraints the underlying components
/// assert on and builds the configuration — including importing a real
/// machine's topology via `--numa-topology=FILE`.
///
/// The split exists so the validation path is *testable*: bad flag values
/// and hostile topology files must produce error strings (the CLI prints
/// them and exits 1), never reach a `CHEETAH_ASSERT` and abort — in
/// release builds as much as debug ones. The regression suite drives
/// buildSessionOptions directly with adversarial argv vectors.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_DRIVER_SESSIONOPTIONS_H
#define CHEETAH_DRIVER_SESSIONOPTIONS_H

#include "driver/ProfileSession.h"
#include "support/CommandLine.h"

#include <string>
#include <vector>

namespace cheetah {
namespace driver {

/// Registers the profiling-configuration flags `cheetah-profile` exposes
/// (workload selection and shaping, detection granularity, topology,
/// sampling backend: `--backend=sim|trace:FILE`, `--record-trace=FILE`).
/// Output/formatting flags stay in the tool itself.
void addSessionFlags(FlagSet &Flags);

/// Everything buildSessionOptions resolves.
struct SessionOptions {
  SessionConfig Config;
  /// Non-fatal diagnostics the CLI prints to stderr (e.g. a page-mode run
  /// on a single-node topology, which can never fire).
  std::vector<std::string> Warnings;
};

/// Bounds accepted for `--threads` and `--sampling-period`; the upper
/// bounds are far above anything useful but keep the downstream
/// fixed-size structures (thread registries, batch tables) honest.
inline constexpr int64_t MaxThreads = 1024;
inline constexpr int64_t MaxSamplingPeriod = 1 << 30;
/// Upper bound for `--scale`: every workload's size arithmetic stays
/// within 64 bits at MaxThreads x MaxScale, so a scale the arenas cannot
/// hold fails cleanly in driver::buildProgram instead of overflowing.
inline constexpr double MaxScale = 1e6;

/// Validates every parsed flag value and fills \p Out. \returns false
/// with a descriptive \p Error on the first violation; never asserts or
/// aborts on bad input. `--numa-topology=FILE` is loaded and validated
/// here (node count, distance-matrix symmetry/diagonal, pinning ranges),
/// and conflicts with explicitly passed `--numa-nodes`/`--page-size` are
/// errors rather than silent overrides.
bool buildSessionOptions(const FlagSet &Flags, SessionOptions &Out,
                         std::string &Error);

} // namespace driver
} // namespace cheetah

#endif // CHEETAH_DRIVER_SESSIONOPTIONS_H
