//===- workloads/Workload.h - Workload model framework ----------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Framework for the evaluated applications. The paper measures Cheetah on
/// the Phoenix and PARSEC suites; since the profiler only observes memory
/// access patterns, each application is reproduced as a scaled-down *access
/// pattern model*: the same object layout, thread structure (fork-join
/// phases, thread counts), read/write mix, and — where the paper found them
/// — the same false-sharing sites, with a `FixFalseSharing` switch that
/// applies the paper's padding fix. Workloads allocate through the Cheetah
/// heap / global registry via WorkloadContext so reports carry real
/// callsites and symbol names.
///
/// Thread bodies are free coroutine functions taking parameters by value
/// (never capturing lambdas: a coroutine lambda's captures die with the
/// lambda object while the frame lives on).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_WORKLOADS_WORKLOAD_H
#define CHEETAH_WORKLOADS_WORKLOAD_H

#include "mem/CacheGeometry.h"
#include "sim/ForkJoinProgram.h"
#include "support/Random.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cheetah {
namespace workloads {

/// Knobs common to every workload.
struct WorkloadConfig {
  /// Child threads per parallel phase (the paper evaluates with 16).
  uint32_t Threads = 16;
  /// Work multiplier; 1 is sized for sub-second simulation.
  double Scale = 1.0;
  /// Apply the paper's padding fix to known false-sharing sites.
  bool FixFalseSharing = false;
  /// Seed for any stochastic access patterns.
  uint64_t Seed = 0x43484545;
  /// Simulated NUMA node count the NUMA workloads lay their data out for;
  /// should match the profiler topology (threads interleave tid % nodes).
  uint32_t NumaNodes = 2;
  /// Page size the NUMA workloads pad/align to; should match the topology.
  uint64_t PageBytes = 4096;
  /// Explicit thread→node pinning map mirroring the profiler topology's
  /// (NumaTopology::threadPinning); empty = the tid % NumaNodes
  /// interleave. NUMA workloads lay data out per node, so their layout
  /// must agree with wherever the threads actually run.
  std::vector<uint32_t> ThreadNodes;

  /// Node the thread executing parallel body \p BodyIndex runs on (body T
  /// runs as tid T + 1; the main thread, tid 0, is nodeOfTid(0)). Matches
  /// NumaTopology::nodeOf for the same configuration.
  uint32_t nodeOfBody(uint32_t BodyIndex) const {
    return nodeOfTid(BodyIndex + 1);
  }
  uint32_t nodeOfTid(uint32_t Tid) const {
    if (!ThreadNodes.empty())
      return ThreadNodes[Tid % ThreadNodes.size()];
    uint32_t Nodes = NumaNodes ? NumaNodes : 1;
    return Tid % Nodes;
  }
};

/// Allocation services handed to a workload at build time (backed by the
/// profiler's heap and global registry, or by a plain arena in baseline-only
/// runs).
struct WorkloadContext {
  /// Allocates from the Cheetah heap recording File:Line as the callsite.
  /// Returns the object's start address.
  std::function<uint64_t(uint64_t Size, const std::string &File,
                         unsigned Line)>
      Allocate;
  /// Defines a named global; when \p LineAligned the global starts on a
  /// cache-line boundary.
  std::function<uint64_t(const std::string &Name, uint64_t Size,
                         bool LineAligned)>
      DefineGlobal;
  /// Cache geometry in effect (workload padding decisions depend on it).
  CacheGeometry Geometry{64};

  uint64_t allocate(uint64_t Size, const std::string &File, unsigned Line) {
    return Allocate(Size, File, Line);
  }
  uint64_t global(const std::string &Name, uint64_t Size,
                  bool LineAligned = false) {
    return DefineGlobal(Name, Size, LineAligned);
  }
};

/// One evaluated application.
class Workload {
public:
  virtual ~Workload() = default;

  /// Short identifier, e.g. "linear_regression".
  virtual std::string name() const = 0;

  /// Origin suite: "phoenix", "parsec", or "micro".
  virtual std::string suite() const = 0;

  /// One-line description of the modeled access pattern.
  virtual std::string description() const = 0;

  /// True if the paper reports a significant false-sharing instance that
  /// Cheetah detects in this application.
  virtual bool hasSignificantFalseSharing() const { return false; }

  /// True if the application contains a minor false-sharing instance that
  /// sampling misses (Figure 7's histogram/reverse_index/word_count).
  virtual bool hasMinorFalseSharing() const { return false; }

  /// Lower bound on the predicted improvement factor the broken variant's
  /// significant *page* findings must carry under the reference
  /// configuration (2 nodes, 8 threads, dense sampling). 0 means the
  /// workload has no page-granularity pathology. The differential
  /// assessment tests and the CI diff gate anchor on this constant.
  virtual double expectedPageImprovementFloor() const { return 0.0; }

  /// Builds the fork-join program. Allocations go through \p Ctx.
  virtual sim::ForkJoinProgram build(WorkloadContext &Ctx,
                                     const WorkloadConfig &Config) const = 0;
};

/// Instantiates every modeled application (8 Phoenix + 9 PARSEC + micro).
/// No static constructors: callers own the instances.
std::vector<std::unique_ptr<Workload>> createAllWorkloads();

/// \returns the workload named \p Name, or nullptr.
std::unique_ptr<Workload> createWorkload(const std::string &Name);

} // namespace workloads
} // namespace cheetah

#endif // CHEETAH_WORKLOADS_WORKLOAD_H
