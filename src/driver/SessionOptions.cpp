//===- driver/SessionOptions.cpp - CLI flag -> session config -------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/SessionOptions.h"

#include "mem/TopologyFile.h"
#include "pmu/PmuConfig.h"
#include "support/StringUtils.h"

using namespace cheetah;
using namespace cheetah::driver;

void cheetah::driver::addSessionFlags(FlagSet &Flags) {
  Flags.addString("workload", "linear_regression", "workload model to run");
  Flags.addInt("threads", 16, "child threads per parallel phase");
  Flags.addDouble("scale", 1.0, "work multiplier");
  Flags.addInt("sampling-period", 8192, "instructions between PMU samples");
  Flags.addInt("line-size", 64, "cache line size in bytes");
  Flags.addString("granularity", "line",
                  "detection granularity: line, page, or both");
  Flags.addInt("numa-nodes", 0,
               "simulated NUMA nodes (0 = auto: 1 for line-only runs, 2 "
               "when page tracking is on)");
  Flags.addInt("page-size", 4096, "page size in bytes for page tracking");
  Flags.addString("numa-topology", "",
                  "import a real-machine topology (cheetah-topology-v1 "
                  "JSON: node count, distance matrix, CPU lists / thread "
                  "pinning); overrides --numa-nodes/--page-size");
  Flags.addBool("fix", false, "apply the padding fix to known FS sites");
  Flags.addInt("seed", 0x43484545, "workload RNG seed");
  Flags.addString("backend", "sim",
                  "sampling backend: 'sim' (multicore simulator) or "
                  "'trace:FILE' (replay a recorded cheetah-trace-v1 file; "
                  "pass the same workload flags as the recording run)");
  Flags.addString("record-trace", "",
                  "tee the backend's sample stream into this "
                  "cheetah-trace-v1 file for later --backend=trace replay");
}

bool cheetah::driver::buildSessionOptions(const FlagSet &Flags,
                                          SessionOptions &Out,
                                          std::string &Error) {
  // Every value below feeds a constructor that CHEETAH_ASSERTs its
  // invariants; external input must be rejected with a clean error before
  // it gets there.
  int64_t Threads = Flags.getInt("threads");
  if (Threads < 1 || Threads > MaxThreads) {
    Error = formatString("--threads must be in [1, %lld] (got %lld)",
                         static_cast<long long>(MaxThreads),
                         static_cast<long long>(Threads));
    return false;
  }

  int64_t SamplingPeriod = Flags.getInt("sampling-period");
  if (SamplingPeriod < 1 || SamplingPeriod > MaxSamplingPeriod) {
    Error = formatString(
        "--sampling-period must be in [1, %lld] (got %lld)",
        static_cast<long long>(MaxSamplingPeriod),
        static_cast<long long>(SamplingPeriod));
    return false;
  }

  const std::string &Backend = Flags.getString("backend");
  std::string ReplayTracePath;
  bool Replay = false;
  if (Backend.rfind("trace:", 0) == 0) {
    Replay = true;
    ReplayTracePath = Backend.substr(6);
    if (ReplayTracePath.empty()) {
      Error = "--backend=trace: requires a file ('trace:FILE')";
      return false;
    }
  } else if (Backend != "sim") {
    Error = formatString(
        "--backend must be 'sim' or 'trace:FILE' (got '%s')",
        Backend.c_str());
    return false;
  }

  const std::string &RecordTracePath = Flags.getString("record-trace");
  if (Replay && !RecordTracePath.empty()) {
    Error = "--record-trace cannot be combined with --backend=trace:FILE "
            "(replaying a trace while recording it would duplicate the "
            "input)";
    return false;
  }

  int64_t LineSize = Flags.getInt("line-size");
  std::string GeometryError;
  if (LineSize < 0)
    GeometryError = formatString("cache line size must be non-negative "
                                 "(got %lld)",
                                 static_cast<long long>(LineSize));
  else
    CacheGeometry::validate(static_cast<uint64_t>(LineSize), GeometryError);
  if (!GeometryError.empty()) {
    // The validator owns the constraint text so this message can never go
    // stale against the geometry's actual rule.
    Error = "--line-size: " + GeometryError;
    return false;
  }

  double Scale = Flags.getDouble("scale");
  if (!(Scale > 0.0 && Scale <= MaxScale)) {
    Error = formatString("--scale must be > 0 and at most %g (got %g)",
                         MaxScale, Scale);
    return false;
  }

  const std::string &Granularity = Flags.getString("granularity");
  if (Granularity != "line" && Granularity != "page" &&
      Granularity != "both") {
    Error = formatString("--granularity must be 'line', 'page', or 'both' "
                         "(got '%s')",
                         Granularity.c_str());
    return false;
  }
  bool TrackPages = Granularity != "line";

  int64_t NumaNodesFlag = Flags.getInt("numa-nodes");
  if (NumaNodesFlag < 0 ||
      NumaNodesFlag > static_cast<int64_t>(NumaTopology::MaxNodes)) {
    Error = formatString(
        "--numa-nodes must be in [0, %u], where 0 means auto: 1 for "
        "line-only runs, 2 when page tracking is on (got %lld)",
        NumaTopology::MaxNodes, static_cast<long long>(NumaNodesFlag));
    return false;
  }

  int64_t PageSizeFlag = Flags.getInt("page-size");
  std::string PageError;
  if (PageSizeFlag < 0)
    PageError = formatString("page size must be non-negative (got %lld)",
                             static_cast<long long>(PageSizeFlag));
  else {
    // Delegate the constraint to the topology validator (same pattern as
    // --line-size above) so this message can never go stale against what
    // fromSpec actually accepts.
    NumaTopologySpec Probe;
    Probe.PageSize = static_cast<uint64_t>(PageSizeFlag);
    NumaTopology::validateSpec(Probe, PageError);
  }
  if (!PageError.empty()) {
    Error = "--page-size: " + PageError;
    return false;
  }

  NumaTopology Topology;
  const std::string &TopologyPath = Flags.getString("numa-topology");
  if (!TopologyPath.empty()) {
    NumaTopologySpec Spec;
    Spec.PageSize = static_cast<uint64_t>(PageSizeFlag);
    if (!loadTopologyFile(TopologyPath, Spec, Error)) {
      Error = "--numa-topology: " + Error;
      return false;
    }
    // An explicit flag that disagrees with the imported machine is a
    // conflict, not a silent override in either direction.
    if (Flags.wasSet("numa-nodes") && NumaNodesFlag != 0 &&
        static_cast<uint32_t>(NumaNodesFlag) != Spec.Nodes) {
      Error = formatString(
          "--numa-nodes=%lld conflicts with '%s' (%u nodes)",
          static_cast<long long>(NumaNodesFlag), TopologyPath.c_str(),
          Spec.Nodes);
      return false;
    }
    if (Flags.wasSet("page-size") &&
        Spec.PageSize != static_cast<uint64_t>(PageSizeFlag)) {
      Error = formatString(
          "--page-size=%lld conflicts with '%s' (page size %llu)",
          static_cast<long long>(PageSizeFlag), TopologyPath.c_str(),
          static_cast<unsigned long long>(Spec.PageSize));
      return false;
    }
    if (!NumaTopology::fromSpec(Spec, Topology, Error)) {
      Error = "--numa-topology: " + Error;
      return false;
    }
  } else {
    NumaTopologySpec Spec;
    Spec.Nodes = static_cast<uint32_t>(NumaNodesFlag);
    if (Spec.Nodes == 0)
      Spec.Nodes = TrackPages ? 2 : 1; // auto
    Spec.PageSize = static_cast<uint64_t>(PageSizeFlag);
    if (!NumaTopology::fromSpec(Spec, Topology, Error))
      return false; // unreachable after the flag checks, but never assert
  }

  if (TrackPages && !Topology.multiNode())
    Out.Warnings.push_back(
        "--granularity=" + Granularity +
        " with a single-node topology: the page detector can never "
        "observe cross-node sharing or remote placement, so page findings "
        "are structurally impossible (raise --numa-nodes or import "
        "--numa-topology)");

  SessionConfig &Config = Out.Config;
  Config.Profiler.Geometry =
      CacheGeometry(static_cast<uint64_t>(LineSize));
  // PR-5 convention: the PMU configuration goes through its fallible
  // factory even after the range checks above, so the backend constructors
  // downstream (which assert) can never see a flag-sourced violation.
  std::string PmuError;
  pmu::PmuConfig PmuSpec = Config.Profiler.Pmu;
  PmuSpec.SamplingPeriod = static_cast<uint64_t>(SamplingPeriod);
  if (!pmu::PmuConfig::fromSpec(PmuSpec, Config.Profiler.Pmu, PmuError)) {
    Error = "--sampling-period: " + PmuError;
    return false;
  }
  Config.Backend =
      Replay ? SampleBackend::TraceReplay : SampleBackend::Simulator;
  Config.ReplayTracePath = ReplayTracePath;
  Config.RecordTracePath = RecordTracePath;
  Config.Profiler.Topology = Topology;
  Config.Profiler.Detect.TrackLines = Granularity != "page";
  Config.Profiler.Detect.TrackPages = TrackPages;
  Config.Workload.Threads = static_cast<uint32_t>(Threads);
  Config.Workload.Scale = Scale;
  Config.Workload.FixFalseSharing = Flags.getBool("fix");
  Config.Workload.Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  return true;
}
