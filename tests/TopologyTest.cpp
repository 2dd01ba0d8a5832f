//===- tests/TopologyTest.cpp - NUMA topology import and validation --------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distance-matrix NUMA topology layer end to end: NumaTopologySpec
/// validation (the fallible path every file- and flag-sourced construction
/// goes through), distance/pinning semantics, the cheetah-topology-v1 file
/// parser (including truncation/mutation fuzz — hostile files must error,
/// never assert or crash), and the CLI-validation regressions for
/// `cheetah-profile`'s flags: `--line-size=48`, a negative `--threads`, or
/// a zero `--sampling-period` must come back as error strings (exit-1
/// material), not CHEETAH_ASSERT aborts.
///
//===----------------------------------------------------------------------===//

#include "driver/SessionOptions.h"
#include "mem/TopologyFile.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

using namespace cheetah;

namespace {

NumaTopologySpec asymmetricSpec() {
  NumaTopologySpec Spec;
  Spec.Nodes = 4;
  Spec.PageSize = 4096;
  Spec.Distances = {{0, 16, 32, 48},
                    {16, 0, 48, 32},
                    {32, 48, 0, 16},
                    {48, 32, 16, 0}};
  Spec.ThreadPinning = {0, 1, 2, 3, 0, 1, 2, 3};
  return Spec;
}

NumaTopology mustBuild(const NumaTopologySpec &Spec) {
  NumaTopology Topology;
  std::string Error;
  EXPECT_TRUE(NumaTopology::fromSpec(Spec, Topology, Error)) << Error;
  return Topology;
}

const char *ValidDocument = R"({
  "schema": "cheetah-topology-v1",
  "nodes": 4,
  "page_size": 8192,
  "distances": [[0, 16, 32, 48],
                [16, 0, 48, 32],
                [32, 48, 0, 16],
                [48, 32, 16, 0]],
  "pinning": [0, 1, 2, 3, 0, 1, 2, 3]
})";

//===----------------------------------------------------------------------===//
// Spec validation: the fallible factory path
//===----------------------------------------------------------------------===//

TEST(TopologySpecTest, ValidSpecBuilds) {
  NumaTopology Topology = mustBuild(asymmetricSpec());
  EXPECT_EQ(Topology.nodeCount(), 4u);
  EXPECT_EQ(Topology.pageSize(), 4096u);
  EXPECT_EQ(Topology.distance(0, 3), 48u);
  EXPECT_EQ(Topology.distance(3, 0), 48u);
  EXPECT_EQ(Topology.distance(2, 2), 0u);
  EXPECT_EQ(Topology.minRemoteDistance(), 16u);
  EXPECT_EQ(Topology.maxRemoteDistance(), 48u);
  EXPECT_FALSE(Topology.uniformRemoteDistances());
  EXPECT_TRUE(Topology.pinned());
}

TEST(TopologySpecTest, DefaultTopologyIsUniform) {
  NumaTopology Topology(4, 4096);
  EXPECT_TRUE(Topology.uniformRemoteDistances());
  EXPECT_EQ(Topology.minRemoteDistance(), Topology.maxRemoteDistance());
  EXPECT_EQ(Topology.distance(1, 3), NumaTopology::DefaultRemoteDistance);
  EXPECT_FALSE(Topology.pinned());
}

TEST(TopologySpecTest, ValueInitializedConfigsHoldTheDefaultTopology) {
  // Copy-list-initializes each config's topology from `{}`, which needs a
  // non-explicit default constructor.
  for (const NumaTopology &Topology :
       {core::ProfilerConfig{}.Topology,
        driver::SessionConfig{}.Profiler.Topology}) {
    EXPECT_EQ(Topology.nodeCount(), 1u);
    EXPECT_EQ(Topology.pageSize(), 4096u);
  }
}

TEST(TopologySpecTest, RejectionsNameTheViolation) {
  struct Case {
    void (*Mutate)(NumaTopologySpec &);
    const char *ErrorNeedle;
  };
  const Case Cases[] = {
      {[](NumaTopologySpec &S) { S.Nodes = 0; }, "node count"},
      {[](NumaTopologySpec &S) { S.Nodes = NumaTopology::MaxNodes + 1; },
       "node count"},
      {[](NumaTopologySpec &S) { S.PageSize = 48; }, "page size"},
      {[](NumaTopologySpec &S) { S.PageSize = 4095; }, "page size"},
      {[](NumaTopologySpec &S) { S.Distances.pop_back(); }, "rows"},
      {[](NumaTopologySpec &S) { S.Distances[1].pop_back(); }, "entries"},
      {[](NumaTopologySpec &S) { S.Distances[2][2] = 5; }, "diagonal"},
      {[](NumaTopologySpec &S) { S.Distances[0][1] = 17; }, "symmetric"},
      {[](NumaTopologySpec &S) { S.Distances[0][1] = S.Distances[1][0] = 0; },
       "remote distance"},
      {[](NumaTopologySpec &S) { S.ThreadPinning[3] = 4; }, "pinning"},
  };
  for (const Case &Test : Cases) {
    NumaTopologySpec Spec = asymmetricSpec();
    Test.Mutate(Spec);
    NumaTopology Topology;
    std::string Error;
    EXPECT_FALSE(NumaTopology::fromSpec(Spec, Topology, Error));
    EXPECT_NE(Error.find(Test.ErrorNeedle), std::string::npos) << Error;
  }
}

TEST(TopologySpecTest, EmptyMatrixAndPinningMeanDefaults) {
  NumaTopologySpec Spec;
  Spec.Nodes = 3;
  NumaTopology Topology = mustBuild(Spec);
  EXPECT_TRUE(Topology.uniformRemoteDistances());
  EXPECT_FALSE(Topology.pinned());
  // Interleave affinity: tid % nodes.
  EXPECT_EQ(Topology.nodeOf(0), 0u);
  EXPECT_EQ(Topology.nodeOf(4), 1u);
}

//===----------------------------------------------------------------------===//
// Distance semantics: surcharge scaling and affinity
//===----------------------------------------------------------------------===//

TEST(TopologyDistanceTest, SurchargeExactAtMinimumRemoteDistance) {
  NumaTopology Topology = mustBuild(asymmetricSpec());
  // The normalization contract: the nearest remote pair pays exactly the
  // base surcharge, which is what keeps uniform topologies bit-compatible
  // with the pre-distance binary local/remote model.
  EXPECT_EQ(Topology.scaledRemoteCycles(90, 0, 1), 90u);
  EXPECT_EQ(Topology.scaledRemoteCycles(90, 0, 2), 180u);
  EXPECT_EQ(Topology.scaledRemoteCycles(90, 0, 3), 270u);
  EXPECT_EQ(Topology.scaledRemoteCycles(90, 2, 2), 0u);

  NumaTopology Uniform(2, 4096);
  EXPECT_EQ(Uniform.scaledRemoteCycles(123, 0, 1), 123u);
}

TEST(TopologyDistanceTest, SurchargeMonotoneInDistanceRandomized) {
  // Property over random valid symmetric matrices: scaledRemoteCycles is
  // monotone in the pair's distance (farther never costs less).
  SplitMix64 Rng(0x70504F);
  for (int Trial = 0; Trial < 50; ++Trial) {
    uint32_t Nodes = 2 + static_cast<uint32_t>(Rng.nextBelow(7));
    NumaTopologySpec Spec;
    Spec.Nodes = Nodes;
    Spec.Distances.assign(Nodes, std::vector<uint32_t>(Nodes, 0));
    for (uint32_t A = 0; A < Nodes; ++A)
      for (uint32_t B = A + 1; B < Nodes; ++B)
        Spec.Distances[A][B] = Spec.Distances[B][A] =
            1 + static_cast<uint32_t>(Rng.nextBelow(200));
    NumaTopology Topology = mustBuild(Spec);
    uint32_t Base = 1 + static_cast<uint32_t>(Rng.nextBelow(500));
    for (uint32_t A = 0; A < Nodes; ++A)
      for (uint32_t B = 0; B < Nodes; ++B)
        for (uint32_t C = 0; C < Nodes; ++C)
          for (uint32_t D = 0; D < Nodes; ++D)
            if (Topology.distance(A, B) <= Topology.distance(C, D)) {
              EXPECT_LE(Topology.scaledRemoteCycles(Base, A, B),
                        Topology.scaledRemoteCycles(Base, C, D));
            }
  }
}

TEST(TopologyDistanceTest, PinningOverridesInterleaveAndWraps) {
  NumaTopologySpec Spec = asymmetricSpec();
  Spec.ThreadPinning = {3, 1, 2};
  NumaTopology Topology = mustBuild(Spec);
  EXPECT_EQ(Topology.nodeOf(0), 3u);
  EXPECT_EQ(Topology.nodeOf(1), 1u);
  EXPECT_EQ(Topology.nodeOf(2), 2u);
  EXPECT_EQ(Topology.nodeOf(3), 3u); // wraps around the map
  EXPECT_EQ(Topology.nodeOf(7), 1u);
}

//===----------------------------------------------------------------------===//
// Topology file parsing
//===----------------------------------------------------------------------===//

TEST(TopologyFileTest, ValidDocumentRoundTrips) {
  NumaTopologySpec Spec;
  std::string Error;
  ASSERT_TRUE(parseTopologyText(ValidDocument, Spec, Error)) << Error;
  EXPECT_EQ(Spec.Nodes, 4u);
  EXPECT_EQ(Spec.PageSize, 8192u);
  ASSERT_EQ(Spec.Distances.size(), 4u);
  EXPECT_EQ(Spec.Distances[0][3], 48u);
  ASSERT_EQ(Spec.ThreadPinning.size(), 8u);
  EXPECT_EQ(Spec.ThreadPinning[3], 3u);
}

TEST(TopologyFileTest, AbsentFieldsKeepCallerDefaults) {
  NumaTopologySpec Spec;
  Spec.PageSize = 16384; // the --page-size flag value
  std::string Error;
  ASSERT_TRUE(parseTopologyText(
      R"({"schema": "cheetah-topology-v1", "nodes": 2})", Spec, Error))
      << Error;
  EXPECT_EQ(Spec.Nodes, 2u);
  EXPECT_EQ(Spec.PageSize, 16384u);
  EXPECT_TRUE(Spec.Distances.empty());
  EXPECT_TRUE(Spec.ThreadPinning.empty());
}

TEST(TopologyFileTest, CpuListsDerivePinning) {
  // Without an explicit pinning map, threads pin to the node owning the
  // t-th CPU in ascending CPU order — how a pinning script walks the
  // machine. CPUs deliberately listed out of order here.
  NumaTopologySpec Spec;
  std::string Error;
  ASSERT_TRUE(parseTopologyText(
      R"({"schema": "cheetah-topology-v1", "nodes": 2,
          "cpus": [[2, 0], [1, 3]]})",
      Spec, Error))
      << Error;
  ASSERT_EQ(Spec.ThreadPinning.size(), 4u);
  EXPECT_EQ(Spec.ThreadPinning[0], 0u); // cpu 0 on node 0
  EXPECT_EQ(Spec.ThreadPinning[1], 1u); // cpu 1 on node 1
  EXPECT_EQ(Spec.ThreadPinning[2], 0u); // cpu 2 on node 0
  EXPECT_EQ(Spec.ThreadPinning[3], 1u); // cpu 3 on node 1
}

TEST(TopologyFileTest, HostileDocumentsErrorByName) {
  const std::pair<const char *, const char *> Cases[] = {
      {"", "invalid JSON"},
      {"[]", "not a JSON object"},
      {R"({"nodes": 2})", "'schema'"},
      {R"({"schema": "cheetah-topology-v2", "nodes": 2})",
       "unsupported schema"},
      {R"({"schema": "cheetah-topology-v1"})", "'nodes'"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 0})", "node count"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 2.5})",
       "non-negative integer"},
      {R"({"schema": "cheetah-topology-v1", "nodes": -2})",
       "non-negative integer"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 99})", "out of range"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 2,
           "distances": [[0, 10]]})",
       "rows"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 2,
           "distances": [[0, 10], [20, 0]]})",
       "symmetric"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 2,
           "distances": "near"})",
       "not an array"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 2,
           "pinning": [0, 2]})",
       "pinning"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 2,
           "cpus": [[0, 0], [1]]})",
       "more than one node list"},
      {R"({"schema": "cheetah-topology-v1", "nodes": 2,
           "cpus": [[], []]})",
       "no CPUs"},
  };
  for (const auto &[Text, Needle] : Cases) {
    NumaTopologySpec Spec;
    std::string Error;
    EXPECT_FALSE(parseTopologyText(Text, Spec, Error)) << Text;
    EXPECT_NE(Error.find(Needle), std::string::npos)
        << "'" << Error << "' should mention '" << Needle << "'";
  }
}

class TopologyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopologyFuzzTest, HostileTopologyInputNeverCrashes) {
  // PropertyTest's fuzz recipe applied to the topology parser: every
  // truncation and random byte mutation of a valid document must either
  // parse or produce an error string — never crash, never assert
  // (ASan-clean with the rest of the suite).
  SplitMix64 Rng(GetParam() ^ 0x4E554D41);
  std::string Text = ValidDocument;
  std::string Error;

  for (size_t Cut = 0; Cut < Text.size(); Cut += 3) {
    NumaTopologySpec Spec;
    if (!parseTopologyText(Text.substr(0, Cut), Spec, Error)) {
      EXPECT_FALSE(Error.empty());
    }
  }
  for (int Mutation = 0; Mutation < 300; ++Mutation) {
    std::string Mutated = Text;
    switch (Rng.nextBelow(3)) {
    case 0:
      Mutated[Rng.nextBelow(Mutated.size())] =
          static_cast<char>(Rng.nextBelow(256));
      break;
    case 1:
      Mutated.insert(Rng.nextBelow(Mutated.size() + 1), 1,
                     static_cast<char>(Rng.nextBelow(256)));
      break;
    default:
      Mutated.erase(Rng.nextBelow(Mutated.size()), 1);
      break;
    }
    NumaTopologySpec Spec;
    if (!parseTopologyText(Mutated, Spec, Error)) {
      EXPECT_FALSE(Error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

//===----------------------------------------------------------------------===//
// CLI validation regressions (the exit-1-not-abort contract)
//===----------------------------------------------------------------------===//

/// Writes \p Text to a fresh file under the test temp dir.
std::string writeTempFile(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::FILE *File = std::fopen(Path.c_str(), "w");
  EXPECT_NE(File, nullptr);
  std::fwrite(Text.data(), 1, Text.size(), File);
  std::fclose(File);
  return Path;
}

/// Parses \p Args the way cheetah-profile's main does and runs the
/// validated config build.
bool buildFromArgs(std::initializer_list<const char *> Args,
                   driver::SessionOptions &Out, std::string &Error) {
  FlagSet Flags;
  driver::addSessionFlags(Flags);
  std::vector<const char *> Argv = {"cheetah-profile"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  if (!Flags.parse(static_cast<int>(Argv.size()), Argv.data(), Error))
    return false;
  return driver::buildSessionOptions(Flags, Out, Error);
}

TEST(SessionOptionsTest, DefaultsBuildCleanly) {
  driver::SessionOptions Options;
  std::string Error;
  ASSERT_TRUE(buildFromArgs({}, Options, Error)) << Error;
  EXPECT_TRUE(Options.Warnings.empty());
  EXPECT_EQ(Options.Granularity, "line");
  EXPECT_EQ(Options.Config.Profiler.Topology.nodeCount(), 1u);
  EXPECT_EQ(Options.Config.Workload.Threads, 16u);
}

TEST(SessionOptionsTest, BadFlagValuesErrorInsteadOfAsserting) {
  // The regression this suite exists for: these values used to be cast
  // straight into CacheGeometry / PmuConfig constructors, where a
  // CHEETAH_ASSERT aborted the tool instead of printing a CLI error.
  const std::pair<const char *, const char *> Cases[] = {
      {"--line-size=48", "--line-size"},
      {"--line-size=0", "--line-size"},
      {"--line-size=-64", "--line-size"},
      {"--threads=0", "--threads"},
      {"--threads=-4", "--threads"},
      {"--threads=100000", "--threads"},
      {"--sampling-period=0", "--sampling-period"},
      {"--sampling-period=-8192", "--sampling-period"},
      {"--scale=0", "--scale"},
      {"--scale=-1.5", "--scale"},
      {"--scale=1e19", "--scale"},
      {"--page-size=1000", "--page-size"},
      {"--granularity=word", "--granularity"},
      {"--numa-nodes=99", "--numa-nodes"},
  };
  for (const auto &[Arg, Needle] : Cases) {
    driver::SessionOptions Options;
    std::string Error;
    EXPECT_FALSE(buildFromArgs({Arg}, Options, Error)) << Arg;
    EXPECT_NE(Error.find(Needle), std::string::npos)
        << "'" << Error << "' should mention '" << Needle << "'";
  }
}

TEST(SessionOptionsTest, NumaNodesErrorDocumentsAutoZero) {
  driver::SessionOptions Options;
  std::string Error;
  ASSERT_FALSE(buildFromArgs({"--numa-nodes=42"}, Options, Error));
  // The bugfixed message: 0 is a valid value meaning auto, and the error
  // must say so instead of presenting [0, 16] as a plain range.
  EXPECT_NE(Error.find("0 means auto"), std::string::npos) << Error;
}

TEST(SessionOptionsTest, SingleNodePageRunWarnsLoudly) {
  driver::SessionOptions Options;
  std::string Error;
  ASSERT_TRUE(buildFromArgs({"--granularity=page", "--numa-nodes=1"},
                            Options, Error))
      << Error;
  ASSERT_EQ(Options.Warnings.size(), 1u);
  EXPECT_NE(Options.Warnings[0].find("single-node"), std::string::npos);

  // The auto default resolves page runs to two nodes: no warning.
  driver::SessionOptions Auto;
  ASSERT_TRUE(buildFromArgs({"--granularity=page"}, Auto, Error)) << Error;
  EXPECT_TRUE(Auto.Warnings.empty());
  EXPECT_EQ(Auto.Config.Profiler.Topology.nodeCount(), 2u);
}

TEST(SessionOptionsTest, TopologyFileImportEndToEnd) {
  std::string Path = writeTempFile("topo_ok.json", ValidDocument);
  driver::SessionOptions Options;
  std::string Error;
  ASSERT_TRUE(buildFromArgs(
      {"--granularity=page", ("--numa-topology=" + Path).c_str()}, Options,
      Error))
      << Error;
  const NumaTopology &Topology = Options.Config.Profiler.Topology;
  EXPECT_EQ(Topology.nodeCount(), 4u);
  EXPECT_EQ(Topology.pageSize(), 8192u);
  EXPECT_EQ(Topology.distance(0, 3), 48u);
  ASSERT_TRUE(Topology.pinned());
  // The workload layout mirrors the imported pinning.
  EXPECT_EQ(Options.Config.Workload.ThreadNodes, Topology.threadPinning());
  EXPECT_EQ(Options.Config.Workload.NumaNodes, 4u);
  EXPECT_EQ(Options.Config.Workload.PageBytes, 8192u);
}

TEST(SessionOptionsTest, TopologyFileErrorsExitCleanly) {
  driver::SessionOptions Options;
  std::string Error;
  ASSERT_FALSE(buildFromArgs({"--numa-topology=/no/such/file.json"},
                             Options, Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;

  std::string Bad = writeTempFile("topo_bad.json",
                                  R"({"schema": "cheetah-topology-v1",
                                      "nodes": 2,
                                      "distances": [[0, 10], [20, 0]]})");
  ASSERT_FALSE(
      buildFromArgs({("--numa-topology=" + Bad).c_str()}, Options, Error));
  EXPECT_NE(Error.find("symmetric"), std::string::npos) << Error;
}

TEST(SessionOptionsTest, BannerPrintsOneLinePerActiveGrain) {
  // `cheetah-profile` prints driver::formatGrainSummaries under its
  // banner: a line-grain line and a page-grain line, each only when its
  // grain ran, line first. Table-driven like the rest of the CLI
  // regressions.
  struct Case {
    const char *Granularity;
    bool Line, Page;
  };
  const Case Cases[] = {
      {"line", true, false},
      {"page", false, true},
      {"both", true, true},
  };
  for (const Case &Test : Cases) {
    driver::SessionOptions Options;
    std::string Error;
    std::string GranFlag = std::string("--granularity=") + Test.Granularity;
    ASSERT_TRUE(buildFromArgs({"--workload=numa_first_touch", "--threads=4",
                               "--sampling-period=512", GranFlag.c_str()},
                              Options, Error))
        << Error;
    auto Workload = workloads::createWorkload("numa_first_touch");
    ASSERT_NE(Workload, nullptr);
    driver::SessionResult Result =
        driver::runWorkload(*Workload, Options.Config);
    const core::ProfileResult &Profile = Result.Profile;
    const core::DetectorStats &Stats = Profile.Detection;

    std::string Want;
    if (Test.Line)
      Want += "grain line: " + formatWithCommas(Profile.Findings.size()) +
              " tracked, " +
              formatWithCommas(significant(Profile.Findings).size()) +
              " significant findings, " +
              formatWithCommas(Stats.SamplesRecorded) + " samples (" +
              formatWithCommas(Stats.Invalidations) + " invalidations)\n";
    if (Test.Page)
      Want += "grain page: " +
              formatWithCommas(Profile.PageFindings.size()) +
              " tracked, " +
              formatWithCommas(significant(Profile.PageFindings).size()) +
              " significant findings, " +
              formatWithCommas(Stats.PageSamplesRecorded) + " samples (" +
              formatWithCommas(Stats.PageInvalidations) + " invalidations, " +
              formatWithCommas(Stats.RemoteSamples) + " remote)\n";
    EXPECT_EQ(driver::formatGrainSummaries(Profile,
                                           Options.Config.Profiler.Detect),
              Want)
        << Test.Granularity;
    // The page line must have something to count, or it proves little.
    if (Test.Page) {
      EXPECT_GT(Stats.PageSamplesRecorded, 0u) << Test.Granularity;
    }
  }
}

TEST(SessionOptionsTest, ScaleBeyondTheHeapArenaFailsTheSession) {
  // A valid scale whose objects the heap arena cannot hold: runSession
  // must return false naming the arena, the size and the call site, not
  // abort in the workload build.
  driver::SessionOptions Options;
  std::string Error;
  ASSERT_TRUE(buildFromArgs({"--workload=linear_regression", "--scale=1000"},
                            Options, Error))
      << Error;
  auto Workload = workloads::createWorkload("linear_regression");
  ASSERT_NE(Workload, nullptr);
  driver::SessionResult Result;
  EXPECT_FALSE(
      driver::runSession(*Workload, Options.Config, nullptr, Result, Error));
  EXPECT_NE(Error.find("heap arena"), std::string::npos) << Error;
  EXPECT_NE(Error.find("linear_regression-pthread.c:112"), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("1,536,000,000 bytes"), std::string::npos) << Error;
}

TEST(SessionOptionsTest, ExplicitFlagsConflictingWithFileAreErrors) {
  std::string Path = writeTempFile("topo_conflict.json", ValidDocument);
  driver::SessionOptions Options;
  std::string Error;
  ASSERT_FALSE(buildFromArgs({("--numa-topology=" + Path).c_str(),
                              "--numa-nodes=2"},
                             Options, Error));
  EXPECT_NE(Error.find("conflicts"), std::string::npos) << Error;

  ASSERT_FALSE(buildFromArgs({("--numa-topology=" + Path).c_str(),
                              "--page-size=4096"},
                             Options, Error));
  EXPECT_NE(Error.find("conflicts"), std::string::npos) << Error;

  // Matching explicit flags are not conflicts.
  ASSERT_TRUE(buildFromArgs({("--numa-topology=" + Path).c_str(),
                             "--numa-nodes=4", "--page-size=8192"},
                            Options, Error))
      << Error;
}

} // namespace
