//===- tests/GoldenReportTest.cpp - JSON golden differential suite --------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-exact differential gate for the JSON report pipeline: every
/// registered workload's `cheetah-report-v5` document must match its
/// checked-in golden under tests/goldens/, with either decode kernel
/// (-DCHEETAH_FORCE_SCALAR=ON compiles the AVX2 one out). This is the
/// executable form of the refactor contract — the granularity-generic
/// detection core and any ingestion-mode change must be observationally
/// invisible at the report boundary, down to the last byte.
///
/// Goldens regenerate with the exact flags encoded here, e.g.:
///   cheetah-profile --workload=kmeans --format=json \
///       --output=tests/goldens/kmeans.line.json
///   cheetah-profile --workload=numa_first_touch --granularity=both \
///       --sampling-period=256 --threads=8 --format=json \
///       --output=tests/goldens/numa_first_touch.both.json
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportSink.h"
#include "driver/SessionOptions.h"
#include "support/CommandLine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace cheetah;

namespace {

/// Source-tree locations baked in at configure time so the suite runs from
/// any build directory.
const std::filesystem::path GoldenDir =
    std::filesystem::path(CHEETAH_SOURCE_DIR) / "tests" / "goldens";
const std::filesystem::path TopologyDir =
    std::filesystem::path(CHEETAH_SOURCE_DIR) / "topologies";

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Runs one profiling session exactly as `cheetah-profile --format=json`
/// would for \p Args and returns the JSON document.
std::string generateReport(const std::vector<std::string> &Args,
                           std::string &Error) {
  FlagSet Flags;
  driver::addSessionFlags(Flags);
  std::vector<const char *> Argv = {"cheetah-profile"};
  for (const std::string &Arg : Args)
    Argv.push_back(Arg.c_str());
  if (!Flags.parse(static_cast<int>(Argv.size()), Argv.data(), Error))
    return "";
  driver::SessionOptions Options;
  if (!driver::buildSessionOptions(Flags, Options, Error))
    return "";
  auto Workload = workloads::createWorkload(Flags.getString("workload"));
  if (!Workload) {
    Error = "unknown workload";
    return "";
  }
  std::string ReportText;
  core::JsonReportSink Sink(ReportText);
  driver::runWorkload(*Workload, Options.Config, &Sink);
  return ReportText;
}

/// On mismatch, pinpoints the first differing byte with a little context
/// instead of dumping two multi-kilobyte documents.
void expectByteIdentical(const std::string &Got, const std::string &Want,
                         const std::string &Label) {
  if (Got == Want)
    return;
  size_t At = 0;
  while (At < Got.size() && At < Want.size() && Got[At] == Want[At])
    ++At;
  size_t From = At > 40 ? At - 40 : 0;
  ADD_FAILURE() << Label << ": report drifted from golden at byte " << At
                << " (sizes " << Got.size() << " vs " << Want.size()
                << ")\n  golden: ..." << Want.substr(From, 80)
                << "\n  got:    ..." << Got.substr(From, 80);
}

TEST(GoldenReportTest, EveryRegisteredWorkloadMatchesLineGolden) {
  // Default-flag line-granularity run for each workload the registry
  // knows. A workload without a checked-in golden fails loudly: new
  // workloads must enter the differential gate when they are registered.
  unsigned Compared = 0;
  for (const auto &Workload : workloads::createAllWorkloads()) {
    SCOPED_TRACE(Workload->name());
    std::filesystem::path Golden =
        GoldenDir / (Workload->name() + ".line.json");
    ASSERT_TRUE(std::filesystem::exists(Golden))
        << "missing golden " << Golden << " — regenerate with "
        << "cheetah-profile --workload=" << Workload->name()
        << " --format=json";
    std::string Error;
    std::string Got =
        generateReport({"--workload=" + Workload->name()}, Error);
    ASSERT_FALSE(Got.empty()) << Error;
    expectByteIdentical(Got, readFile(Golden), Workload->name() + " line");
    ++Compared;
  }
  EXPECT_GE(Compared, 21u);
}

TEST(GoldenReportTest, BothGranularityGoldensMatch) {
  // The page/both pipeline goldens (8 threads, dense sampling, multi-node
  // topologies — numa_asymmetric through the imported distance matrix).
  // Driven by the goldens directory so adding a golden adds coverage.
  std::set<std::string> Names;
  for (const auto &Entry : std::filesystem::directory_iterator(GoldenDir)) {
    std::string File = Entry.path().filename().string();
    std::string Suffix = ".both.json";
    if (File.size() > Suffix.size() &&
        File.compare(File.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      Names.insert(File.substr(0, File.size() - Suffix.size()));
  }
  ASSERT_EQ(Names, (std::set<std::string>{"numa_asymmetric",
                                          "numa_first_touch",
                                          "numa_interleaved"}));
  for (const std::string &Name : Names) {
    SCOPED_TRACE(Name);
    std::vector<std::string> Args = {"--workload=" + Name,
                                     "--granularity=both",
                                     "--sampling-period=256", "--threads=8"};
    if (Name == "numa_asymmetric")
      Args.push_back("--numa-topology=" +
                     (TopologyDir / "asymmetric4.json").string());
    std::string Error;
    std::string Got = generateReport(Args, Error);
    ASSERT_FALSE(Got.empty()) << Error;
    expectByteIdentical(Got, readFile(GoldenDir / (Name + ".both.json")),
                        Name + " both");
  }
}

} // namespace
