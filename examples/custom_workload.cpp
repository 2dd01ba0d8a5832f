//===- examples/custom_workload.cpp - Profiling your own program -----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How to model and profile *your own* program: a work-queue system where
/// worker threads update per-worker statistics. Two designs are compared:
///
///   - `stats[nworkers]` as a packed array of 16-byte structs (the natural
///     first attempt) — false sharing;
///   - the same array where each slot also hosts a genuinely shared
///     `global_tickets` counter word — true sharing, which padding cannot
///     fix and which Cheetah must classify differently.
///
/// The example shows the classifier separating the two, and the assessment
/// putting a number only on the fixable one.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace cheetah;

namespace {

Generator<ThreadEvent> worker(uint64_t QueueBase, uint64_t QueueBytes,
                              uint64_t MyStatsSlot, uint64_t TicketWord,
                              uint64_t Items) {
  uint64_t Cursor = 0;
  for (uint64_t I = 0; I < Items; ++I) {
    // Pop a task descriptor (private slice of the queue).
    co_yield ThreadEvent::read(QueueBase + Cursor, 8);
    Cursor = (Cursor + 8) % QueueBytes;
    co_yield ThreadEvent::compute(12);
    // Update my statistics: tasks done + cycles spent (two words).
    co_yield ThreadEvent::write(MyStatsSlot, 8);
    co_yield ThreadEvent::write(MyStatsSlot + 8, 8);
    // Occasionally take a global ticket: a word every worker writes.
    if (I % 64 == 0)
      co_yield ThreadEvent::write(TicketWord, 8);
  }
}

/// The user's program, wrapped in the Workload interface so the driver can
/// run it. `build` is an ordinary function: describe phases, allocate from
/// the context, return the program.
class WorkQueueApp : public workloads::Workload {
public:
  std::string name() const override { return "work_queue"; }
  std::string suite() const override { return "example"; }
  std::string description() const override {
    return "worker threads with packed per-worker stats and a shared "
           "ticket counter";
  }

  sim::ForkJoinProgram
  build(workloads::WorkloadContext &Ctx,
        const workloads::WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t ItemsPerWorker = 30000;
    uint64_t QueueBytes = 64 * 1024;

    // Per-worker queues (private).
    std::vector<uint64_t> Queues;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Queues.push_back(Ctx.allocate(QueueBytes, "workqueue.c", 41));

    // The packed stats array: 16 bytes per worker. Fixed variant pads each
    // slot to a cache line.
    uint64_t SlotStride =
        Config.FixFalseSharing ? Ctx.Geometry.lineSize() : 16;
    uint64_t Stats =
        Ctx.allocate(Config.Threads * SlotStride, "workqueue.c", 58);

    // The shared ticket counter: one word everybody really does share.
    uint64_t Tickets = Ctx.global("global_tickets", 8, true);

    sim::PhaseSpec &Phase = Program.addPhase("drain");
    uint64_t FirstQueue = Queues[0];
    Phase.SerialBody = [=]() -> Generator<ThreadEvent> {
      for (uint64_t Offset = 0; Offset < QueueBytes; Offset += 8)
        co_yield ThreadEvent::write(FirstQueue + Offset, 8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Queue = Queues[T];
      uint64_t Slot = Stats + T * SlotStride;
      Phase.ParallelBodies.push_back([=]() {
        return worker(Queue, QueueBytes, Slot, Tickets, ItemsPerWorker);
      });
    }
    return Program;
  }
};

} // namespace

int main() {
  WorkQueueApp App;
  driver::SessionConfig Config;
  Config.Workload.Threads = 8;
  Config.Profiler.Pmu.SamplingPeriod = 256;

  driver::SessionResult Result = driver::runWorkload(App, Config);

  std::printf("profiling the packed design (8 workers)...\n\n");
  std::printf("%s\n",
              core::formatSummaryTable(Result.Profile.Findings).c_str());

  const core::FalseSharingReport *StatsReport =
      Result.Profile.findReport("workqueue.c:58");
  if (StatsReport) {
    std::printf("the stats array IS falsely shared; Cheetah predicts "
                "%.2fx from padding it.\n",
                StatsReport->Impact.ImprovementFactor);
  }
  bool SawTrueSharing = false;
  for (const auto &Instance : Result.Profile.Findings)
    if (!Instance.Object.IsHeap &&
        Instance.Object.GlobalName == "global_tickets")
      SawTrueSharing = Instance.Kind != core::SharingKind::FalseSharing;
  if (SawTrueSharing)
    std::printf("global_tickets is TRUE sharing: padding cannot help; "
                "Cheetah does not report it as fixable.\n");

  std::printf("\napplying the padding fix to the stats array only...\n");
  driver::SessionConfig Fixed = Config;
  Fixed.Workload.FixFalseSharing = true;
  Fixed.EnableProfiler = false;
  driver::SessionResult FixedRun = driver::runWorkload(App, Fixed);
  std::printf("runtime %s -> %s cycles (%.2fx)\n",
              formatWithCommas(Result.Run.TotalCycles).c_str(),
              formatWithCommas(FixedRun.Run.TotalCycles).c_str(),
              static_cast<double>(Result.Run.TotalCycles) /
                  static_cast<double>(FixedRun.Run.TotalCycles));
  return 0;
}
