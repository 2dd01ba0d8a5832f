//===- examples/quickstart.cpp - Five-minute tour of the API --------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: build the paper's Figure 1 program by hand — an int array
/// whose adjacent elements are hammered by different threads — run it under
/// the Cheetah profiler, and print the findings. Demonstrates the three
/// steps every client takes:
///
///   1. describe the program as a ForkJoinProgram of coroutine thread
///      bodies, allocating its data from the profiler's heap / globals;
///   2. run it on the multicore simulator with the profiler attached;
///   3. read the ProfileResult: reports, predicted improvements, phases.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "pmu/SimPmu.h"
#include "sim/Simulator.h"
#include "support/Generator.h"

#include <cstdio>

using namespace cheetah;

namespace {

/// One worker: increment array[Index] repeatedly (Figure 1's threadFunc).
Generator<ThreadEvent> incrementLoop(uint64_t ElementAddress,
                                     uint64_t Iterations) {
  for (uint64_t J = 0; J < Iterations; ++J) {
    co_yield ThreadEvent::write(ElementAddress, 4);
    co_yield ThreadEvent::compute(3);
  }
}

/// Main thread's serial setup: zero the array once.
Generator<ThreadEvent> initArray(uint64_t Base, uint64_t Bytes) {
  for (uint64_t Offset = 0; Offset < Bytes; Offset += 4)
    co_yield ThreadEvent::write(Base + Offset, 4);
}

} // namespace

int main() {
  constexpr uint32_t Threads = 8;
  constexpr uint64_t Iterations = 30000;

  // 1. A profiler instance owns the heap and the shadow memory; the
  // sampling backend attaches separately below.
  core::ProfilerConfig Config;
  Config.Pmu = Config.Pmu.withScaledPeriod(512); // dense sampling: short run
  core::Profiler Profiler(Config);

  // The shared array is a named global: `int array[8]` — one int per
  // thread, all in a single 64-byte cache line.
  uint64_t Array = Profiler.globals().defineAligned("array", Threads * 4);

  // 2. Describe the program: one serial init + one parallel phase.
  sim::ForkJoinProgram Program;
  Program.Name = "quickstart";
  sim::PhaseSpec &Phase = Program.addPhase("increment");
  Phase.SerialBody = [=]() { return initArray(Array, Threads * 4); };
  for (uint32_t T = 0; T < Threads; ++T)
    Phase.ParallelBodies.push_back(
        [=]() { return incrementLoop(Array + T * 4, Iterations); });

  // 3. Run and report. The profiler consumes samples through the
  // pmu::SampleSource seam; the simulated PMU is the backend here.
  pmu::SimPmu Pmu(Config.Pmu);
  Pmu.setSink(&Profiler);
  sim::Simulator Sim(Config.Geometry, sim::LatencyModel());
  Sim.addObserver(Pmu.simObserver());
  sim::SimulationResult Run = Sim.run(Program);
  core::ProfileResult Result = Profiler.finish(Run);

  std::printf("ran %zu threads for %llu cycles; %llu samples collected\n",
              Run.Threads.size() - 1,
              static_cast<unsigned long long>(Run.TotalCycles),
              static_cast<unsigned long long>(Result.SamplesDelivered));

  auto Significant = core::significant(Result.Findings);
  if (Significant.empty()) {
    std::printf("no false sharing found (try removing the padding!)\n");
    return 0;
  }
  for (const core::FalseSharingReport *Report : Significant) {
    std::printf("\n--- detected instance ---\n");
    std::fputs(core::formatReport(*Report).c_str(), stdout);
  }
  std::printf("\nfix: declare each thread's element on its own cache line "
              "(e.g. a struct padded to 64 bytes)\n");
  return 0;
}
