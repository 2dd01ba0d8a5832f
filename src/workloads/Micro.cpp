//===- workloads/Micro.cpp - Figure 1 microbenchmark ----------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1 program: an `int array[total]` where each thread
/// repeatedly increments adjacent elements. With one element per thread all
/// writers hammer the same cache line(s) and the program runs an order of
/// magnitude slower than its linear-speedup expectation; padding each
/// thread's element to its own line restores it.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "workloads/Patterns.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::workloads;

namespace {

/// threadFunc from Figure 1(a): `for j < Iterations: array[index]++`.
/// On x86 the increment compiles to one read-modify-write instruction and
/// thus one coherence transaction; modeled as a single write.
Generator<ThreadEvent> fig1Worker(uint64_t ElementAddress,
                                  uint64_t Iterations) {
  for (uint64_t J = 0; J < Iterations; ++J) {
    co_yield ThreadEvent::write(ElementAddress, 4);
    co_yield ThreadEvent::compute(3);
  }
}

class Fig1ArrayWorkload : public Workload {
public:
  std::string name() const override { return "fig1_array"; }
  std::string suite() const override { return "micro"; }
  std::string description() const override {
    return "Figure 1: adjacent array elements incremented by different "
           "threads in one cache line; the canonical false-sharing demo";
  }
  bool hasSignificantFalseSharing() const override { return true; }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    // Total work is fixed: `total` elements each incremented `Iterations`
    // times, split evenly, so the linear-speedup expectation is T1/T.
    uint64_t TotalElements = std::max<uint64_t>(Config.Threads, 8);
    uint64_t IterationsPerElement = static_cast<uint64_t>(
        std::max(1.0, 40000.0 * Config.Scale));
    uint64_t Stride = Config.FixFalseSharing ? Ctx.Geometry.lineSize() : 4;

    uint64_t Array = Ctx.global("fig1_array", TotalElements * Stride, true);

    uint64_t Window = TotalElements / Config.Threads;
    if (Window == 0)
      Window = 1;

    sim::PhaseSpec &Phase = Program.addPhase("increment");
    Phase.SerialBody = [=]() {
      return writeInit(Array, TotalElements * Stride, 1, 4);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Start = std::min<uint64_t>(TotalElements - 1,
                                          static_cast<uint64_t>(T) * Window);
      uint64_t Elements = T + 1 == Config.Threads
                              ? TotalElements - Start
                              : Window;
      uint64_t First = Array + Start * Stride;
      Phase.ParallelBodies.push_back(
          [=]() { return fig1Window(First, Stride, Elements,
                                    IterationsPerElement); });
    }
    return Program;
  }

private:
  /// Outer loop of threadFunc: walks the thread's window of elements.
  static Generator<ThreadEvent> fig1Window(uint64_t FirstElement,
                                           uint64_t Stride, uint64_t Elements,
                                           uint64_t Iterations) {
    for (uint64_t E = 0; E < Elements; ++E) {
      auto Inner = fig1Worker(FirstElement + E * Stride, Iterations);
      while (Inner.next())
        co_yield Inner.value();
    }
  }
};

} // namespace

namespace cheetah {
namespace workloads {

void appendMicroWorkloads(std::vector<std::unique_ptr<Workload>> &Out) {
  Out.push_back(std::make_unique<Fig1ArrayWorkload>());
}

} // namespace workloads
} // namespace cheetah
