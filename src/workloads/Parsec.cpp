//===- workloads/Parsec.cpp - PARSEC suite access-pattern models ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Access-pattern models of the nine PARSEC applications the paper
/// evaluates: blackscholes, bodytrack, canneal, facesim, fluidanimate,
/// freqmine, streamcluster, swaptions, x264.
///
/// streamcluster carries the paper's second detected instance (Section
/// 4.2.2): the `work_mem` object at streamcluster.cpp:985 is padded by the
/// PARSEC authors to an *assumed* 32-byte cache line, so with 64-byte lines
/// adjacent threads still share — a mild but real instance (~1.02x at 16
/// threads in Table 1). x264 models 1024 short-lived threads across many
/// frame phases, the second per-thread-setup overhead outlier of Figure 4.
/// fluidanimate exhibits *true* sharing on grid border cells (the words
/// themselves are read by neighbors), a case the classifier must not report
/// as false sharing.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "workloads/Patterns.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::workloads;

namespace {

uint64_t scaled(uint64_t Base, double Scale, uint64_t Min = 1) {
  double Value = static_cast<double>(Base) * Scale;
  return std::max<uint64_t>(Min, static_cast<uint64_t>(Value));
}

//===----------------------------------------------------------------------===//
// blackscholes
//===----------------------------------------------------------------------===//

Generator<ThreadEvent> blackscholesWorker(uint64_t InputBase,
                                          uint64_t OutputBase,
                                          uint64_t Options) {
  for (uint64_t I = 0; I < Options; ++I) {
    for (int Field = 0; Field < 5; ++Field)
      co_yield ThreadEvent::read(InputBase + I * 40 + Field * 8, 8);
    co_yield ThreadEvent::compute(40);
    co_yield ThreadEvent::write(OutputBase + I * 8, 8);
  }
}

class BlackscholesWorkload : public Workload {
public:
  std::string name() const override { return "blackscholes"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "per-option pricing over private slices; compute heavy, no "
           "false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t OptionsPerThread = scaled(9000, Config.Scale, 64);
    uint64_t InputBytes = Config.Threads * OptionsPerThread * 40;
    uint64_t OutputBytes = Config.Threads * OptionsPerThread * 8;
    uint64_t Input = Ctx.allocate(InputBytes, "blackscholes.c", 310);
    uint64_t Output = Ctx.allocate(OutputBytes, "blackscholes.c", 312);

    sim::PhaseSpec &Phase = Program.addPhase("price");
    Phase.SerialBody = [=]() {
      return writeInit(Input, std::min<uint64_t>(InputBytes, 256 * 1024), 1,
                       8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t In = Input + T * OptionsPerThread * 40;
      uint64_t Out = Output + T * OptionsPerThread * 8;
      Phase.ParallelBodies.push_back(
          [=]() { return blackscholesWorker(In, Out, OptionsPerThread); });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// bodytrack
//===----------------------------------------------------------------------===//

Generator<ThreadEvent> bodytrackWorker(uint64_t ModelBase, uint64_t ModelBytes,
                                       uint64_t ParticleBase,
                                       uint64_t Particles) {
  for (uint64_t P = 0; P < Particles; ++P) {
    // Read the shared body model (read-only: clean sharing, no FS).
    co_yield ThreadEvent::read(ModelBase + (P * 32) % ModelBytes, 8);
    co_yield ThreadEvent::read(ModelBase + (P * 32 + 8) % ModelBytes, 8);
    co_yield ThreadEvent::compute(20);
    co_yield ThreadEvent::write(ParticleBase + (P * 8) % 4096, 8);
  }
}

class BodytrackWorkload : public Workload {
public:
  std::string name() const override { return "bodytrack"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "multi-phase particle filtering: shared read-only model, "
           "private particle writes; no false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    constexpr uint32_t Frames = 2;
    uint64_t ParticlesPerThread = scaled(8000, Config.Scale, 64);
    uint64_t ModelBytes = 64 * 1024;
    uint64_t Model = Ctx.allocate(ModelBytes, "bodytrack/TrackingModel.cpp",
                                  228);
    std::vector<uint64_t> Particles;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Particles.push_back(
          Ctx.allocate(4096, "bodytrack/ParticleFilter.cpp", 74));

    for (uint32_t Frame = 0; Frame < Frames; ++Frame) {
      sim::PhaseSpec &Phase = Program.addPhase("frame" + std::to_string(Frame));
      if (Frame == 0)
        Phase.SerialBody = [=]() { return writeInit(Model, ModelBytes, 1, 8); };
      for (uint32_t T = 0; T < Config.Threads; ++T) {
        uint64_t Particle = Particles[T];
        Phase.ParallelBodies.push_back([=]() {
          return bodytrackWorker(Model, ModelBytes, Particle,
                                 ParticlesPerThread);
        });
      }
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// canneal
//===----------------------------------------------------------------------===//

Generator<ThreadEvent> cannealWorker(uint64_t ElementsBase,
                                     uint64_t ElementCount, uint64_t Swaps,
                                     uint64_t RngSeed) {
  SplitMix64 Rng(RngSeed);
  for (uint64_t S = 0; S < Swaps; ++S) {
    uint64_t A = Rng.nextBelow(ElementCount);
    uint64_t B = Rng.nextBelow(ElementCount);
    co_yield ThreadEvent::read(ElementsBase + A * 8, 8);
    co_yield ThreadEvent::read(ElementsBase + B * 8, 8);
    co_yield ThreadEvent::compute(10);
    co_yield ThreadEvent::write(ElementsBase + A * 8, 8);
    co_yield ThreadEvent::write(ElementsBase + B * 8, 8);
  }
}

class CannealWorkload : public Workload {
public:
  std::string name() const override { return "canneal"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "random element swaps over one large shared array: sparse "
           "line collisions, nothing crosses the significance bar";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t Elements = scaled(200000, Config.Scale, 1024);
    uint64_t Bytes = Elements * 8;
    uint64_t Base = Ctx.allocate(Bytes, "canneal/netlist.cpp", 118);
    uint64_t SwapsPerThread = scaled(12000, Config.Scale, 128);

    sim::PhaseSpec &Phase = Program.addPhase("anneal");
    Phase.SerialBody = [=]() {
      return writeInit(Base, std::min<uint64_t>(Bytes, 256 * 1024), 1, 8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Seed = Config.Seed * 31 + T;
      Phase.ParallelBodies.push_back(
          [=]() { return cannealWorker(Base, Elements, SwapsPerThread, Seed); });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// facesim
//===----------------------------------------------------------------------===//

class FacesimWorkload : public Workload {
public:
  std::string name() const override { return "facesim"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "compute-dominated mesh kernels over private partitions; no "
           "false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t Iterations = scaled(50000, Config.Scale, 128);
    std::vector<uint64_t> Scratch;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Scratch.push_back(Ctx.allocate(32 * 1024, "facesim/FACE_DRIVER.cpp",
                                     96));

    sim::PhaseSpec &Phase = Program.addPhase("solve");
    uint64_t First = Scratch[0];
    Phase.SerialBody = [=]() { return writeInit(First, 32 * 1024, 2, 8); };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Region = Scratch[T];
      Phase.ParallelBodies.push_back([=]() {
        return computeLoop(Region, 32 * 1024, Iterations,
                           /*ComputePerIteration=*/24, /*AccessEvery=*/4);
      });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// fluidanimate
//===----------------------------------------------------------------------===//

/// Updates a band of grid cells: writes its own cells, reads the neighbor
/// cell across the band boundary (true sharing: the same words the owner
/// writes are read by the neighbor thread).
Generator<ThreadEvent> fluidanimateWorker(uint64_t GridBase,
                                          uint64_t CellBytes,
                                          uint64_t FirstCell, uint64_t Cells,
                                          uint64_t NeighborCell,
                                          uint32_t Sweeps) {
  for (uint32_t Sweep = 0; Sweep < Sweeps; ++Sweep)
    for (uint64_t C = 0; C < Cells; ++C) {
      uint64_t Cell = GridBase + (FirstCell + C) * CellBytes;
      co_yield ThreadEvent::read(Cell, 8);
      // Border cells also read the neighboring thread's first cell.
      if (C + 1 == Cells)
        co_yield ThreadEvent::read(GridBase + NeighborCell * CellBytes, 8);
      co_yield ThreadEvent::compute(12);
      co_yield ThreadEvent::write(Cell, 8);
      co_yield ThreadEvent::write(Cell + 8, 8);
    }
}

class FluidanimateWorkload : public Workload {
public:
  std::string name() const override { return "fluidanimate"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "grid bands with neighbor reads across borders: genuine "
           "true sharing the classifier must not flag as false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t CellsPerThread = scaled(6000, Config.Scale, 64);
    uint64_t CellBytes = 32;
    uint64_t TotalCells = Config.Threads * CellsPerThread;
    uint64_t Grid =
        Ctx.allocate(TotalCells * CellBytes, "fluidanimate/pthreads.cpp", 501);

    sim::PhaseSpec &Phase = Program.addPhase("advance");
    Phase.SerialBody = [=]() {
      return writeInit(Grid, std::min<uint64_t>(TotalCells * CellBytes,
                                                256 * 1024),
                       1, 8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t First = T * CellsPerThread;
      uint64_t Neighbor =
          ((T + 1) % Config.Threads) * CellsPerThread; // wrap-around border
      Phase.ParallelBodies.push_back([=]() {
        return fluidanimateWorker(Grid, CellBytes, First, CellsPerThread,
                                  Neighbor, /*Sweeps=*/2);
      });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// freqmine
//===----------------------------------------------------------------------===//

class FreqmineWorkload : public Workload {
public:
  std::string name() const override { return "freqmine"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "two scan phases over a shared transaction DB with private "
           "counter updates; no false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t ItemsPerThread = scaled(20000, Config.Scale, 128);
    uint64_t Bytes = Config.Threads * ItemsPerThread * 8;
    uint64_t Db = Ctx.allocate(Bytes, "freqmine/fp_tree.cpp", 1184);
    std::vector<uint64_t> Counters;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Counters.push_back(Ctx.allocate(2048, "freqmine/fp_tree.cpp", 1210));

    for (int Pass = 0; Pass < 2; ++Pass) {
      sim::PhaseSpec &Phase = Program.addPhase("scan" + std::to_string(Pass));
      if (Pass == 0)
        Phase.SerialBody = [=]() {
          return writeInit(Db, std::min<uint64_t>(Bytes, 256 * 1024), 1, 8);
        };
      for (uint32_t T = 0; T < Config.Threads; ++T) {
        AccumulateParams Params;
        Params.InputBase = Db + T * ItemsPerThread * 8;
        Params.InputBytes = ItemsPerThread * 8;
        Params.ReadsPerItem = 1;
        Params.ReadSize = 8;
        Params.AccumBase = Counters[T];
        Params.AccumBytes = 2048;
        Params.WritesPerItem = 1;
        Params.ComputePerItem = 5;
        Params.Items = ItemsPerThread;
        Phase.ParallelBodies.push_back(
            [=]() { return accumulateLoop(Params); });
      }
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// streamcluster
//===----------------------------------------------------------------------===//

/// One long-lived pgain worker (PARSEC workers synchronize on barriers and
/// survive all pgain rounds): per round it evaluates candidate centers over
/// its point slice and accumulates cost terms into its `work_mem` region.
Generator<ThreadEvent> streamclusterWorker(uint64_t PointsBase,
                                           uint64_t Items, uint32_t Rounds,
                                           uint64_t WorkMemRegion,
                                           uint32_t WorkWriteEvery) {
  for (uint32_t Round = 0; Round < Rounds; ++Round)
    for (uint64_t I = 0; I < Items; ++I) {
      co_yield ThreadEvent::read(PointsBase + I * 16, 8);
      co_yield ThreadEvent::read(PointsBase + I * 16 + 8, 8);
      co_yield ThreadEvent::compute(14);
      if (I % WorkWriteEvery == 0) {
        co_yield ThreadEvent::read(WorkMemRegion, 8);
        co_yield ThreadEvent::write(WorkMemRegion, 8);
        co_yield ThreadEvent::write(WorkMemRegion + 8, 8);
      }
    }
}

class StreamclusterWorkload : public Workload {
public:
  std::string name() const override { return "streamcluster"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "work_mem padded to an assumed 32-byte line (streamcluster.cpp:"
           "985): mild false sharing on 64-byte-line machines "
           "(paper Section 4.2.2, Table 1)";
  }
  bool hasSignificantFalseSharing() const override { return true; }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    constexpr uint32_t PgainRounds = 5;
    uint64_t ItemsPerThread = scaled(6000, Config.Scale, 64);
    uint64_t PointsBytes = Config.Threads * ItemsPerThread * 16;
    uint64_t Points = Ctx.allocate(PointsBytes, "streamcluster.cpp", 844);

    // The authors' CACHE_LINE macro assumes 32 bytes; the fix pads each
    // thread's region to the *actual* line size.
    uint64_t AssumedLine = 32;
    uint64_t RegionStride =
        Config.FixFalseSharing ? Ctx.Geometry.lineSize() : AssumedLine;
    uint64_t WorkMem = Ctx.allocate(Config.Threads * RegionStride,
                                    "streamcluster.cpp", 985);

    // One parallel phase: PARSEC's workers are created once and reused for
    // every pgain round via barriers, so their caches stay warm and the
    // per-thread work_mem regions keep a stable writer.
    sim::PhaseSpec &Phase = Program.addPhase("pgain");
    Phase.SerialBody = [=]() {
      return writeInit(Points, std::min<uint64_t>(PointsBytes, 128 * 1024), 1,
                       8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Slice = Points + T * ItemsPerThread * 16;
      uint64_t Region = WorkMem + T * RegionStride;
      Phase.ParallelBodies.push_back([=]() {
        return streamclusterWorker(Slice, ItemsPerThread, PgainRounds, Region,
                                   /*WorkWriteEvery=*/100);
      });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// swaptions
//===----------------------------------------------------------------------===//

class SwaptionsWorkload : public Workload {
public:
  std::string name() const override { return "swaptions"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "private Monte-Carlo simulations; compute dominated, no false "
           "sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t Iterations = scaled(55000, Config.Scale, 128);
    std::vector<uint64_t> Paths;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Paths.push_back(Ctx.allocate(16 * 1024, "swaptions/HJM_Securities.cpp",
                                   341));

    sim::PhaseSpec &Phase = Program.addPhase("simulate");
    uint64_t First = Paths[0];
    Phase.SerialBody = [=]() { return writeInit(First, 16 * 1024, 2, 8); };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Region = Paths[T];
      Phase.ParallelBodies.push_back([=]() {
        return computeLoop(Region, 16 * 1024, Iterations,
                           /*ComputePerIteration=*/30, /*AccessEvery=*/3);
      });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// x264
//===----------------------------------------------------------------------===//

Generator<ThreadEvent> x264Worker(uint64_t FrameBase, uint64_t MacroBlocks,
                                  uint64_t RefBase, uint64_t RefBytes,
                                  uint64_t OutBase) {
  for (uint64_t MB = 0; MB < MacroBlocks; ++MB) {
    co_yield ThreadEvent::read(FrameBase + MB * 16, 8);
    co_yield ThreadEvent::read(RefBase + (MB * 64) % RefBytes, 8);
    co_yield ThreadEvent::compute(16);
    co_yield ThreadEvent::write(OutBase + MB * 8, 8);
  }
}

class X264Workload : public Workload {
public:
  std::string name() const override { return "x264"; }
  std::string suite() const override { return "parsec"; }
  std::string description() const override {
    return "64 frame phases x Threads short-lived workers (1024 threads at "
           "16): the extreme thread-setup overhead case of Figure 4";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    constexpr uint32_t Frames = 64; // 64 x 16 = 1024 threads
    uint64_t MacroBlocksPerThread = scaled(700, Config.Scale, 16);
    uint64_t FrameBytes = Config.Threads * MacroBlocksPerThread * 16;
    uint64_t RefBytes = 128 * 1024;
    uint64_t Frame = Ctx.allocate(FrameBytes, "x264/encoder/encoder.c", 1289);
    uint64_t Ref = Ctx.allocate(RefBytes, "x264/encoder/encoder.c", 1301);
    uint64_t Out = Ctx.allocate(Config.Threads * MacroBlocksPerThread * 8,
                                "x264/encoder/encoder.c", 1337);

    for (uint32_t F = 0; F < Frames; ++F) {
      sim::PhaseSpec &Phase = Program.addPhase("frame" + std::to_string(F));
      if (F == 0)
        Phase.SerialBody = [=]() {
          return writeInit(Frame, std::min<uint64_t>(FrameBytes, 128 * 1024),
                           1, 8);
        };
      for (uint32_t T = 0; T < Config.Threads; ++T) {
        uint64_t Slice = Frame + T * MacroBlocksPerThread * 16;
        uint64_t OutSlice = Out + T * MacroBlocksPerThread * 8;
        Phase.ParallelBodies.push_back([=]() {
          return x264Worker(Slice, MacroBlocksPerThread, Ref, RefBytes,
                            OutSlice);
        });
      }
    }
    return Program;
  }
};

} // namespace

namespace cheetah {
namespace workloads {

void appendParsecWorkloads(std::vector<std::unique_ptr<Workload>> &Out) {
  Out.push_back(std::make_unique<BlackscholesWorkload>());
  Out.push_back(std::make_unique<BodytrackWorkload>());
  Out.push_back(std::make_unique<CannealWorkload>());
  Out.push_back(std::make_unique<FacesimWorkload>());
  Out.push_back(std::make_unique<FluidanimateWorkload>());
  Out.push_back(std::make_unique<FreqmineWorkload>());
  Out.push_back(std::make_unique<StreamclusterWorkload>());
  Out.push_back(std::make_unique<SwaptionsWorkload>());
  Out.push_back(std::make_unique<X264Workload>());
}

} // namespace workloads
} // namespace cheetah
