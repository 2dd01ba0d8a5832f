//===- workloads/Phoenix.cpp - Phoenix suite access-pattern models --------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Access-pattern models of the eight Phoenix applications the paper
/// evaluates (Figure 4): histogram, kmeans, linear_regression,
/// matrix_multiply, pca, string_match, reverse_index, word_count.
///
/// linear_regression carries the paper's flagship false-sharing instance
/// (Section 4.2.1): an array of per-thread `lreg_args` accumulator structs
/// allocated in one object at "linear_regression-pthread.c:139"; every
/// thread updates five 8-byte accumulators per input point, and adjacent
/// structs share cache lines until padded. histogram, reverse_index and
/// word_count carry *minor* false-sharing instances — rare writes to
/// adjacent per-thread slots of a shared results object — which sampling
/// misses and whose fix is worth <0.2% (Figure 7).
///
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "workloads/Patterns.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::workloads;

namespace {

/// Scales a base count, keeping at least \p Min.
uint64_t scaled(uint64_t Base, double Scale, uint64_t Min = 1) {
  double Value = static_cast<double>(Base) * Scale;
  return std::max<uint64_t>(Min, static_cast<uint64_t>(Value));
}

//===----------------------------------------------------------------------===//
// linear_regression
//===----------------------------------------------------------------------===//

/// One worker of linear_regression: reads its slice of points and folds
/// x/y/xx/yy/xy sums into its `lreg_args` struct.
Generator<ThreadEvent> linearRegressionWorker(uint64_t PointsBase,
                                              uint64_t Items,
                                              uint64_t ArgsAddress,
                                              uint32_t WritesPerItem,
                                              uint32_t ComputePerItem) {
  uint64_t Cursor = 0;
  for (uint64_t Item = 0; Item < Items; ++Item) {
    // args->points[i] (x and y load as one 8-byte quantity)
    co_yield ThreadEvent::read(PointsBase + Cursor, 8);
    Cursor += 8;
    co_yield ThreadEvent::compute(ComputePerItem);
    // The hot accumulator store (SX += ...); the other sums stay in
    // registers within an iteration. WritesPerItem models spill pressure.
    for (uint32_t W = 0; W < WritesPerItem; ++W)
      co_yield ThreadEvent::write(ArgsAddress + 8 * W, 8);
  }
}

class LinearRegressionWorkload : public Workload {
public:
  std::string name() const override { return "linear_regression"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "per-thread accumulator structs adjacent in one heap object; "
           "severe false sharing until padded (paper Section 4.2.1)";
  }
  bool hasSignificantFalseSharing() const override { return true; }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t PerThreadItems = scaled(12000, Config.Scale, 64);
    uint64_t LineSize = Ctx.Geometry.lineSize();
    // The hot accumulator of lreg_args; the paper's fix pads the struct
    // with 64 extra bytes so neighbors land on distinct lines. Unfixed, a
    // 64-byte line holds eight threads' hot accumulators, so contention
    // grows with the thread count the way Table 1 reports.
    uint64_t StructStride = Config.FixFalseSharing ? LineSize * 2 : 8;

    // The points come from an mmap'ed input file: the program never writes
    // them, and parallel readers take the first-touch misses (this is why
    // real linear_regression has almost no serial phase).
    uint64_t PointsBytes = Config.Threads * PerThreadItems * 8;
    uint64_t PointsBase =
        Ctx.allocate(PointsBytes, "linear_regression-pthread.c", 112);
    uint64_t ArgsBase = Ctx.allocate(Config.Threads * StructStride,
                                     "linear_regression-pthread.c", 139);

    // Serial phase: parse the input header and set up the argument structs;
    // the re-scan keeps the serial latency average representative of
    // steady-state non-contended accesses (what AverCycles_nofs
    // approximates).
    uint64_t WarmBytes = std::min<uint64_t>(PointsBytes, 64 * 1024);
    sim::PhaseSpec &Phase = Program.addPhase("lreg");
    Phase.SerialBody = [=]() {
      return initThenRescan(PointsBase, WarmBytes, WarmBytes, 5);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Slice = PointsBase + T * PerThreadItems * 8;
      uint64_t Args = ArgsBase + T * StructStride;
      Phase.ParallelBodies.push_back([=]() {
        return linearRegressionWorker(Slice, PerThreadItems, Args,
                                      /*WritesPerItem=*/1,
                                      /*ComputePerItem=*/8);
      });
    }
    return Program;
  }

private:
  /// Serial init followed by a few read passes over a prefix.
  static Generator<ThreadEvent> initThenRescan(uint64_t Base, uint64_t Bytes,
                                               uint64_t RescanBytes,
                                               uint32_t Passes) {
    auto Init = writeInit(Base, Bytes, /*ComputePerAccess=*/1, 8);
    while (Init.next())
      co_yield Init.value();
    auto Rescan = readScan(Base, RescanBytes, Passes, 1, 4);
    while (Rescan.next())
      co_yield Rescan.value();
  }
};

//===----------------------------------------------------------------------===//
// histogram
//===----------------------------------------------------------------------===//

/// One histogram worker: scans pixels of its private image slice, bumps a
/// bin in its private bin array per pixel, and finally flushes its 256 bin
/// totals into the shared results object (the minor false-sharing site).
Generator<ThreadEvent> histogramWorker(uint64_t ImageBase, uint64_t Pixels,
                                       uint64_t BinsBase, uint64_t ResultSlot,
                                       uint64_t RngSeed) {
  SplitMix64 Rng(RngSeed);
  for (uint64_t P = 0; P < Pixels; ++P) {
    co_yield ThreadEvent::read(ImageBase + P * 4, 4);
    co_yield ThreadEvent::compute(2);
    uint64_t Bin = Rng.nextBelow(256);
    co_yield ThreadEvent::write(BinsBase + Bin * 4, 4);
  }
  // Flush phase: 256 rare writes into adjacent per-thread result rows.
  for (uint64_t Bin = 0; Bin < 256; ++Bin) {
    co_yield ThreadEvent::read(BinsBase + Bin * 4, 4);
    co_yield ThreadEvent::write(ResultSlot + (Bin % 4) * 4, 4);
  }
}

class HistogramWorkload : public Workload {
public:
  std::string name() const override { return "histogram"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "private pixel scans and bin updates; rare flush writes to "
           "adjacent per-thread result slots (minor FS, Figure 7)";
  }
  bool hasMinorFalseSharing() const override { return true; }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t PixelsPerThread = scaled(40000, Config.Scale, 256);
    uint64_t ImageBytes = Config.Threads * PixelsPerThread * 4;
    uint64_t ImageBase = Ctx.allocate(ImageBytes, "histogram-pthread.c", 153);

    // Per-thread private bin arrays: separate allocations (the Cheetah heap
    // keeps them on distinct lines anyway).
    std::vector<uint64_t> Bins;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Bins.push_back(Ctx.allocate(256 * 4, "histogram-pthread.c", 199));

    // The shared results object: one 16-byte row per thread. Unfixed rows
    // are adjacent (several per line); the fix pads each row to a line.
    uint64_t RowStride =
        Config.FixFalseSharing ? Ctx.Geometry.lineSize() : 16;
    uint64_t ResultsBase = Ctx.global("histogram_results",
                                      Config.Threads * RowStride, true);

    sim::PhaseSpec &Phase = Program.addPhase("hist");
    uint64_t InitBytes = std::min<uint64_t>(ImageBytes, 256 * 1024);
    Phase.SerialBody = [=]() { return writeInit(ImageBase, InitBytes, 1, 8); };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Slice = ImageBase + T * PixelsPerThread * 4;
      uint64_t Slot = ResultsBase + T * RowStride;
      uint64_t BinBase = Bins[T];
      uint64_t Seed = Config.Seed + T;
      Phase.ParallelBodies.push_back([=]() {
        return histogramWorker(Slice, PixelsPerThread, BinBase, Slot, Seed);
      });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// kmeans
//===----------------------------------------------------------------------===//

/// One kmeans worker for one iteration: reads its points slice, computes
/// distances, accumulates into its private partial-centroid block.
Generator<ThreadEvent> kmeansWorker(uint64_t PointsBase, uint64_t Points,
                                    uint64_t PartialBase,
                                    uint64_t PartialBytes) {
  for (uint64_t P = 0; P < Points; ++P) {
    co_yield ThreadEvent::read(PointsBase + P * 8, 8);
    co_yield ThreadEvent::compute(8);
    co_yield ThreadEvent::write(PartialBase + (P * 8) % PartialBytes, 8);
  }
}

class KmeansWorkload : public Workload {
public:
  std::string name() const override { return "kmeans"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "14 fork-join iterations x Threads workers (224 threads at 16): "
           "the per-thread PMU-setup overhead outlier of Figure 4";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    constexpr uint32_t Iterations = 14; // 14 x 16 = 224 threads
    uint64_t PointsPerThread = scaled(6000, Config.Scale, 64);
    uint64_t PointsBytes = Config.Threads * PointsPerThread * 8;
    uint64_t PointsBase = Ctx.allocate(PointsBytes, "kmeans.c", 402);

    std::vector<uint64_t> Partials;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Partials.push_back(Ctx.allocate(4096, "kmeans.c", 431));

    for (uint32_t Iter = 0; Iter < Iterations; ++Iter) {
      sim::PhaseSpec &Phase = Program.addPhase("iter" + std::to_string(Iter));
      if (Iter == 0)
        Phase.SerialBody = [=]() {
          return writeInit(PointsBase, std::min<uint64_t>(PointsBytes, 128 * 1024),
                           1, 8);
        };
      else
        // Between iterations the main thread re-reads the partials
        // (centroid recomputation).
        Phase.SerialBody = [=, Partial = Partials]() {
          return readScan(Partial[0], 4096, 1, 2, 8);
        };
      for (uint32_t T = 0; T < Config.Threads; ++T) {
        uint64_t Slice = PointsBase + T * PointsPerThread * 8;
        uint64_t Partial = Partials[T];
        Phase.ParallelBodies.push_back([=]() {
          return kmeansWorker(Slice, PointsPerThread, Partial, 4096);
        });
      }
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// matrix_multiply
//===----------------------------------------------------------------------===//

/// Computes a band of C = A*B rows: per output element, a row of A
/// (sequential) and a column of B (strided) are read.
Generator<ThreadEvent> matmulWorker(uint64_t ABase, uint64_t BBase,
                                    uint64_t CBase, uint64_t N,
                                    uint64_t RowBegin, uint64_t RowEnd) {
  for (uint64_t I = RowBegin; I < RowEnd; ++I)
    for (uint64_t J = 0; J < N; ++J) {
      for (uint64_t K = 0; K < N; ++K) {
        co_yield ThreadEvent::read(ABase + (I * N + K) * 8, 8);
        co_yield ThreadEvent::read(BBase + (K * N + J) * 8, 8);
        if (K % 8 == 7)
          co_yield ThreadEvent::compute(8);
      }
      co_yield ThreadEvent::write(CBase + (I * N + J) * 8, 8);
    }
}

class MatrixMultiplyWorkload : public Workload {
public:
  std::string name() const override { return "matrix_multiply"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "blocked matmul: heavy shared read-only traffic on B, private "
           "output rows; no false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t N = scaled(72, std::sqrt(Config.Scale), 8);
    uint64_t Bytes = N * N * 8;
    uint64_t ABase = Ctx.allocate(Bytes, "matrix_multiply.c", 87);
    uint64_t BBase = Ctx.allocate(Bytes, "matrix_multiply.c", 88);
    uint64_t CBase = Ctx.allocate(Bytes, "matrix_multiply.c", 89);

    sim::PhaseSpec &Phase = Program.addPhase("mm");
    Phase.SerialBody = [=]() {
      return writeInit(ABase, Bytes * 2, 1, 8); // A then B (contiguous)
    };
    uint64_t RowsPerThread = std::max<uint64_t>(1, N / Config.Threads);
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Begin = std::min<uint64_t>(N, T * RowsPerThread);
      uint64_t End =
          T + 1 == Config.Threads ? N : std::min(N, Begin + RowsPerThread);
      Phase.ParallelBodies.push_back(
          [=]() { return matmulWorker(ABase, BBase, CBase, N, Begin, End); });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// pca
//===----------------------------------------------------------------------===//

class PcaWorkload : public Workload {
public:
  std::string name() const override { return "pca"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "two fork-join phases (means then covariance) over a shared "
           "read-only matrix with private accumulators; no false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t RowsPerThread = scaled(48, Config.Scale, 2);
    uint64_t Cols = 512;
    uint64_t Bytes = Config.Threads * RowsPerThread * Cols * 8;
    uint64_t Matrix = Ctx.allocate(Bytes, "pca.c", 141);

    std::vector<uint64_t> Accums;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Accums.push_back(Ctx.allocate(512, "pca.c", 166));

    for (int PhaseIndex = 0; PhaseIndex < 2; ++PhaseIndex) {
      sim::PhaseSpec &Phase =
          Program.addPhase(PhaseIndex == 0 ? "mean" : "cov");
      if (PhaseIndex == 0)
        Phase.SerialBody = [=]() {
          return writeInit(Matrix, std::min<uint64_t>(Bytes, 256 * 1024), 1,
                           8);
        };
      for (uint32_t T = 0; T < Config.Threads; ++T) {
        AccumulateParams Params;
        Params.InputBase = Matrix + T * RowsPerThread * Cols * 8;
        Params.InputBytes = RowsPerThread * Cols * 8;
        Params.ReadsPerItem = 2;
        Params.ReadSize = 8;
        Params.AccumBase = Accums[T];
        Params.AccumBytes = 512;
        Params.WritesPerItem = 1;
        Params.ComputePerItem = PhaseIndex == 0 ? 3 : 8;
        Params.Items = RowsPerThread * Cols / 2;
        Phase.ParallelBodies.push_back(
            [=]() { return accumulateLoop(Params); });
      }
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// string_match
//===----------------------------------------------------------------------===//

class StringMatchWorkload : public Workload {
public:
  std::string name() const override { return "string_match"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "read-dominated key scanning with rare private match-flag "
           "writes; no false sharing";
  }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t KeysPerThread = scaled(30000, Config.Scale, 128);
    uint64_t KeyBytes = 16;
    uint64_t Bytes = Config.Threads * KeysPerThread * KeyBytes;
    uint64_t Keys = Ctx.allocate(Bytes, "string_match.c", 204);

    std::vector<uint64_t> Flags;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Flags.push_back(Ctx.allocate(128, "string_match.c", 247));

    sim::PhaseSpec &Phase = Program.addPhase("match");
    Phase.SerialBody = [=]() {
      return writeInit(Keys, std::min<uint64_t>(Bytes, 256 * 1024), 1, 8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      AccumulateParams Params;
      Params.InputBase = Keys + T * KeysPerThread * KeyBytes;
      Params.InputBytes = KeysPerThread * KeyBytes;
      Params.ReadsPerItem = 4; // 16-byte key, 4-byte compares
      Params.ReadSize = 4;
      Params.AccumBase = Flags[T];
      Params.AccumBytes = 128;
      Params.WritesPerItem = 0;
      Params.ComputePerItem = 6;
      Params.Items = KeysPerThread;
      Phase.ParallelBodies.push_back([=]() { return accumulateLoop(Params); });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// reverse_index
//===----------------------------------------------------------------------===//

/// One reverse_index worker: scans links, appends to a private list chunk,
/// and occasionally bumps its slot in the shared index header (minor FS).
Generator<ThreadEvent> reverseIndexWorker(uint64_t LinksBase, uint64_t Links,
                                          uint64_t ListBase,
                                          uint64_t ListBytes,
                                          uint64_t HeaderSlot,
                                          uint64_t HeaderEvery) {
  uint64_t ListCursor = 0;
  for (uint64_t L = 0; L < Links; ++L) {
    co_yield ThreadEvent::read(LinksBase + L * 8, 8);
    co_yield ThreadEvent::compute(4);
    if (L % 4 == 0) {
      co_yield ThreadEvent::write(ListBase + ListCursor, 8);
      ListCursor = (ListCursor + 8) % ListBytes;
    }
    if (L % HeaderEvery == 0)
      co_yield ThreadEvent::write(HeaderSlot, 8);
  }
}

class ReverseIndexWorkload : public Workload {
public:
  std::string name() const override { return "reverse_index"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "link scanning with private list appends; rare writes to "
           "adjacent per-thread header slots (minor FS, Figure 7)";
  }
  bool hasMinorFalseSharing() const override { return true; }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t LinksPerThread = scaled(40000, Config.Scale, 256);
    uint64_t Bytes = Config.Threads * LinksPerThread * 8;
    uint64_t Links = Ctx.allocate(Bytes, "reverse_index.c", 318);

    uint64_t SlotStride = Config.FixFalseSharing ? Ctx.Geometry.lineSize() : 8;
    uint64_t Header =
        Ctx.global("ridx_header", Config.Threads * SlotStride, true);

    std::vector<uint64_t> Lists;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Lists.push_back(Ctx.allocate(16 * 1024, "reverse_index.c", 342));

    sim::PhaseSpec &Phase = Program.addPhase("ridx");
    Phase.SerialBody = [=]() {
      return writeInit(Links, std::min<uint64_t>(Bytes, 256 * 1024), 1, 8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Slice = Links + T * LinksPerThread * 8;
      uint64_t Slot = Header + T * SlotStride;
      uint64_t List = Lists[T];
      Phase.ParallelBodies.push_back([=]() {
        return reverseIndexWorker(Slice, LinksPerThread, List, 16 * 1024,
                                  Slot, /*HeaderEvery=*/1024);
      });
    }
    return Program;
  }
};

//===----------------------------------------------------------------------===//
// word_count
//===----------------------------------------------------------------------===//

/// One word_count worker: scans words, bumps private hash counters, and
/// occasionally updates its slot in a shared progress array (minor FS).
Generator<ThreadEvent> wordCountWorker(uint64_t TextBase, uint64_t Words,
                                       uint64_t HashBase, uint64_t HashBytes,
                                       uint64_t ProgressSlot,
                                       uint64_t ProgressEvery,
                                       uint64_t RngSeed) {
  SplitMix64 Rng(RngSeed);
  for (uint64_t W = 0; W < Words; ++W) {
    co_yield ThreadEvent::read(TextBase + W * 8, 8);
    co_yield ThreadEvent::compute(5);
    uint64_t Bucket = Rng.nextBelow(HashBytes / 8);
    co_yield ThreadEvent::read(HashBase + Bucket * 8, 8);
    co_yield ThreadEvent::write(HashBase + Bucket * 8, 8);
    if (W % ProgressEvery == 0)
      co_yield ThreadEvent::write(ProgressSlot, 8);
  }
}

class WordCountWorkload : public Workload {
public:
  std::string name() const override { return "word_count"; }
  std::string suite() const override { return "phoenix"; }
  std::string description() const override {
    return "word scanning with private hash updates; rare writes to "
           "adjacent per-thread progress slots (minor FS, Figure 7)";
  }
  bool hasMinorFalseSharing() const override { return true; }

  sim::ForkJoinProgram build(WorkloadContext &Ctx,
                             const WorkloadConfig &Config) const override {
    sim::ForkJoinProgram Program;
    Program.Name = name();

    uint64_t WordsPerThread = scaled(30000, Config.Scale, 256);
    uint64_t Bytes = Config.Threads * WordsPerThread * 8;
    uint64_t Text = Ctx.allocate(Bytes, "word_count.c", 221);

    uint64_t SlotStride = Config.FixFalseSharing ? Ctx.Geometry.lineSize() : 8;
    uint64_t Progress =
        Ctx.global("wc_progress", Config.Threads * SlotStride, true);

    std::vector<uint64_t> Hashes;
    for (uint32_t T = 0; T < Config.Threads; ++T)
      Hashes.push_back(Ctx.allocate(8 * 1024, "word_count.c", 265));

    sim::PhaseSpec &Phase = Program.addPhase("wc");
    Phase.SerialBody = [=]() {
      return writeInit(Text, std::min<uint64_t>(Bytes, 256 * 1024), 1, 8);
    };
    for (uint32_t T = 0; T < Config.Threads; ++T) {
      uint64_t Slice = Text + T * WordsPerThread * 8;
      uint64_t Slot = Progress + T * SlotStride;
      uint64_t Hash = Hashes[T];
      uint64_t Seed = Config.Seed + 7919 * T;
      Phase.ParallelBodies.push_back([=]() {
        return wordCountWorker(Slice, WordsPerThread, Hash, 8 * 1024, Slot,
                               /*ProgressEvery=*/1024, Seed);
      });
    }
    return Program;
  }
};

} // namespace

namespace cheetah {
namespace workloads {

void appendPhoenixWorkloads(std::vector<std::unique_ptr<Workload>> &Out) {
  Out.push_back(std::make_unique<HistogramWorkload>());
  Out.push_back(std::make_unique<KmeansWorkload>());
  Out.push_back(std::make_unique<LinearRegressionWorkload>());
  Out.push_back(std::make_unique<MatrixMultiplyWorkload>());
  Out.push_back(std::make_unique<PcaWorkload>());
  Out.push_back(std::make_unique<StringMatchWorkload>());
  Out.push_back(std::make_unique<ReverseIndexWorkload>());
  Out.push_back(std::make_unique<WordCountWorkload>());
}

} // namespace workloads
} // namespace cheetah
