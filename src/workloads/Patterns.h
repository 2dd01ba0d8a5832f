//===- workloads/Patterns.h - Shared access-pattern coroutines -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reusable thread-body building blocks: sequential initialization, read
/// scans, strided private accumulation. All functions take parameters by
/// value (coroutine-safe) and yield ThreadEvents.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_WORKLOADS_PATTERNS_H
#define CHEETAH_WORKLOADS_PATTERNS_H

#include "mem/MemoryAccess.h"
#include "support/Generator.h"

#include <cstdint>

namespace cheetah {
namespace workloads {

/// Writes \p Bytes starting at \p Base in \p AccessSize strides with
/// \p ComputePerAccess instructions between stores (typical serial init).
Generator<ThreadEvent> writeInit(uint64_t Base, uint64_t Bytes,
                                 uint32_t ComputePerAccess,
                                 uint8_t AccessSize = 8);

/// Reads \p Bytes starting at \p Base, \p Repeats times, in \p AccessSize
/// strides with \p ComputePerAccess instructions between loads.
Generator<ThreadEvent> readScan(uint64_t Base, uint64_t Bytes,
                                uint32_t Repeats, uint32_t ComputePerAccess,
                                uint8_t AccessSize = 4);

/// The core "scan private input, update a hot accumulator" loop shared by
/// several models. Per iteration: \p ReadsPerItem loads from a sequential
/// input region, \p ComputePerItem instructions, and \p WritesPerItem
/// 8-byte stores into [AccumBase, AccumBase + AccumBytes) round-robin.
struct AccumulateParams {
  uint64_t InputBase = 0;
  uint64_t InputBytes = 0;
  uint32_t ReadsPerItem = 2;
  uint8_t ReadSize = 4;
  uint64_t AccumBase = 0;
  uint64_t AccumBytes = 8;
  uint32_t WritesPerItem = 1;
  uint32_t ComputePerItem = 4;
  uint64_t Items = 0;
};
Generator<ThreadEvent> accumulateLoop(AccumulateParams Params);

/// Mostly-compute loop touching a small private region occasionally; used
/// by the compute-bound models (swaptions, facesim).
Generator<ThreadEvent> computeLoop(uint64_t ScratchBase,
                                   uint64_t ScratchBytes, uint64_t Iterations,
                                   uint32_t ComputePerIteration,
                                   uint32_t AccessEvery);

/// Repeated read-modify-write hammering of one address (the Figure-1 inner
/// loop, reusable): \p Iterations single-word writes with
/// \p ComputePerWrite instructions between them.
Generator<ThreadEvent> hammerSlot(uint64_t Address, uint64_t Iterations,
                                  uint32_t ComputePerWrite = 3,
                                  uint8_t AccessSize = 4);

} // namespace workloads
} // namespace cheetah

#endif // CHEETAH_WORKLOADS_PATTERNS_H
