//===- pmu/Sample.h - PMU memory-access samples -----------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sample record contract between any PMU backend (the simulated PMU
/// or a replayed trace) and the Cheetah analysis pipeline. This is exactly
/// the information the paper's data-collection module gleans per sample
/// (Section 2.1): address, thread id, read/write, and access latency.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_PMU_SAMPLE_H
#define CHEETAH_PMU_SAMPLE_H

#include "mem/MemoryAccess.h"

#include <cstddef>
#include <cstdint>

namespace cheetah {
namespace pmu {

/// One sampled memory access.
struct Sample {
  /// Effective (data) address of the access.
  uint64_t Address = 0;
  /// Thread that issued the access.
  ThreadId Tid = 0;
  /// True for stores.
  bool IsWrite = false;
  /// Access latency in cycles as the PMU measured it.
  uint32_t LatencyCycles = 0;
  /// Timestamp in virtual cycles of the simulated run.
  uint64_t Timestamp = 0;
};

/// The most samples a backend hands its sink in one batch: the simulated
/// PMU, trace replay and the interpose thread buffers all flush at this
/// size, and the detector decodes in chunks of it.
constexpr size_t SampleBatchCapacity = 256;

} // namespace pmu
} // namespace cheetah

#endif // CHEETAH_PMU_SAMPLE_H
