//===- core/detect/BatchDecode.h - Batched sample decode --------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front of the batched ingestion pipeline: turns a batch of
/// pmu::Sample records into struct-of-arrays decoded line coordinates —
/// per sample a monitored-region coverage flag, the 4-byte word bucket, and
/// the word span with end-of-line clamping for line-straddling accesses.
/// Decoding is plain integer arithmetic over the sample addresses, one
/// scalar loop over the chunk.
///
/// The decoded arrays feed Detector::handleBatch's later stages: the
/// coverage flags gate the stage-1 write-count sweep, and bucket/span are
/// consumed only by samples that survive the susceptibility filter.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_BATCHDECODE_H
#define CHEETAH_CORE_DETECT_BATCHDECODE_H

#include "core/detect/GrainTable.h"
#include "mem/CacheGeometry.h"
#include "pmu/Sample.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace core {

/// Struct-of-arrays decoded records for one sample chunk. Fixed capacity so
/// the scratch lives in per-thread storage with zero per-batch allocation;
/// callers chunk larger batches.
struct DecodedBatch {
  static constexpr size_t Capacity = pmu::SampleBatchCapacity;

  /// 1 if the sample address falls inside a monitored region, else 0.
  uint8_t Covered[Capacity];
  /// Index of the access's first 4-byte word within its cache line.
  uint32_t Bucket[Capacity];
  /// Number of words the access covers, clamped at the line end (a
  /// straddling access marks words only to the end of its first line).
  uint32_t Span[Capacity];
};

/// Decodes sample batches over one line geometry and one set of monitored
/// regions.
class BatchDecoder {
public:
  BatchDecoder(const CacheGeometry &Geometry,
               std::vector<ShadowRegion> Regions);

  /// Decodes \p Count samples (at most DecodedBatch::Capacity) into \p Out.
  /// \p AccessBytes is the access width shared by the batch; 0 is treated
  /// as a 1-byte access.
  void decode(const pmu::Sample *Samples, size_t Count, uint8_t AccessBytes,
              DecodedBatch &Out) const;

private:
  /// lineSize() - 1: both the offset-in-line mask and the last valid byte
  /// offset the straddling clamp saturates to.
  uint64_t LineMask;
  std::vector<ShadowRegion> Regions;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_BATCHDECODE_H
