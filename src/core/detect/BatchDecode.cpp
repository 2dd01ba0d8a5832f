//===- core/detect/BatchDecode.cpp - Batched sample decode ----------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/detect/BatchDecode.h"

#include "support/Assert.h"

using namespace cheetah;
using namespace cheetah::core;

// The word-bucket computation below shifts by 2 instead of dividing; it is
// only correct for the paper's fixed 4-byte word granularity.
static_assert(WordSize == 4, "batch decode assumes 4-byte words");

BatchDecoder::BatchDecoder(const CacheGeometry &Geometry,
                           std::vector<ShadowRegion> Regions)
    : LineMask(Geometry.lineSize() - 1), Regions(std::move(Regions)) {}

void BatchDecoder::decode(const pmu::Sample *Samples, size_t Count,
                          uint8_t AccessBytes, DecodedBatch &Out) const {
  CHEETAH_ASSERT(Count <= DecodedBatch::Capacity,
                 "decode chunk exceeds the batch scratch capacity");
  const uint64_t Bytes = AccessBytes ? AccessBytes : 1;
  for (size_t I = 0; I < Count; ++I) {
    uint64_t Address = Samples[I].Address;
    uint64_t Offset = Address & LineMask;
    uint64_t Word = Offset >> 2;
    // Clamp the access's last byte to the line end: a straddling access
    // contributes words only within its first line.
    uint64_t LastByte = Offset + Bytes - 1;
    if (LastByte > LineMask)
      LastByte = LineMask;
    Out.Bucket[I] = static_cast<uint32_t>(Word);
    Out.Span[I] = static_cast<uint32_t>((LastByte >> 2) - Word + 1);
    // Unsigned wraparound turns the two-sided range test into one compare
    // per region (kernel/library/stack addresses fail every region).
    uint8_t Covered = 0;
    for (const ShadowRegion &Region : Regions)
      Covered |= static_cast<uint8_t>(Address - Region.Base < Region.Size);
    Out.Covered[I] = Covered;
  }
}
