//===- baseline/OwnershipTracker.cpp - Zhao-style ownership bits ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baseline/OwnershipTracker.h"

#include "support/Assert.h"

using namespace cheetah;
using namespace cheetah::baseline;

std::vector<uint64_t> &OwnershipTracker::bitsFor(uint64_t Address) {
  std::vector<uint64_t> &Bits = Lines[Geometry.lineIndex(Address)];
  if (Bits.empty())
    Bits.assign(WordsPerLine, 0);
  return Bits;
}

bool OwnershipTracker::recordAccess(uint64_t Address, ThreadId Tid,
                                    AccessKind Kind) {
  CHEETAH_ASSERT(Tid < MaxThreads, "thread id exceeds bitmap capacity");
  std::vector<uint64_t> &Bits = bitsFor(Address);
  size_t Word = Tid / 64;
  uint64_t Bit = 1ull << (Tid % 64);

  if (Kind == AccessKind::Read) {
    Bits[Word] |= Bit;
    return false;
  }

  // Write: does any *other* thread own the line?
  bool OthersOwn = false;
  for (size_t I = 0; I < Bits.size(); ++I) {
    uint64_t Mask = Bits[I];
    if (I == Word)
      Mask &= ~Bit;
    if (Mask) {
      OthersOwn = true;
      break;
    }
  }
  // "When a thread updates a cache line owned by others, this access incurs
  // a cache invalidation, and then resets the ownership to the current
  // thread." A first write to an unowned line also resets ownership and —
  // to stay comparable with the two-entry table's convention — counts as an
  // invalidation unless the writer already solely owned it.
  bool SelfOwned = (Bits[Word] & Bit) != 0;
  bool Invalidation = OthersOwn || !SelfOwned;
  for (uint64_t &W : Bits)
    W = 0;
  Bits[Word] = Bit;
  if (Invalidation)
    ++Invalidations;
  return Invalidation;
}
