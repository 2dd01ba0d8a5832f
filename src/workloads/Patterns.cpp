//===- workloads/Patterns.cpp - Shared access-pattern coroutines ---------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Patterns.h"

using namespace cheetah;
using namespace cheetah::workloads;

Generator<ThreadEvent>
cheetah::workloads::writeInit(uint64_t Base, uint64_t Bytes,
                              uint32_t ComputePerAccess, uint8_t AccessSize) {
  for (uint64_t Offset = 0; Offset < Bytes; Offset += AccessSize) {
    if (ComputePerAccess)
      co_yield ThreadEvent::compute(ComputePerAccess);
    co_yield ThreadEvent::write(Base + Offset, AccessSize);
  }
}

Generator<ThreadEvent>
cheetah::workloads::readScan(uint64_t Base, uint64_t Bytes, uint32_t Repeats,
                             uint32_t ComputePerAccess, uint8_t AccessSize) {
  for (uint32_t Pass = 0; Pass < Repeats; ++Pass)
    for (uint64_t Offset = 0; Offset < Bytes; Offset += AccessSize) {
      if (ComputePerAccess)
        co_yield ThreadEvent::compute(ComputePerAccess);
      co_yield ThreadEvent::read(Base + Offset, AccessSize);
    }
}

Generator<ThreadEvent>
cheetah::workloads::accumulateLoop(AccumulateParams Params) {
  uint64_t InputCursor = 0;
  uint64_t AccumSlots = Params.AccumBytes / 8;
  if (AccumSlots == 0)
    AccumSlots = 1;
  for (uint64_t Item = 0; Item < Params.Items; ++Item) {
    for (uint32_t R = 0; R < Params.ReadsPerItem; ++R) {
      co_yield ThreadEvent::read(Params.InputBase + InputCursor,
                                 Params.ReadSize);
      InputCursor += Params.ReadSize;
      if (InputCursor >= Params.InputBytes)
        InputCursor = 0;
    }
    if (Params.ComputePerItem)
      co_yield ThreadEvent::compute(Params.ComputePerItem);
    for (uint32_t W = 0; W < Params.WritesPerItem; ++W) {
      uint64_t Slot = (Item + W) % AccumSlots;
      co_yield ThreadEvent::write(Params.AccumBase + Slot * 8, 8);
    }
  }
}

Generator<ThreadEvent>
cheetah::workloads::hammerSlot(uint64_t Address, uint64_t Iterations,
                               uint32_t ComputePerWrite, uint8_t AccessSize) {
  for (uint64_t I = 0; I < Iterations; ++I) {
    co_yield ThreadEvent::write(Address, AccessSize);
    if (ComputePerWrite)
      co_yield ThreadEvent::compute(ComputePerWrite);
  }
}

Generator<ThreadEvent>
cheetah::workloads::computeLoop(uint64_t ScratchBase, uint64_t ScratchBytes,
                                uint64_t Iterations,
                                uint32_t ComputePerIteration,
                                uint32_t AccessEvery) {
  if (AccessEvery == 0)
    AccessEvery = 1;
  uint64_t Cursor = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    co_yield ThreadEvent::compute(ComputePerIteration);
    if (I % AccessEvery == 0) {
      co_yield ThreadEvent::write(ScratchBase + Cursor, 8);
      Cursor = (Cursor + 8) % (ScratchBytes ? ScratchBytes : 8);
    }
  }
}
