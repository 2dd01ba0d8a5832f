//===- runtime/HeapAllocator.h - Hoard-style per-thread heap ----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cheetah's custom heap (paper Section 2.2). Built "based on Heap Layers":
/// a fixed-size arena is reserved up front so the heap address range is
/// known (enabling O(1) shadow-memory indexing), objects are managed in
/// power-of-two size classes, and each thread allocates from its own
/// superblocks in the style of Hoard so that two objects in the same cache
/// line are never handed to two different threads (preventing allocator-
/// induced inter-object false sharing). Every allocation records its
/// callsite and requested size for precise reporting.
///
/// The allocator deals in *addresses* within the arena. In simulation the
/// arena is purely virtual; in real-thread mode the same logic can sit atop
/// an mmap'ed region.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_RUNTIME_HEAPALLOCATOR_H
#define CHEETAH_RUNTIME_HEAPALLOCATOR_H

#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "runtime/Callsite.h"

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace cheetah {
namespace runtime {

/// Metadata for one heap object, live or freed.
struct HeapObject {
  /// First usable byte address.
  uint64_t Start = 0;
  /// Usable size (the size-class size, >= RequestedSize).
  uint64_t Size = 0;
  /// Size the caller asked for.
  uint64_t RequestedSize = 0;
  /// Interned allocation callsite.
  CallsiteId Site = 0;
  /// Thread that allocated the object.
  ThreadId Owner = 0;
  /// Monotonic allocation sequence number.
  uint64_t AllocIndex = 0;
  /// False once deallocated (metadata is kept for attribution).
  bool Live = true;

  uint64_t end() const { return Start + Size; }
  bool contains(uint64_t Address) const {
    return Address >= Start && Address < end();
  }
};

/// Allocation counters, exposed for tests and the memory ablation.
struct HeapStats {
  uint64_t Allocations = 0;
  uint64_t Deallocations = 0;
  uint64_t BytesRequested = 0;
  uint64_t BytesReserved = 0;
  uint64_t ArenaBytesUsed = 0;
  uint64_t SuperblocksCarved = 0;
};

/// Per-thread size-class heap over a fixed arena.
class HeapAllocator {
public:
  /// \param ArenaBase first address of the managed range.
  /// \param ArenaSize byte size of the managed range.
  /// \param Geometry cache geometry (superblocks are line-aligned).
  HeapAllocator(uint64_t ArenaBase, uint64_t ArenaSize,
                const CacheGeometry &Geometry);

  /// Allocates \p Size bytes on behalf of \p Tid.
  /// \returns the object's start address, or 0 when the arena is exhausted.
  uint64_t allocate(uint64_t Size, ThreadId Tid, CallsiteId Site);

  /// Releases the object starting at \p Address back to \p Tid's free list.
  /// The object's metadata survives for attribution; \p Address must be a
  /// live object start.
  void deallocate(uint64_t Address, ThreadId Tid);

  /// \returns the object containing \p Address (live preferred; a freed
  /// object whose slot has not been recycled also matches), or nullptr.
  const HeapObject *objectAt(uint64_t Address) const;

  /// All objects ever allocated, in allocation order.
  const std::vector<HeapObject> &objects() const { return Objects; }

  /// \returns true if \p Address lies inside the managed arena.
  bool covers(uint64_t Address) const {
    return Address >= ArenaBase && Address < ArenaBase + ArenaSize;
  }

  const HeapStats &stats() const { return Stats; }

  /// Size-class (power-of-two) an allocation of \p Size lands in.
  static uint64_t sizeClassFor(uint64_t Size);

private:
  /// Free lists and bump state for one (thread, size class) pair.
  struct ClassHeap {
    std::vector<uint64_t> FreeList;
    uint64_t BumpCursor = 0;
    uint64_t BumpEnd = 0;
  };

  /// Carves a fresh superblock for (Tid, ClassSize). \returns false on OOM.
  bool refill(ClassHeap &Heap, uint64_t ClassSize);

  uint64_t ArenaBase;
  uint64_t ArenaSize;
  uint64_t ArenaCursor;
  CacheGeometry Geometry;
  uint64_t SuperblockBytes;

  std::unordered_map<uint64_t, ClassHeap> ClassHeaps; // key: tid<<8 | class
  std::vector<HeapObject> Objects;
  /// Start address -> index into Objects for the *most recent* object at
  /// that address (recycled slots overwrite the mapping).
  std::map<uint64_t, size_t> ByAddress;
  HeapStats Stats;
};

} // namespace runtime
} // namespace cheetah

#endif // CHEETAH_RUNTIME_HEAPALLOCATOR_H
